# live_monitor_smoke — the sharded modes of live_monitor against each
# other: --shards 1, 2, 3 and 5 and --shards 4 --supervise print the same
# lines after the first (which names the shard count), and a run resumed
# from the checkpoint a --shards 4 --checkpoint run left prints what that
# run printed, but for its "resumed from" and "checkpoints written" lines.
#
#   cmake -DMONITOR=path/to/live_monitor -DWORK=work-dir -P live_monitor_smoke.cmake

if(NOT MONITOR OR NOT WORK)
  message(FATAL_ERROR "usage: cmake -DMONITOR=live_monitor -DWORK=dir -P ${CMAKE_CURRENT_LIST_FILE}")
endif()

# monitor(<var> <live_monitor args...>) runs live_monitor in WORK, fails
# unless it exits 0, and stores its stdout in <var>.
function(monitor var)
  list(JOIN ARGN " " args)
  execute_process(COMMAND ${MONITOR} ${ARGN}
                  WORKING_DIRECTORY ${WORK}
                  RESULT_VARIABLE code
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "live_monitor ${args}: exit ${code}\n${out}${err}")
  endif()
  message(STATUS "live_monitor ${args}: exit 0")
  set(${var} "${out}" PARENT_SCOPE)
endfunction()

# after_first_line(<var> <text>) stores <text> without its first line.
# (A REGEX REPLACE anchored with ^ would strip every line, not one.)
function(after_first_line var text)
  string(FIND "${text}" "\n" eol)
  math(EXPR rest "${eol} + 1")
  string(SUBSTRING "${text}" ${rest} -1 tail)
  set(${var} "${tail}" PARENT_SCOPE)
endfunction()

# expect_same(<what> <want> <got>) fails with both texts when they differ.
function(expect_same what want got)
  if(NOT want STREQUAL got)
    message(FATAL_ERROR "${what} differs\n--- want\n${want}--- got\n${got}")
  endif()
endfunction()

file(REMOVE_RECURSE ${WORK})
file(MAKE_DIRECTORY ${WORK})

monitor(one --shards 1)
after_first_line(want "${one}")
if(NOT want MATCHES "cumulative AH discovered online: D1 [0-9]+")
  message(FATAL_ERROR "live_monitor --shards 1 printed no cumulative AH line\n${one}")
endif()
foreach(shards 2 3 5)
  monitor(out --shards ${shards})
  after_first_line(got "${out}")
  expect_same("--shards ${shards} after its first line" "${want}" "${got}")
endforeach()
monitor(out --shards 4 --supervise)
after_first_line(got "${out}")
expect_same("--shards 4 --supervise after its first line" "${want}" "${got}")

monitor(checkpointed --shards 4 --checkpoint F)
if(NOT checkpointed MATCHES "checkpoints written to F: [1-9]")
  message(FATAL_ERROR "--shards 4 --checkpoint F wrote no checkpoint\n${checkpointed}")
endif()
monitor(resumed --shards 4 --resume F)
if(NOT resumed MATCHES "resumed from F \\([1-9][0-9]* packets already ingested\\)")
  message(FATAL_ERROR "--shards 4 --resume F did not resume\n${resumed}")
endif()
string(REGEX REPLACE "checkpoints written to [^\n]*\n" "" checkpointed "${checkpointed}")
string(REGEX REPLACE "resumed from [^\n]*\n" "" resumed "${resumed}")
expect_same("--shards 4 --resume F against the run that wrote F" "${checkpointed}" "${resumed}")
