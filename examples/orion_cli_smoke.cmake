# orion_cli_smoke — drives orion_cli's event-file commands end to end on
# the tiny scenario and checks each exit code and a line of its output,
# including `inspect` on a copy with one block byte flipped and on a copy
# truncated to half its size.
#
#   cmake -DCLI=path/to/orion_cli -DWORK=work-dir -P orion_cli_smoke.cmake
#
# Byte surgery on the copies uses `sh`, `printf`, `dd` and `head`.

if(NOT CLI OR NOT WORK)
  message(FATAL_ERROR "usage: cmake -DCLI=orion_cli -DWORK=dir -P ${CMAKE_CURRENT_LIST_FILE}")
endif()

# run(<exit code> <output regex> <orion_cli args...>)
function(run expect_code expect_regex)
  list(JOIN ARGN " " args)
  execute_process(COMMAND ${CLI} ${ARGN}
                  WORKING_DIRECTORY ${WORK}
                  RESULT_VARIABLE code
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT code EQUAL expect_code)
    message(FATAL_ERROR "orion_cli ${args}: exit ${code}, expected ${expect_code}\n${out}${err}")
  endif()
  if(NOT out MATCHES "${expect_regex}")
    message(FATAL_ERROR "orion_cli ${args}: no match for '${expect_regex}'\n${out}${err}")
  endif()
  message(STATUS "orion_cli ${args}: exit ${code}")
endfunction()

function(shell command)
  execute_process(COMMAND sh -c "${command}" WORKING_DIRECTORY ${WORK}
                  RESULT_VARIABLE code)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "`${command}` failed with ${code}")
  endif()
endfunction()

file(REMOVE_RECURSE ${WORK})
file(MAKE_DIRECTORY ${WORK})

run(0 "wrote [0-9]+ events to e.ode2" simulate --out e.ode2 --scenario tiny)
file(READ ${WORK}/e.ode2 magic LIMIT 4 HEX)
if(NOT magic STREQUAL "4f444532")  # "ODE2"
  message(FATAL_ERROR "simulate wrote magic bytes ${magic}, expected ODE2")
endif()
run(0 "wrote [0-9]+ events to clean.ode2" filter --in e.ode2 --out clean.ode2)
run(0 "wrote [0-9]+ daily-list entries" detect --in e.ode2 --lists lists.csv)
run(1 ".*" detect --in e.ode2 --alpha2 nan)
run(0 "exported [0-9]+ events" export --in e.ode2 --csv e.csv)
run(0 "unique sources" summary --in e.ode2)
run(0 "all clean" inspect --in e.ode2)

# One byte inside block 0 (the header is 40 bytes): the strict open still
# succeeds, and the block CRC check names the block.
set(offset 45)
file(READ ${WORK}/e.ode2 byte OFFSET ${offset} LIMIT 1 HEX)
if(byte STREQUAL "ff")
  set(flipped "000")
else()
  set(flipped "377")
endif()
shell("cp e.ode2 flipped.ode2 && printf '\\${flipped}' | dd of=flipped.ode2 bs=1 seek=${offset} conv=notrunc 2>/dev/null")
run(1 "FIRST BAD: block 0" inspect --in flipped.ode2)

# Half the file: the strict open fails and salvage reports what it kept.
file(SIZE ${WORK}/e.ode2 size)
math(EXPR half "${size} / 2")
shell("head -c ${half} e.ode2 > half.ode2")
run(1 "recovered events" inspect --in half.ode2)

run(0 "definition-1 AH sources detected" flow-impact --in e.ode2 --days 2)
