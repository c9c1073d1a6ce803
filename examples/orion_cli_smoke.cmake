# orion_cli_smoke — drives orion_cli's event-file commands end to end on
# the tiny scenario and checks each exit code and a line of its output,
# including `inspect` on a copy with one block byte flipped (which every
# other reading command refuses) and on a copy truncated to half its size; then flow CSV convert, inspect and refused
# rows, and `flow-impact` over a CSV and a NetFlow v5 stream lifted in
# memory (TMPDIR untouched).
#
#   cmake -DCLI=path/to/orion_cli -DWORK=work-dir -P orion_cli_smoke.cmake
#
# Byte surgery on the copies uses `sh`, `printf`, `dd` and `head`.

if(NOT CLI OR NOT WORK)
  message(FATAL_ERROR "usage: cmake -DCLI=orion_cli -DWORK=dir -P ${CMAKE_CURRENT_LIST_FILE}")
endif()

# run(<exit code> <stdout regex> <orion_cli args...>) runs orion_cli with
# TMPDIR=${WORK}/tmp and keeps its stdout in `last_out`; run_err() matches
# the regex against stderr instead.
function(run expect_code expect_regex)
  list(JOIN ARGN " " args)
  execute_process(COMMAND ${CMAKE_COMMAND} -E env TMPDIR=${WORK}/tmp
                          ${CLI} ${ARGN}
                  WORKING_DIRECTORY ${WORK}
                  RESULT_VARIABLE code
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  set(last_out "${out}" PARENT_SCOPE)
  if(NOT code EQUAL expect_code)
    message(FATAL_ERROR "orion_cli ${args}: exit ${code}, expected ${expect_code}\n${out}${err}")
  endif()
  if(NOT stream)
    set(stream out)
  endif()
  if(NOT "${${stream}}" MATCHES "${expect_regex}")
    message(FATAL_ERROR "orion_cli ${args}: no match for '${expect_regex}' on std${stream}\n${out}${err}")
  endif()
  message(STATUS "orion_cli ${args}: exit ${code}")
endfunction()

function(run_err expect_code expect_regex)
  set(stream err)  # read by run()
  run(${expect_code} "${expect_regex}" ${ARGN})
endfunction()

function(shell command)
  execute_process(COMMAND sh -c "${command}" WORKING_DIRECTORY ${WORK}
                  RESULT_VARIABLE code)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "`${command}` failed with ${code}")
  endif()
endfunction()

file(REMOVE_RECURSE ${WORK})
file(MAKE_DIRECTORY ${WORK}/tmp)  # every command's TMPDIR

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
# Every other reader refuses the damaged copy too: the commands that
# materialize it and the ones that scan it in place.
set(bad_block "flipped.ode2: ode2 store: block 0 CRC mismatch")
run_err(1 "${bad_block}" filter --in flipped.ode2 --out flipped_clean.ode2)
run_err(1 "${bad_block}" summary --in flipped.ode2)
run_err(1 "${bad_block}" export --in flipped.ode2 --csv flipped.csv)
run_err(1 "${bad_block}" detect --in flipped.ode2)
run_err(1 "${bad_block}" flow-impact --in flipped.ode2 --days 2)

# Half the file: the strict open fails and salvage reports what it kept.
file(SIZE ${WORK}/e.ode2 size)
math(EXPR half "${size} / 2")
shell("head -c ${half} e.ode2 > half.ode2")
run(1 "recovered events" inspect --in half.ode2)

run(0 "definition-1 AH sources detected" flow-impact --in e.ode2 --days 2)

# Flow CSV: a clean archive round trip, then rows the decoder must refuse
# instead of wrapping (router 70001 would become 4465) or aborting.
set(csv_header "router,ts_ns,src,dst,src_port,dst_port,proto,packets,bytes\n")
file(WRITE ${WORK}/flows.csv "${csv_header}"
  "0,0,203.0.113.1,0.0.0.0,1,23,6,5,200\n"
  "0,0,203.0.113.1,0.0.0.0,1,53,17,2,80\n"
  "1,86400000000000,203.0.113.2,0.0.0.0,1,80,6,7,280\n"
  "2,86400000000000,203.0.113.9,0.0.0.0,0,0,1,1,40\n")
run(0 "wrote 4 flows in 3 \\(router, day\\) segments" flow-convert --in flows.csv --out flows.fde1)
run(0 "all clean" flow-inspect --in flows.fde1)
file(WRITE ${WORK}/bad_router.csv "${csv_header}70001,0,203.0.113.1,0.0.0.0,1,70000,300,5,200\n")
run_err(1 "bad_router.csv:2: bad router" flow-convert --in bad_router.csv --out bad.fde1)
file(WRITE ${WORK}/negative.csv "${csv_header}-1,0,203.0.113.2,0.0.0.0,1,23,6,5,200\n")
run_err(1 "negative.csv:2: bad router" flow-convert --in negative.csv --out bad.fde1)
file(WRITE ${WORK}/text.csv "${csv_header}0,0,203.0.113.3,0.0.0.0,1,abc,6,5,200\n")
run_err(1 "text.csv:2: bad dst_port" flow-convert --in text.csv --out bad.fde1)

# A legacy flow input lifts to an in-memory image: the table equals the
# one over the converted archive, and no command wrote to TMPDIR.
set(lift_line "lifted CSV input to an in-memory FDE1 image\n")
run(0 "${lift_line}" flow-impact --in e.ode2 --flows flows.csv)
string(REPLACE "${lift_line}" "" lifted "${last_out}")
run(0 "definition-1 AH" flow-impact --in e.ode2 --flows flows.fde1)
if(NOT lifted STREQUAL last_out)
  message(FATAL_ERROR "flow-impact over flows.csv differs from flows.fde1:\n${lifted}\n${last_out}")
endif()
# A 72-byte NetFlow v5 packet declaring sampling interval 1000, whose one
# record (5 packets to 23/TCP) comes from 11.8.3.139, a definition-1 AH:
# matched packets and the cell total both scale at the stream's interval.
set(v5_header "\\000\\005\\000\\001\\000\\000\\000\\000\\137\\356\\146\\000"
              "\\000\\000\\000\\000\\000\\000\\000\\000\\000\\000\\003\\350")
set(v5_record "\\013\\010\\003\\213\\000\\000\\000\\000\\000\\000\\000\\000"
              "\\000\\000\\000\\000\\000\\000\\000\\005\\000\\000\\000\\310"
              "\\000\\000\\000\\000\\000\\000\\000\\000\\000\\000\\000\\027"
              "\\000\\002\\006\\000\\000\\000\\000\\000\\000\\000\\000\\000")
string(CONCAT v5_packet ${v5_header} ${v5_record})
shell("printf '${v5_packet}' > i1000.nfv5")
run(0 "\\(100\\.00%\\)" flow-impact --in e.ode2 --flows i1000.nfv5)

file(GLOB left ${WORK}/tmp/*)
if(left)
  message(FATAL_ERROR "orion_cli left files in TMPDIR: ${left}")
endif()
