# End-to-end smoke for the serving stack over real processes and sockets:
# rploadgen spawns the actual rpserved binary on an ephemeral port, drives
# it with keep-alive HTTP traffic, SIGTERMs it, and requires a clean drain
# (exit 0). Two corpora:
#
#   mixed    valid compiles, /run executions, and compile errors — every
#            request must get a well-formed envelope
#   hostile  /run with injected crash/hang/oom children — the daemon must
#            classify every fault (jobs_outcome counters exactly match what
#            was sent) and stay alive throughout
#
# The mixed leg also makes rpserved flush --metrics-json on exit and
# validates the flushed file with rpjson.
#
# Invoked by ctest as:
#   cmake -DRPSERVED_BIN=... -DRPLOADGEN_BIN=... -DRPJSON_BIN=...
#         -DWORK_DIR=<scratch> -P ServedSmoke.cmake

foreach(V RPSERVED_BIN RPLOADGEN_BIN RPJSON_BIN WORK_DIR)
  if(NOT ${V})
    message(FATAL_ERROR "${V} not set")
  endif()
endforeach()

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

# --- mixed corpus: compiles, runs, and compile errors under load ---------

set(MIXED_CONNS 4)
set(MIXED_REQUESTS 12) # per connection
execute_process(COMMAND ${RPLOADGEN_BIN} --server=${RPSERVED_BIN}
                        --server-arg=--metrics-json=${WORK_DIR}/metrics.json
                        --connections=${MIXED_CONNS}
                        --requests=${MIXED_REQUESTS} --corpus=mixed
                        --expect-outcomes
                        --json=${WORK_DIR}/loadgen_mixed.json
                OUTPUT_VARIABLE OUT ERROR_VARIABLE ERR RESULT_VARIABLE RC)
if(NOT RC EQUAL 0)
  message(FATAL_ERROR "mixed loadgen run failed (${RC}):\n${OUT}\n${ERR}")
endif()
if(NOT "${OUT}${ERR}" MATCHES "drained cleanly on SIGTERM")
  message(FATAL_ERROR "mixed run did not drain cleanly:\n${OUT}\n${ERR}")
endif()

if(NOT EXISTS ${WORK_DIR}/metrics.json)
  message(FATAL_ERROR "rpserved did not flush --metrics-json on SIGTERM")
endif()
execute_process(COMMAND ${RPJSON_BIN} metrics ${WORK_DIR}/metrics.json
                OUTPUT_VARIABLE OUT ERROR_VARIABLE ERR RESULT_VARIABLE RC)
if(NOT RC EQUAL 0)
  message(FATAL_ERROR "flushed metrics JSON is invalid:\n${OUT}\n${ERR}")
endif()

# The daemon's counters must show served traffic.
file(READ ${WORK_DIR}/metrics.json METRICS)
if(NOT METRICS MATCHES "served.requests")
  message(FATAL_ERROR "metrics snapshot has no served.requests counters")
endif()

# The suffix level on the real binary. The mixed plan (planRequest in
# tools/rploadgen.cpp: request K = conn * 7919 + seq) posts /compile for two
# good keys only, corpus programs 0 and 1 at the default config (K % 4 of 0
# and 1), /run for program 2 (K % 4 == 2) and a compile error otherwise.
# Every good request ran a suffix or was a suffix hit, and every good
# /compile but the two that built those keys' slots was a hit. How many
# /run calls found program 2's module still live depends on timing, so
# that split is bounded, not pinned.
set(GOOD_COMPILES 0)
set(RUNS 0)
math(EXPR LAST_CONN "${MIXED_CONNS} - 1")
math(EXPR LAST_SEQ "${MIXED_REQUESTS} - 1")
foreach(CONN RANGE ${LAST_CONN})
  foreach(SEQ RANGE ${LAST_SEQ})
    math(EXPR K "(${CONN} * 7919 + ${SEQ}) % 4")
    if(K LESS 2)
      math(EXPR GOOD_COMPILES "${GOOD_COMPILES} + 1")
    elseif(K EQUAL 2)
      math(EXPR RUNS "${RUNS} + 1")
    endif()
  endforeach()
endforeach()
execute_process(COMMAND ${RPJSON_BIN} metrics-canon ${WORK_DIR}/metrics.json
                OUTPUT_VARIABLE CANON ERROR_VARIABLE ERR RESULT_VARIABLE RC)
if(NOT RC EQUAL 0)
  message(FATAL_ERROR "rpjson metrics-canon failed:\n${ERR}")
endif()
if(NOT CANON MATCHES "cache\\.suffix_hits ([0-9]+)")
  message(FATAL_ERROR "metrics have no cache.suffix_hits:\n${CANON}")
endif()
set(SUFFIX_HITS ${CMAKE_MATCH_1})
if(NOT CANON MATCHES "compile\\.suffix_us count=([0-9]+)")
  message(FATAL_ERROR "metrics have no compile.suffix_us:\n${CANON}")
endif()
set(SUFFIX_RAN ${CMAKE_MATCH_1})
math(EXPR ANSWERED "${SUFFIX_HITS} + ${SUFFIX_RAN}")
math(EXPR GOOD "${GOOD_COMPILES} + ${RUNS}")
math(EXPR MIN_HITS "${GOOD_COMPILES} - 2")
math(EXPR MAX_HITS "${GOOD_COMPILES} - 2 + ${RUNS} - 1")
if(NOT ANSWERED EQUAL GOOD OR SUFFIX_HITS LESS MIN_HITS OR
   SUFFIX_HITS GREATER MAX_HITS)
  message(FATAL_ERROR
          "suffix level: ${SUFFIX_HITS} hit(s) and ${SUFFIX_RAN} suffix "
          "run(s) for ${GOOD_COMPILES} good /compile and ${RUNS} /run "
          "requests; want hits + runs = ${GOOD} and hits in "
          "[${MIN_HITS}, ${MAX_HITS}]")
endif()

# --- hostile corpus: crash/hang/oom children, exact classification -------

execute_process(COMMAND ${RPLOADGEN_BIN} --server=${RPSERVED_BIN}
                        --server-arg=--sandbox-wall=2
                        --connections=4 --requests=6 --corpus=hostile
                        --expect-outcomes
                OUTPUT_VARIABLE OUT ERROR_VARIABLE ERR RESULT_VARIABLE RC)
if(NOT RC EQUAL 0)
  message(FATAL_ERROR "hostile loadgen run failed (${RC}):\n${OUT}\n${ERR}")
endif()
if(NOT "${OUT}${ERR}" MATCHES "outcome counters match")
  message(FATAL_ERROR "hostile outcome counters not verified:\n${OUT}\n${ERR}")
endif()
if(NOT "${OUT}${ERR}" MATCHES "drained cleanly on SIGTERM")
  message(FATAL_ERROR "hostile run did not drain cleanly:\n${OUT}\n${ERR}")
endif()
