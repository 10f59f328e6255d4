# End-to-end checks on the observability outputs:
#
#   1. `--suite` stdout is byte-identical with and without the
#      observability flags (machine-clean stdout guarantee).
#   2. stdout, stderr, remark JSON and profile JSON are byte-identical
#      between --jobs=1 and --jobs=4.
#   3. rpjson validates the remark, profile, trace and timing outputs.
#   4. The canonical (timestamp-stripped) trace skeleton is identical
#      between serial and parallel runs, with and without remarks.
#
# Invoked by ctest as:
#   cmake -DRPCC_BIN=<rpcc> -DRPJSON_BIN=<rpjson> -DWORK_DIR=<dir>
#         -P ObsJsonDiff.cmake

if(NOT RPCC_BIN)
  message(FATAL_ERROR "RPCC_BIN not set")
endif()
if(NOT RPJSON_BIN)
  message(FATAL_ERROR "RPJSON_BIN not set")
endif()
if(NOT WORK_DIR)
  message(FATAL_ERROR "WORK_DIR not set")
endif()
file(MAKE_DIRECTORY ${WORK_DIR})

# A small program subset keeps this test fast; the full suite's parallel
# determinism is covered by suite_parallel.
set(PROGRAMS --programs=tsp,dhrystone)

# --- plain run: the reference stdout --------------------------------------
execute_process(COMMAND ${RPCC_BIN} --suite ${PROGRAMS}
                OUTPUT_VARIABLE PLAIN_OUT
                ERROR_VARIABLE PLAIN_ERR
                RESULT_VARIABLE RC)
if(NOT RC EQUAL 0)
  message(FATAL_ERROR "plain --suite failed (rc=${RC}):\n${PLAIN_ERR}")
endif()

# --- observability run, serial --------------------------------------------
execute_process(COMMAND ${RPCC_BIN} --suite ${PROGRAMS}
                        --remarks --profile-tags
                        --remarks-json ${WORK_DIR}/remarks1.json
                        --profile-json ${WORK_DIR}/profile1.json
                        --trace ${WORK_DIR}/trace1.json
                OUTPUT_VARIABLE OBS1_OUT
                ERROR_VARIABLE OBS1_ERR
                RESULT_VARIABLE RC)
if(NOT RC EQUAL 0)
  message(FATAL_ERROR "serial obs --suite failed (rc=${RC}):\n${OBS1_ERR}")
endif()

# Machine-clean stdout: the observability flags must not change a byte.
if(NOT PLAIN_OUT STREQUAL OBS1_OUT)
  message(FATAL_ERROR
          "--remarks/--profile-tags changed --suite stdout")
endif()
if(NOT OBS1_ERR MATCHES "remarks per cell")
  message(FATAL_ERROR "--remarks summary missing from stderr")
endif()
if(NOT OBS1_ERR MATCHES "promotion left on the table")
  message(FATAL_ERROR "--profile-tags explain report missing from stderr")
endif()

# --- observability run, parallel ------------------------------------------
execute_process(COMMAND ${RPCC_BIN} --suite ${PROGRAMS} --jobs=4
                        --remarks --profile-tags
                        --remarks-json ${WORK_DIR}/remarks4.json
                        --profile-json ${WORK_DIR}/profile4.json
                        --trace ${WORK_DIR}/trace4.json
                OUTPUT_VARIABLE OBS4_OUT
                ERROR_VARIABLE OBS4_ERR
                RESULT_VARIABLE RC)
if(NOT RC EQUAL 0)
  message(FATAL_ERROR "parallel obs --suite failed (rc=${RC}):\n${OBS4_ERR}")
endif()

if(NOT OBS1_OUT STREQUAL OBS4_OUT)
  message(FATAL_ERROR "obs --suite stdout differs between --jobs=1 and 4")
endif()
if(NOT OBS1_ERR STREQUAL OBS4_ERR)
  message(FATAL_ERROR "obs --suite stderr differs between --jobs=1 and 4")
endif()
foreach(F remarks profile)
  file(READ ${WORK_DIR}/${F}1.json ONE)
  file(READ ${WORK_DIR}/${F}4.json FOUR)
  if(NOT ONE STREQUAL FOUR)
    message(FATAL_ERROR "${F} JSON differs between --jobs=1 and --jobs=4")
  endif()
endforeach()

# --- schema validation -----------------------------------------------------
foreach(PAIR "remarks;remarks1.json" "profile;profile1.json"
             "trace;trace1.json" "trace;trace4.json")
  list(GET PAIR 0 SCHEMA)
  list(GET PAIR 1 FILE)
  execute_process(COMMAND ${RPJSON_BIN} ${SCHEMA} ${WORK_DIR}/${FILE}
                  OUTPUT_VARIABLE V_OUT ERROR_VARIABLE V_ERR
                  RESULT_VARIABLE RC)
  if(NOT RC EQUAL 0)
    message(FATAL_ERROR
            "rpjson ${SCHEMA} rejected ${FILE}:\n${V_OUT}${V_ERR}")
  endif()
endforeach()

# --- canonical trace skeleton is jobs-independent --------------------------
execute_process(COMMAND ${RPJSON_BIN} canon ${WORK_DIR}/trace1.json
                OUTPUT_VARIABLE CANON1 ERROR_VARIABLE V_ERR
                RESULT_VARIABLE RC)
if(NOT RC EQUAL 0)
  message(FATAL_ERROR "rpjson canon trace1 failed:\n${V_ERR}")
endif()
execute_process(COMMAND ${RPJSON_BIN} canon ${WORK_DIR}/trace4.json
                OUTPUT_VARIABLE CANON4 ERROR_VARIABLE V_ERR
                RESULT_VARIABLE RC)
if(NOT RC EQUAL 0)
  message(FATAL_ERROR "rpjson canon trace4 failed:\n${V_ERR}")
endif()
if(NOT CANON1 STREQUAL CANON4)
  message(FATAL_ERROR
          "canonical trace skeleton differs between --jobs=1 and --jobs=4")
endif()
if(NOT CANON1 MATCHES "cell\\|")
  message(FATAL_ERROR "canonical trace has no cell spans")
endif()

# --- the same without remarks: suffixes built once per key -----------------
# A compile with remarks runs its suffix privately, so the traces above
# label every pass with its cell. Without remarks, cells of one suffix key
# share one build, and which cell builds it depends on thread timing: its
# passes must carry the program and the suffix options, not the cell.
foreach(JOBS 1 4)
  execute_process(COMMAND ${RPCC_BIN} --suite ${PROGRAMS} --jobs=${JOBS}
                          --trace ${WORK_DIR}/plain_trace${JOBS}.json
                  OUTPUT_VARIABLE P_OUT ERROR_VARIABLE P_ERR
                  RESULT_VARIABLE RC)
  if(NOT RC EQUAL 0)
    message(FATAL_ERROR "plain --trace --suite failed (rc=${RC}):\n${P_ERR}")
  endif()
  execute_process(COMMAND ${RPJSON_BIN} canon
                          ${WORK_DIR}/plain_trace${JOBS}.json
                  OUTPUT_VARIABLE PLAIN_CANON${JOBS} ERROR_VARIABLE V_ERR
                  RESULT_VARIABLE RC)
  if(NOT RC EQUAL 0)
    message(FATAL_ERROR "rpjson canon plain_trace${JOBS} failed:\n${V_ERR}")
  endif()
endforeach()
if(NOT PLAIN_CANON1 STREQUAL PLAIN_CANON4)
  message(FATAL_ERROR "canonical trace skeleton without remarks differs "
                      "between --jobs=1 and --jobs=4")
endif()
if(NOT PLAIN_CANON1 MATCHES "pass\\|regalloc;job=tsp/promote/r16")
  message(FATAL_ERROR "suffix spans lack their program/options label")
endif()

# --- single-file timing JSON round-trips through rpjson --------------------
execute_process(COMMAND ${RPCC_BIN} --suite ${PROGRAMS}
                        --timing-json=${WORK_DIR}/timing.json
                OUTPUT_VARIABLE T_OUT ERROR_VARIABLE T_ERR
                RESULT_VARIABLE RC)
if(NOT RC EQUAL 0)
  message(FATAL_ERROR "--timing-json --suite failed (rc=${RC}):\n${T_ERR}")
endif()
if(NOT PLAIN_OUT STREQUAL T_OUT)
  message(FATAL_ERROR "--timing-json changed --suite stdout")
endif()
execute_process(COMMAND ${RPJSON_BIN} timing ${WORK_DIR}/timing.json
                OUTPUT_VARIABLE V_OUT ERROR_VARIABLE V_ERR
                RESULT_VARIABLE RC)
if(NOT RC EQUAL 0)
  message(FATAL_ERROR "rpjson timing rejected output:\n${V_OUT}${V_ERR}")
endif()
