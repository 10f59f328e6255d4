# The compile store (shared prefixes and suffixes) must be invisible in
# every observable output: `rpcc --suite` stdout, the remark stream, and
# the tag profile must be byte-identical with the cache on (default) and
# off (--no-compile-cache), serially and with eight workers.
#
# Invoked by ctest as:
#   cmake -DRPCC_BIN=<rpcc> -DWORK_DIR=<dir> -P SuiteCacheDiff.cmake

if(NOT RPCC_BIN)
  message(FATAL_ERROR "RPCC_BIN not set")
endif()
if(NOT WORK_DIR)
  message(FATAL_ERROR "WORK_DIR not set")
endif()
file(MAKE_DIRECTORY ${WORK_DIR})

# A program subset keeps the four suite runs fast; cache sharing is still
# exercised because every program compiles under multiple configurations.
# bc and fft are the programs whose two analyses differ, so their pointer
# cells must not reuse the modref cells' suffixes.
set(PROGRAMS --programs=tsp,dhrystone,gzip_enc,bc,fft)

# Runs one --suite invocation and leaves its outputs in <tag>_OUT /
# <tag>_ERR plus remark/profile JSON files named after the tag.
function(run_suite tag)
  execute_process(COMMAND ${RPCC_BIN} --suite ${PROGRAMS} ${ARGN}
                          --remarks-json ${WORK_DIR}/remarks_${tag}.json
                          --profile-json ${WORK_DIR}/profile_${tag}.json
                  OUTPUT_VARIABLE OUT
                  ERROR_VARIABLE ERR
                  RESULT_VARIABLE RC)
  if(NOT RC EQUAL 0)
    message(FATAL_ERROR "--suite ${tag} failed (rc=${RC}):\n${ERR}")
  endif()
  set(${tag}_OUT "${OUT}" PARENT_SCOPE)
  set(${tag}_ERR "${ERR}" PARENT_SCOPE)
endfunction()

run_suite(cache1 --jobs=1)
run_suite(nocache1 --jobs=1 --no-compile-cache)
run_suite(cache8 --jobs=8)
run_suite(nocache8 --jobs=8 --no-compile-cache)

# Compares stdout, stderr, and the two JSON artifacts of two runs.
function(expect_same a b what)
  if(NOT ${a}_OUT STREQUAL ${b}_OUT)
    message(FATAL_ERROR "--suite stdout differs: ${what}")
  endif()
  if(NOT ${a}_ERR STREQUAL ${b}_ERR)
    message(FATAL_ERROR "--suite stderr differs: ${what}")
  endif()
  foreach(kind remarks profile)
    file(READ ${WORK_DIR}/${kind}_${a}.json A_JSON)
    file(READ ${WORK_DIR}/${kind}_${b}.json B_JSON)
    if(NOT A_JSON STREQUAL B_JSON)
      message(FATAL_ERROR "${kind} JSON differs: ${what}")
    endif()
  endforeach()
endfunction()

expect_same(cache1 nocache1 "cache on vs off at --jobs=1")
expect_same(cache8 nocache8 "cache on vs off at --jobs=8")
expect_same(cache1 cache8 "cache on, --jobs=1 vs --jobs=8")

if(NOT cache1_OUT MATCHES "Figure 7: dynamic loads executed")
  message(FATAL_ERROR "--suite output is missing the Figure 7 table")
endif()

# A compile with remarks runs its suffix privately, so the runs above never
# reach the store's suffix slots. Plain runs do: their tables must match
# with the cache on and off as well.
foreach(JOBS 1 8)
  execute_process(COMMAND ${RPCC_BIN} --suite ${PROGRAMS} --jobs=${JOBS}
                  OUTPUT_VARIABLE ON_OUT ERROR_VARIABLE ON_ERR
                  RESULT_VARIABLE ON_RC)
  execute_process(COMMAND ${RPCC_BIN} --suite ${PROGRAMS} --jobs=${JOBS}
                          --no-compile-cache
                  OUTPUT_VARIABLE OFF_OUT ERROR_VARIABLE OFF_ERR
                  RESULT_VARIABLE OFF_RC)
  if(NOT ON_RC EQUAL 0 OR NOT OFF_RC EQUAL 0)
    message(FATAL_ERROR "plain --suite failed at --jobs=${JOBS}:\n"
                        "${ON_ERR}${OFF_ERR}")
  endif()
  if(NOT ON_OUT STREQUAL OFF_OUT)
    message(FATAL_ERROR
            "plain --suite stdout differs: cache on vs off at --jobs=${JOBS}")
  endif()
endforeach()
