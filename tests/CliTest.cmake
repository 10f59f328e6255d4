# Smoke tests for the rpcc command-line driver, run through ctest.
# Included from tests/CMakeLists.txt.

set(RPCC_BIN $<TARGET_FILE:rpcc-driver>)
set(PROGS ${CMAKE_SOURCE_DIR}/bench/programs)

add_test(NAME cli_counts
         COMMAND ${RPCC_BIN} ${PROGS}/allroots.c --counts)
set_tests_properties(cli_counts PROPERTIES
  PASS_REGULAR_EXPRESSION "total ops:")

add_test(NAME cli_dump_il
         COMMAND ${RPCC_BIN} ${PROGS}/allroots.c --dump-il=main)
set_tests_properties(cli_dump_il PROPERTIES
  PASS_REGULAR_EXPRESSION "func main")

add_test(NAME cli_dump_cfg
         COMMAND ${RPCC_BIN} ${PROGS}/allroots.c --dump-cfg=newton)
set_tests_properties(cli_dump_cfg PROPERTIES
  PASS_REGULAR_EXPRESSION "digraph")

add_test(NAME cli_stats
         COMMAND ${RPCC_BIN} ${PROGS}/mlink.c --stats)
set_tests_properties(cli_stats PROPERTIES
  PASS_REGULAR_EXPRESSION "promotion:")

add_test(NAME cli_per_function
         COMMAND ${RPCC_BIN} ${PROGS}/mlink.c --counts --per-function)
set_tests_properties(cli_per_function PROPERTIES
  PASS_REGULAR_EXPRESSION "peel_likelihood")

add_test(NAME cli_timing
         COMMAND ${RPCC_BIN} ${PROGS}/allroots.c --run --timing)
set_tests_properties(cli_timing PROPERTIES
  PASS_REGULAR_EXPRESSION "compile total:")

add_test(NAME cli_timing_json
         COMMAND ${RPCC_BIN} ${PROGS}/allroots.c --run --timing-json)
set_tests_properties(cli_timing_json PROPERTIES
  PASS_REGULAR_EXPRESSION "\"interp_steps\":[1-9]")

add_test(NAME cli_remarks
         COMMAND ${RPCC_BIN} ${PROGS}/tsp.c --remarks)
set_tests_properties(cli_remarks PROPERTIES
  PASS_REGULAR_EXPRESSION "\\[promote\\] (promoted|missed)")

add_test(NAME cli_remarks_pass_filter
         COMMAND ${RPCC_BIN} ${PROGS}/mlink.c --remarks=licm)
set_tests_properties(cli_remarks_pass_filter PROPERTIES
  PASS_REGULAR_EXPRESSION "\\[licm\\] "
  FAIL_REGULAR_EXPRESSION "\\[promote\\] ")

add_test(NAME cli_profile_tags
         COMMAND ${RPCC_BIN} ${PROGS}/tsp.c --profile-tags)
set_tests_properties(cli_profile_tags PROPERTIES
  PASS_REGULAR_EXPRESSION "promotion left on the table")

# Deep source nesting is a diagnosed compile error, not a stack overflow.
add_test(NAME cli_deep_nesting
         COMMAND ${CMAKE_COMMAND} -DRPCC_BIN=${RPCC_BIN}
                 -DWORK_DIR=${CMAKE_CURRENT_BINARY_DIR}/cli_deep_nesting
                 -P ${CMAKE_CURRENT_SOURCE_DIR}/DeepNesting.cmake)

# Out-of-range numeric literals are diagnosed compile errors, not aborts.
add_test(NAME cli_literal_range
         COMMAND ${CMAKE_COMMAND} -DRPCC_BIN=${RPCC_BIN}
                 -DWORK_DIR=${CMAKE_CURRENT_BINARY_DIR}/cli_literal_range
                 -P ${CMAKE_CURRENT_SOURCE_DIR}/LiteralRange.cmake)

add_test(NAME cli_bad_file COMMAND ${RPCC_BIN} /nonexistent.c)
set_tests_properties(cli_bad_file PROPERTIES WILL_FAIL TRUE)

add_test(NAME cli_bad_flag COMMAND ${RPCC_BIN} ${PROGS}/allroots.c --bogus)
set_tests_properties(cli_bad_flag PROPERTIES WILL_FAIL TRUE)

# File-valued observability flags reject a missing argument.
add_test(NAME cli_remarks_json_no_arg
         COMMAND ${RPCC_BIN} ${PROGS}/allroots.c --remarks-json)
set_tests_properties(cli_remarks_json_no_arg PROPERTIES WILL_FAIL TRUE)

add_test(NAME cli_programs_without_suite
         COMMAND ${RPCC_BIN} --programs=tsp)
set_tests_properties(cli_programs_without_suite PROPERTIES WILL_FAIL TRUE)

# Sandbox flag guards: --sandbox needs --suite, fault injection needs the
# sandbox (an inline fault would take the whole process down), and the
# injection spec's kind must parse.
add_test(NAME cli_sandbox_without_suite
         COMMAND ${RPCC_BIN} ${PROGS}/allroots.c --sandbox)
set_tests_properties(cli_sandbox_without_suite PROPERTIES WILL_FAIL TRUE)

add_test(NAME cli_inject_without_sandbox
         COMMAND ${RPCC_BIN} --suite --programs=clean
                 --inject-cell-fault=clean/modref/with:crash)
set_tests_properties(cli_inject_without_sandbox PROPERTIES WILL_FAIL TRUE)

add_test(NAME cli_inject_bad_kind
         COMMAND ${RPCC_BIN} --suite --programs=clean --sandbox
                 --inject-cell-fault=clean/modref/with:explode)
set_tests_properties(cli_inject_bad_kind PROPERTIES WILL_FAIL TRUE)

# A healthy sandboxed suite run exits 0 and still prints the paper tables.
add_test(NAME cli_suite_sandboxed
         COMMAND ${RPCC_BIN} --suite --programs=clean --sandbox)
set_tests_properties(cli_suite_sandboxed PROPERTIES
  PASS_REGULAR_EXPRESSION "Figure 7: dynamic loads executed")

# Engine flag: an unknown engine name is rejected with the full menu.
add_test(NAME cli_bad_engine
         COMMAND ${RPCC_BIN} ${PROGS}/allroots.c --run --engine=turbo)
set_tests_properties(cli_bad_engine PROPERTIES WILL_FAIL TRUE)

if(RPCC_JIT_TESTS)
  # Supported host/build: --engine=jit runs and counts like any engine.
  add_test(NAME cli_engine_jit
           COMMAND ${RPCC_BIN} ${PROGS}/allroots.c --counts --engine=jit)
  set_tests_properties(cli_engine_jit PROPERTIES
    PASS_REGULAR_EXPRESSION "total ops:")
else()
  # Non-x86-64 hosts and sanitizer builds: --engine=jit must be rejected up
  # front with a diagnostic naming the requirement, not fail mid-run. The
  # pass-regex replaces exit-code checking, so matching the diagnostic (and
  # not the counters banner) is the whole assertion.
  add_test(NAME cli_engine_jit_rejected
           COMMAND ${RPCC_BIN} ${PROGS}/allroots.c --counts --engine=jit)
  set_tests_properties(cli_engine_jit_rejected PROPERTIES
    PASS_REGULAR_EXPRESSION
      "--engine=jit is not supported on this host/build"
    FAIL_REGULAR_EXPRESSION "total ops:")
endif()

# rpfuzz guard: worker-fault injection requires the sandbox.
add_test(NAME cli_fuzz_inject_without_sandbox
         COMMAND $<TARGET_FILE:rpfuzz> --runs=1 --inject-worker-faults)
set_tests_properties(cli_fuzz_inject_without_sandbox PROPERTIES WILL_FAIL TRUE)

# rpserved option errors end the process before it binds: an unknown flag
# and a zero cache budget are named, not served. The short timeout turns a
# daemon that starts anyway into a failure.
add_test(NAME cli_served_unknown_option
         COMMAND $<TARGET_FILE:rpserved> --fork-per-request)
set_tests_properties(cli_served_unknown_option PROPERTIES
  PASS_REGULAR_EXPRESSION "unknown option '--fork-per-request'"
  TIMEOUT 10)

add_test(NAME cli_served_zero_cache
         COMMAND $<TARGET_FILE:rpserved> --cache-mb=0)
set_tests_properties(cli_served_zero_cache PROPERTIES
  PASS_REGULAR_EXPRESSION "bad value for --cache-mb"
  TIMEOUT 10)
