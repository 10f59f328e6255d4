# Numeric literals past what their type holds end in a compile error, not an
# abort: an integer literal past INT64_MAX and a floating literal past the
# largest double each exit 1 with one line:col diagnostic, while INT64_MAX
# itself still compiles and runs.
#
# Invoked by ctest as:
#   cmake -DRPCC_BIN=<path-to-rpcc> -DWORK_DIR=<dir> -P LiteralRange.cmake

if(NOT RPCC_BIN OR NOT WORK_DIR)
  message(FATAL_ERROR "RPCC_BIN and WORK_DIR must be set")
endif()
file(MAKE_DIRECTORY ${WORK_DIR})

file(WRITE ${WORK_DIR}/int.c "int main(){return 99999999999999999999;}\n")
file(WRITE ${WORK_DIR}/float.c
     "int main(){float f; f = 1e999; return 0;}\n")
file(WRITE ${WORK_DIR}/max.c
     "int main(){return 9223372036854775807 / 9223372036854775807 + 41;}\n")

foreach(CASE "int;1:19: integer literal out of range"
             "float;1:25: floating literal out of range")
  list(GET CASE 0 NAME)
  list(GET CASE 1 DIAG)
  execute_process(COMMAND ${RPCC_BIN} ${WORK_DIR}/${NAME}.c --run
                  OUTPUT_VARIABLE OUT ERROR_VARIABLE ERR
                  RESULT_VARIABLE RC)
  if(NOT RC EQUAL 1)
    message(FATAL_ERROR "${NAME}.c: expected exit code 1, got ${RC}:\n"
                        "${OUT}\n${ERR}")
  endif()
  string(FIND "${OUT}${ERR}" "${DIAG}" AT)
  if(AT EQUAL -1)
    message(FATAL_ERROR "${NAME}.c: expected '${DIAG}':\n${OUT}\n${ERR}")
  endif()
endforeach()

execute_process(COMMAND ${RPCC_BIN} ${WORK_DIR}/max.c --run
                OUTPUT_VARIABLE OUT ERROR_VARIABLE ERR RESULT_VARIABLE RC)
if(NOT RC EQUAL 42)
  message(FATAL_ERROR "max.c: expected exit code 42, got ${RC}:\n"
                      "${OUT}\n${ERR}")
endif()
