# Source nesting must end in a compile error, not a stack overflow: 10,000
# nested parentheses, and a 40,000-term sum (a left-deep AST that Sema and
# Lowering would recurse down), each exit 1 with one line:col diagnostic.
#
# Invoked by ctest as:
#   cmake -DRPCC_BIN=<path-to-rpcc> -DWORK_DIR=<dir> -P DeepNesting.cmake

if(NOT RPCC_BIN OR NOT WORK_DIR)
  message(FATAL_ERROR "RPCC_BIN and WORK_DIR must be set")
endif()
file(MAKE_DIRECTORY ${WORK_DIR})

string(REPEAT "(" 10000 OPEN)
string(REPEAT ")" 10000 CLOSE)
file(WRITE ${WORK_DIR}/parens.c "int main(){return ${OPEN}1${CLOSE};}\n")
string(REPEAT "1+" 39999 TERMS)
file(WRITE ${WORK_DIR}/sum.c "int main(){return ${TERMS}1;}\n")

foreach(NAME parens sum)
  execute_process(COMMAND ${RPCC_BIN} ${WORK_DIR}/${NAME}.c --run
                  OUTPUT_VARIABLE OUT ERROR_VARIABLE ERR
                  RESULT_VARIABLE RC)
  if(NOT RC EQUAL 1)
    message(FATAL_ERROR "${NAME}.c: expected exit code 1, got ${RC}:\n"
                        "${OUT}\n${ERR}")
  endif()
  if(NOT "${OUT}${ERR}" MATCHES "1:[0-9]+: nesting too deep")
    message(FATAL_ERROR "${NAME}.c: no line:col nesting diagnostic:\n"
                        "${OUT}\n${ERR}")
  endif()
endforeach()
