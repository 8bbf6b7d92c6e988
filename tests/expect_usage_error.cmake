# Runs BENCH with the one argument ARG and passes only when it exits
# nonzero and its stderr names EXPECT — how a bench must answer a
# malformed option.
#
#   cmake -DBENCH=<binary> -DARG=--traces=-1 -DEXPECT=--traces \
#         -P tests/expect_usage_error.cmake
execute_process(COMMAND ${BENCH} ${ARG} RESULT_VARIABLE status
                OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(status EQUAL 0)
  message(FATAL_ERROR "${BENCH} ${ARG} exited 0, expected a usage error:\n"
                      "${out}")
endif()
string(FIND "${err}" "${EXPECT}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "${BENCH} ${ARG} exited ${status} without naming "
                      "${EXPECT} on stderr:\n${err}")
endif()
