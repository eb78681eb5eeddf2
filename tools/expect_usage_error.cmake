# Run CMD with the space-separated ARGS; pass iff it exits with status 2 and
# prints its usage text on stderr.
#   cmake -DCMD=<binary> "-DARGS=<flags>" -P expect_usage_error.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${CMD}" ${args}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "${CMD} ${ARGS}: expected exit status 2, got ${rc}\n"
                      "${out}${err}")
endif()
if(NOT err MATCHES "usage:")
  message(FATAL_ERROR "${CMD} ${ARGS}: no usage text on stderr\n${err}")
endif()
