# Runs `${TOOL} ${FLAG} ${VALUE} --version` and passes when the tool
# accepts the value: exit 0 and the version line on stdout.
execute_process(
    COMMAND ${TOOL} ${FLAG} ${VALUE} --version
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR
        "${FLAG} '${VALUE}': expected exit 0, got ${rc}\n${out}${err}")
endif()
if(NOT out MATCHES "^[a-z]+ [0-9]+\\.[0-9]+\\.[0-9]+ \\(protocol ")
    message(FATAL_ERROR "${FLAG} '${VALUE}': no version line:\n${out}")
endif()
message("FLAG_ACCEPTED_OK")
