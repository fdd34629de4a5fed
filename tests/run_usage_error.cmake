# Runs `${TOOL} ${FLAG} ${VALUE} --version` and passes when the tool
# exits 2 with a message that names ${FLAG}. The trailing --version
# makes a wrongly accepted value exit 0 at once instead of starting a
# daemon.
execute_process(
    COMMAND ${TOOL} ${FLAG} ${VALUE} --version
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
    message(FATAL_ERROR
        "${FLAG} '${VALUE}': expected exit 2, got ${rc}\n${out}${err}")
endif()
string(FIND "${err}" "${FLAG}" at)
if(at EQUAL -1)
    message(FATAL_ERROR "${FLAG} '${VALUE}': message does not name the "
        "flag:\n${err}")
endif()
# The tool's message too, for a ctest that pins its text.
message("${err}USAGE_ERROR_OK")
