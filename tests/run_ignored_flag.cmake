# Runs `${TOOL} ${ARGS}` (ARGS: one space-separated string) in an empty
# ${WORK_DIR} and passes when the tool refuses a flag the run would
# ignore: exit 2, a message that names ${FLAG}, and no file written.
separate_arguments(args UNIX_COMMAND "${ARGS}")
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
execute_process(
    COMMAND ${TOOL} ${args}
    WORKING_DIRECTORY "${WORK_DIR}"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    TIMEOUT 60)
if(NOT rc EQUAL 2)
    message(FATAL_ERROR "${ARGS}: expected exit 2, got ${rc}\n${out}${err}")
endif()
string(FIND "${err}" "${FLAG}" at)
if(at EQUAL -1)
    message(FATAL_ERROR "${ARGS}: message does not name ${FLAG}:\n${err}")
endif()
file(GLOB written "${WORK_DIR}/*")
if(written)
    message(FATAL_ERROR "${ARGS}: wrote ${written}")
endif()
message("${err}IGNORED_FLAG_REJECTED")
