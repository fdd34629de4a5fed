# Negative regression test for the node-cache spill (nodes.index +
# nodes/): generate a real spill with `pomc gemm 32 --dse --emit
# --cache-dir`, damage it in a controlled way, and check the warm run
# degrades exactly as documented.
#
#   cmake -DPOMC=<pomc> -DWORK_DIR=<dir>
#         -DCASE=corrupt|truncated|version|fifo -P run_badcache.cmake
#
# CASE=corrupt    flip one byte inside a spilled object: the warm run
#                 must skip the entry with a warning, exit 0 and print
#                 the cold run's report and HLS C.
# CASE=truncated  keep only the first half of an object: same contract.
# CASE=version    stamp the index with a stale version: the warm run
#                 must fail cleanly with a format/version mismatch.
# CASE=fifo       replace the index with a FIFO that has no writer: the
#                 warm run must not block opening it, but fail cleanly
#                 with an error that names the index.
#
# Stdout is compared without the `toolchain:` line (wall-clock) and the
# `cache:` line (hit/miss counts differ between a cold and a warm run).
# Prints "BADCACHE_OK: <case>" on success; the ctest registration keys
# its PASS_REGULAR_EXPRESSION on that marker.

foreach(var POMC WORK_DIR CASE)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "run_badcache.cmake: ${var} not set")
    endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(cache_dir "${WORK_DIR}/cache")

set(run_args gemm 32 --dse --emit --jobs 1 --cache-dir "${cache_dir}")

# Cold run: populates ${cache_dir} with nodes.index + nodes/.
execute_process(
    COMMAND ${POMC} ${run_args}
    OUTPUT_VARIABLE cold_out
    ERROR_VARIABLE cold_err
    RESULT_VARIABLE cold_rc)
if(NOT cold_rc EQUAL 0)
    message(FATAL_ERROR "cold pomc run failed (rc=${cold_rc}):\n${cold_err}")
endif()
if(NOT EXISTS "${cache_dir}/nodes.index")
    message(FATAL_ERROR "cold run produced no ${cache_dir}/nodes.index")
endif()

# Damage the spill according to CASE.
if(CASE STREQUAL "fifo")
    file(REMOVE "${cache_dir}/nodes.index")
    execute_process(COMMAND mkfifo "${cache_dir}/nodes.index"
        RESULT_VARIABLE fifo_rc)
    if(NOT fifo_rc EQUAL 0)
        message(FATAL_ERROR "mkfifo failed (rc=${fifo_rc})")
    endif()
elseif(CASE STREQUAL "version")
    file(READ "${cache_dir}/nodes.index" index_text)
    string(FIND "${index_text}" "\n" eol)
    string(SUBSTRING "${index_text}" ${eol} -1 index_rest)
    file(WRITE "${cache_dir}/nodes.index"
         "pom-node-cache/1 0.0.0${index_rest}")
else()
    file(GLOB objects "${cache_dir}/nodes/*")
    list(LENGTH objects count)
    if(count EQUAL 0)
        message(FATAL_ERROR "cold run spilled no objects")
    endif()
    list(GET objects 0 victim)
    file(READ "${victim}" object_text)
    string(LENGTH "${object_text}" len)
    math(EXPR mid "${len} / 2")
    string(SUBSTRING "${object_text}" 0 ${mid} head)
    if(CASE STREQUAL "corrupt")
        math(EXPR after "${mid} + 1")
        string(SUBSTRING "${object_text}" ${mid} 1 orig)
        if(orig STREQUAL "#")
            set(flip "!")
        else()
            set(flip "#")
        endif()
        string(SUBSTRING "${object_text}" ${after} -1 tail)
        file(WRITE "${victim}" "${head}${flip}${tail}")
    elseif(CASE STREQUAL "truncated")
        file(WRITE "${victim}" "${head}")
    else()
        message(FATAL_ERROR "unknown CASE '${CASE}'")
    endif()
endif()

# Warm run against the damaged spill; a blocked open is a failure, not
# a hang.
execute_process(
    COMMAND ${POMC} ${run_args}
    OUTPUT_VARIABLE warm_out
    ERROR_VARIABLE warm_err
    RESULT_VARIABLE warm_rc
    TIMEOUT 20)

if(CASE STREQUAL "fifo")
    if(warm_rc EQUAL 0 OR NOT warm_rc MATCHES "^[0-9]+$")
        message(FATAL_ERROR
            "a FIFO index must be a clean load error (rc=${warm_rc})")
    endif()
    if(NOT warm_err MATCHES "nodes.index' is not a readable regular file")
        message(FATAL_ERROR
            "expected an error naming the index, got:\n${warm_err}")
    endif()
elseif(CASE STREQUAL "version")
    if(warm_rc EQUAL 0)
        message(FATAL_ERROR
            "stale index version was accepted; expected a clean failure")
    endif()
    if(NOT warm_err MATCHES "format/version mismatch")
        message(FATAL_ERROR
            "expected a format/version mismatch diagnostic, got:\n${warm_err}")
    endif()
else()
    if(NOT warm_rc EQUAL 0)
        message(FATAL_ERROR
            "warm run must survive a ${CASE} object (rc=${warm_rc}):\n${warm_err}")
    endif()
    if(NOT warm_err MATCHES "skipped")
        message(FATAL_ERROR
            "expected a skip warning for the ${CASE} object, got:\n${warm_err}")
    endif()
    set(varying "(^|\n)(toolchain|cache): [^\n]*")
    string(REGEX REPLACE "${varying}" "" cold_stable "${cold_out}")
    string(REGEX REPLACE "${varying}" "" warm_stable "${warm_out}")
    if(NOT warm_stable STREQUAL cold_stable)
        message(FATAL_ERROR
            "warm stdout differs from cold stdout after a ${CASE} object")
    endif()
endif()

message(STATUS "BADCACHE_OK: ${CASE}")
