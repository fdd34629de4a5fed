# The `hls.*` gauges of a --metrics-out report describe the design the
# run prints, not a design estimated along the way (a DSE run estimates
# the unoptimized baseline first). Runs `pomc gemm 128` through the
# DSE, through the ScaleHLS-like framework, and as a journal replay of
# the DSE's final point, and checks `hls.latency_cycles` and `hls.dsp`
# against each printed `report:` line. Invoked by ctest as:
#
#   cmake -DPOMC=<pomc> -DWORK_DIR=<dir> -P run_report_gauges.cmake
#
# Prints "GAUGES_OK" on success.

foreach(var POMC WORK_DIR)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "run_report_gauges.cmake: ${var} not set")
    endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# Gauge @p name of the metrics report at @p path, or "" when absent.
function(gauge out path name)
    file(READ "${path}" doc)
    string(JSON n LENGTH "${doc}" metrics)
    math(EXPR last "${n} - 1")
    set(${out} "" PARENT_SCOPE)
    foreach(i RANGE ${last})
        string(JSON entry GET "${doc}" metrics ${i} name)
        if(entry STREQUAL name)
            string(JSON value GET "${doc}" metrics ${i} value)
            set(${out} "${value}" PARENT_SCOPE)
        endif()
    endforeach()
endfunction()

function(check_run label)
    set(metrics "${WORK_DIR}/${label}.json")
    execute_process(COMMAND ${POMC} gemm 128 ${ARGN}
            --metrics-out "${metrics}"
        OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "${label}: pomc failed (rc=${rc}):\n${err}")
    endif()
    if(NOT out MATCHES "report: +latency=([0-9]+) cycles, DSP=([0-9]+)")
        message(FATAL_ERROR "${label}: no report line in:\n${out}")
    endif()
    set(latency "${CMAKE_MATCH_1}")
    set(dsp "${CMAKE_MATCH_2}")
    gauge(g_latency "${metrics}" hls.latency_cycles)
    gauge(g_dsp "${metrics}" hls.dsp)
    if(NOT g_latency STREQUAL latency OR NOT g_dsp STREQUAL dsp)
        message(FATAL_ERROR "${label}: report says latency=${latency} "
            "DSP=${dsp}, the metrics say hls.latency_cycles="
            "'${g_latency}' hls.dsp='${g_dsp}'")
    endif()
endfunction()

set(journal "${WORK_DIR}/journal.json")
check_run(dse --dse --dse-journal "${journal}")
check_run(scalehls --framework scalehls)

# Replay the final (highest-numbered) journaled point.
file(READ "${journal}" doc)
string(JSON n LENGTH "${doc}" events)
math(EXPR last "${n} - 1")
set(final 0)
foreach(i RANGE ${last})
    string(JSON kind GET "${doc}" events ${i} kind)
    if(kind STREQUAL "point")
        string(JSON final GET "${doc}" events ${i} point)
    endif()
endforeach()
check_run(replay --replay-journal "${journal}" --point ${final})

message("GAUGES_OK")
