# Drives the pom-trend regression gate end-to-end on synthetic
# pom-metrics/v1 reports, two per sweep (as if a sweep compiled two
# workloads). The gate must demonstrably gate: steady sweeps pass
# (exit 0), a slowed layer fails (exit 3) with a REGRESSION line that
# names that layer alone, and the rendered page is self-contained SVG.
# Invoked by ctest as:
#
#   cmake -DPOM_TREND=<binary> -DWORK_DIR=<scratch> -P run_trend_gate.cmake

if(NOT POM_TREND OR NOT WORK_DIR)
    message(FATAL_ERROR "need -DPOM_TREND=<binary> -DWORK_DIR=<dir>")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(history "${WORK_DIR}/history.ndjsonl")

# One synthetic compile's report. Per report: dependence analysis and
# the DSE total are timed layers (accumulators, seconds), dse.point_ms
# is a timed layer too (histogram, milliseconds); pass.wall_ms.build-ast
# sums to 20 ms per sweep, under the gate's 50 ms floor.
function(write_report path dep_s dse_s point_ms latency changed ast_ms)
    file(WRITE "${path}" "{\"schema\": \"pom-metrics/v1\", \"metrics\": [
  {\"name\": \"dep.analyses\", \"kind\": \"counter\", \"count\": 168, \"value\": 168},
  {\"name\": \"dep.analysis_seconds\", \"kind\": \"accumulator\", \"count\": 168, \"value\": ${dep_s}},
  {\"name\": \"dse.node_cache.misses\", \"kind\": \"counter\", \"count\": 300, \"value\": 300},
  {\"name\": \"dse.cache.misses\", \"kind\": \"counter\", \"count\": 150, \"value\": 150},
  {\"name\": \"dse.delta.changed_units\", \"kind\": \"counter\", \"count\": ${changed}, \"value\": ${changed}},
  {\"name\": \"dse.seconds\", \"kind\": \"accumulator\", \"count\": 1, \"value\": ${dse_s}},
  {\"name\": \"dse.frontier.size\", \"kind\": \"gauge\", \"count\": 9, \"value\": 4},
  {\"name\": \"hls.latency_cycles\", \"kind\": \"gauge\", \"count\": 1, \"value\": ${latency}},
  {\"name\": \"dse.point_ms\", \"kind\": \"histogram\", \"count\": 150, \"min\": 1, \"max\": 4, \"sum\": ${point_ms}, \"p50\": 2, \"p90\": 3, \"p99\": 4, \"buckets\": []},
  {\"name\": \"pass.wall_ms.build-ast\", \"kind\": \"histogram\", \"count\": 150, \"min\": 0.01, \"max\": 0.2, \"sum\": ${ast_ms}, \"p50\": 0.05, \"p90\": 0.1, \"p99\": 0.2, \"buckets\": []}
]}\n")
endfunction()

# A sweep of two reports; ${name}_a.json and ${name}_b.json.
function(write_sweep name dep_s dse_s point_ms latency changed ast_ms)
    write_report("${WORK_DIR}/${name}_a.json" ${dep_s} ${dse_s}
        ${point_ms} ${latency} ${changed} ${ast_ms})
    write_report("${WORK_DIR}/${name}_b.json" ${dep_s} ${dse_s}
        ${point_ms} ${latency} ${changed} ${ast_ms})
endfunction()

# Runs pom-trend and checks its exit code; leaves stderr in
# trend_stderr for the caller.
function(run_trend expect)
    execute_process(COMMAND ${POM_TREND} ${ARGN}
        RESULT_VARIABLE result
        OUTPUT_VARIABLE stdout ERROR_VARIABLE stderr)
    if(NOT result EQUAL ${expect})
        message(FATAL_ERROR "pom-trend ${ARGN}: expected exit ${expect}, "
            "got ${result}\nstdout:\n${stdout}\nstderr:\n${stderr}")
    endif()
    set(trend_stderr "${stderr}" PARENT_SCOPE)
endfunction()

function(sweep_args out name)
    set(${out} --metrics "${WORK_DIR}/${name}_a.json"
        --metrics "${WORK_DIR}/${name}_b.json" PARENT_SCOPE)
endfunction()

# 1. Five steady sweeps: mild wall-clock jitter, identical work.
set(deps 0.40 0.42 0.39 0.41 0.40)
set(i 0)
foreach(dep IN LISTS deps)
    math(EXPR i "${i} + 1")
    write_sweep("s${i}" ${dep} 0.60 300 500000 100 10)
    sweep_args(args "s${i}")
    run_trend(0 --history "${history}" ${args} --append --sha "sha${i}")
endforeach()

# 2. A steady sixth sweep passes the gate.
write_sweep(good 0.41 0.61 305 500000 100 10)
sweep_args(args good)
run_trend(0 --history "${history}" ${args} --check)

# 3. Dependence analysis +50% breaches the default 30% time threshold,
#    and the REGRESSION line names that layer and no other.
write_sweep(slow 0.60 0.60 300 500000 100 10)
sweep_args(slow_args slow)
run_trend(3 --history "${history}" ${slow_args} --check)
string(REGEX MATCHALL "REGRESSION [^:]*" lines "${trend_stderr}")
if(NOT lines STREQUAL "REGRESSION dep.analysis_seconds")
    message(FATAL_ERROR "expected one REGRESSION line, for "
        "dep.analysis_seconds; got '${lines}':\n${trend_stderr}")
endif()

# 4. The loose CI threshold (150%) tolerates the same sweep.
run_trend(0 --history "${history}" ${slow_args} --check --threshold 1.5)

# 5. +5% summed latency breaches the 2% deterministic threshold.
write_sweep(qor 0.40 0.60 300 525000 100 10)
sweep_args(args qor)
run_trend(3 --history "${history}" ${args} --check)

# 6. Plotted-only series never gate: a doubled counter outside the
#    deterministic set, and a tripled time series under the 50 ms floor.
write_sweep(plotted 0.40 0.60 300 500000 200 30)
sweep_args(args plotted)
run_trend(0 --history "${history}" ${args} --check)

# 7. --append --check in one invocation: the record lands in the
#    history AND the gate still fails -- the CI calling convention.
write_sweep(bad 0.40 0.60 300 540000 100 10)
sweep_args(args bad)
run_trend(3 --history "${history}" ${args} --append --check
    --sha shaBad --html "${WORK_DIR}/trend.html")
file(STRINGS "${history}" records)
list(LENGTH records n)
if(NOT n EQUAL 6)
    message(FATAL_ERROR "expected 6 history records after appends, got ${n}")
endif()

# 8. The page is self-contained: inline SVG, no script tags.
file(READ "${WORK_DIR}/trend.html" html)
if(NOT html MATCHES "<svg ")
    message(FATAL_ERROR "trend.html has no inline SVG")
endif()
if(html MATCHES "<script")
    message(FATAL_ERROR "trend.html must not reference scripts")
endif()
if(NOT html MATCHES "shaBad")
    message(FATAL_ERROR "trend.html must include the appended record")
endif()

# 9. Usage and I/O errors use distinct exit codes.
run_trend(2)                                         # no --history
run_trend(2 --history "${history}" ${slow_args} --check
    --threshold abc)                                 # not a number
run_trend(2 --history "${history}" --bench x)        # no such flag
run_trend(2 --history "${history}" --append)         # nothing to fold
run_trend(1 --history "${history}"
    --metrics "${WORK_DIR}/missing.json" --check)    # unreadable report

# 10. A value that is not a number is a parse error naming the file and
#     the field, never a silent 0 in a gated sum: in a report, and in a
#     history record's series.
write_sweep(strval "\"0.40\"" 0.60 300 500000 100 10)
sweep_args(args strval)
run_trend(1 --history "${history}" ${args} --check)
if(NOT trend_stderr MATCHES "strval_a.json: field 'value' must be a finite number")
    message(FATAL_ERROR "expected an error naming the report and 'value', "
        "got:\n${trend_stderr}")
endif()
set(bad_history "${WORK_DIR}/bad_history.ndjsonl")
file(WRITE "${bad_history}" "{\"schema\": \"pom-perf-trend/v1\", \"sha\": \"x\", \"series\": {\"dep.analyses\": \"168\"}}\n")
sweep_args(args good)
run_trend(1 --history "${bad_history}" ${args} --check)
if(NOT trend_stderr MATCHES "bad_history.ndjsonl:1: field 'dep.analyses' must be a finite number")
    message(FATAL_ERROR "expected an error naming the history line and "
        "the series, got:\n${trend_stderr}")
endif()

message(STATUS "pom-trend gate behaves: clean=0, regression=3")
