/**
 * @file
 * pom-opt — the textual-IR pass driver (the MLIR `mlir-opt` analogue).
 *
 * Usage:
 *   pom-opt [file.pom-ir|-] [--pass-pipeline=SPEC] [-o FILE]
 *           [--verify-each] [--dump-after] [--timing] [--list-passes]
 *           [--jobs N] [--trace-out FILE] [--metrics-out FILE]
 *           [--quiet|-q] [--verbose|-v]
 *
 * Reads a `.pom-ir` module (from a file, or stdin with `-`/no input),
 * parses it, runs the requested pass pipeline over it, and prints the
 * resulting IR. With no pipeline the tool just round-trips the input,
 * which is itself a useful check: the printer guarantees
 * print(parse(print(f))) == print(f).
 *
 * SPEC is a comma-separated pass list with optional per-pass options,
 * e.g. "verify,strip-hls" or "schedule-apply{ordering-only=true}".
 * Front-end lowering passes (extract-stmts, ...) are registered too but
 * need a DSL function, so they reject textual-IR input with a clear
 * error.
 *
 * --trace-out / --metrics-out (or the POM_TRACE environment variable)
 * write the per-pass Chrome trace and the flat metrics JSON from the
 * src/obs layer; -q/--quiet and -v/--verbose set the diagnostic level.
 *
 * Examples:
 *   pom-opt design.pom-ir --pass-pipeline=verify,strip-hls
 *   pomc gemm --dse --emit | ...                (generate IR elsewhere)
 *   pom-opt - < design.pom-ir
 *   pom-opt design.pom-ir --pass-pipeline=verify --trace-out t.json
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "ir/parser.h"
#include "lower/lower.h"
#include "obs/obs.h"
#include "pass/pass_manager.h"
#include "support/diagnostics.h"
#include "support/string_util.h"
#include "support/thread_pool.h"

using namespace pom;

namespace {

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [file.pom-ir|-] [--pass-pipeline=SPEC] "
                 "[-o FILE] [--verify-each] [--dump-after] [--timing] "
                 "[--jobs N] [--trace-out FILE] [--metrics-out FILE] "
                 "[--quiet|-q] [--verbose|-v]\n"
                 "       %s --list-passes\n",
                 argv0, argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string input_path = "-";
    bool input_set = false;
    std::string output_path;
    std::string pipeline;
    bool verify_each = false, dump_after = false, want_timing = false;
    bool list_passes = false;
    std::string trace_out = obs::traceEnvPath();
    std::string metrics_out;

    for (int a = 1; a < argc; ++a) {
        std::string arg = argv[a];
        if (arg == "--list-passes") {
            list_passes = true;
        } else if (arg == "--trace-out" && a + 1 < argc) {
            trace_out = argv[++a];
        } else if (arg == "--metrics-out" && a + 1 < argc) {
            metrics_out = argv[++a];
        } else if (arg == "--quiet" || arg == "-q") {
            support::setDiagLevel(support::DiagLevel::Error);
        } else if (arg == "--verbose" || arg == "-v") {
            support::setDiagLevel(support::DiagLevel::Debug);
        } else if (arg.rfind("--pass-pipeline=", 0) == 0) {
            pipeline = arg.substr(std::strlen("--pass-pipeline="));
        } else if (arg == "--pass-pipeline" && a + 1 < argc) {
            pipeline = argv[++a];
        } else if (arg == "-o" && a + 1 < argc) {
            output_path = argv[++a];
        } else if (arg == "--verify-each") {
            verify_each = true;
        } else if (arg == "--dump-after") {
            dump_after = true;
        } else if (arg == "--timing") {
            want_timing = true;
        } else if (arg == "--jobs" && a + 1 < argc) {
            // Worker threads for any parallel phase a pass may start
            // (equivalent to POM_JOBS=N).
            std::int64_t n = 0;
            if (!support::parseInt64(argv[++a], n) || n < 1 || n > 256) {
                std::fprintf(stderr, "pom-opt: --jobs expects a worker "
                                     "count in [1, 256], got '%s'\n",
                             argv[a]);
                return 2;
            }
            support::setJobs(static_cast<int>(n));
        } else if (arg == "-" || arg[0] != '-') {
            if (input_set)
                return usage(argv[0]);
            input_path = arg;
            input_set = true;
        } else {
            return usage(argv[0]);
        }
    }

    if (!trace_out.empty())
        obs::setTracingEnabled(true);
    if (!metrics_out.empty())
        obs::setMetricsEnabled(true);

    // Writes the requested observability files on every exit path once
    // all spans have closed.
    struct ObsFlusher
    {
        std::string trace, metrics;

        ~ObsFlusher()
        {
            if (!trace.empty() &&
                !obs::writeFile(trace, obs::chromeTraceJson())) {
                std::fprintf(stderr, "pom-opt: cannot write '%s'\n",
                             trace.c_str());
            }
            if (!metrics.empty() &&
                !obs::writeFile(metrics, obs::metricsJson())) {
                std::fprintf(stderr, "pom-opt: cannot write '%s'\n",
                             metrics.c_str());
            }
        }
    } flusher{trace_out, metrics_out};

    lower::registerLoweringPasses();

    if (list_passes) {
        for (const auto &[name, desc] :
             pass::PassRegistry::instance().list())
            std::printf("%-18s %s\n", name.c_str(), desc.c_str());
        return 0;
    }

    std::string source;
    if (input_path == "-") {
        std::ostringstream buffer;
        buffer << std::cin.rdbuf();
        source = buffer.str();
    } else {
        std::ifstream in(input_path);
        if (!in) {
            std::fprintf(stderr, "pom-opt: cannot open '%s'\n",
                         input_path.c_str());
            return 1;
        }
        std::ostringstream buffer;
        buffer << in.rdbuf();
        source = buffer.str();
    }

    try {
        pass::PipelineState state;
        state.func = ir::parseIr(source);

        pass::PassManagerOptions options;
        options.verifyAfterEach = verify_each;
        options.dumpAfterEach = dump_after;
        pass::PassManager pm(options);
        if (!pipeline.empty())
            pm.addPipeline(pipeline);
        pm.run(state);

        std::string printed = state.func ? state.func->str() : "";
        if (output_path.empty()) {
            std::fputs(printed.c_str(), stdout);
        } else {
            std::ofstream out(output_path);
            if (!out) {
                std::fprintf(stderr, "pom-opt: cannot write '%s'\n",
                             output_path.c_str());
                return 1;
            }
            out << printed;
        }
        if (want_timing)
            std::fputs(pm.timingReport().c_str(), stderr);
        return 0;
    } catch (const support::FatalError &e) {
        std::fprintf(stderr, "pom-opt: %s\n", e.what());
        return 1;
    }
}
