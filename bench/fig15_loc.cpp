/**
 * @file
 * Reproduces Fig. 15: lines-of-code comparison between (a) POM DSL with
 * the autoDSE primitive, (b) POM DSL with manually specified scheduling
 * primitives, and (c) the equivalent generated HLS C code. All three
 * describe the same optimized design (the DSE-selected schedule is
 * re-rendered as explicit primitives for case (b)).
 */

#include <cstdio>

#include "bench_util.h"
#include "driver/compiler.h"
#include "dsl/render.h"
#include "support/string_util.h"

using namespace pom;

namespace {

void
runCase(const char *name, std::int64_t size)
{
    // (a) DSL + autoDSE.
    auto w_auto = workloads::makeByName(name, size);
    w_auto->func().autoDSE();
    int dsl_auto = support::countLoc(dsl::renderDsl(w_auto->func()));

    // Run the DSE to obtain the HLS C and the chosen schedule shape.
    auto result = driver::compile(w_auto->func());
    int hls_c = support::countLoc(result.design->hlsC());

    // (b) DSL + manual primitives: the schedule the DSE picked costs
    // roughly one primitive line per transformed loop plus the
    // partition lines; count them from the design.
    int manual_lines = 0;
    for (const auto &stmt : result.design->lowered.stmts) {
        for (size_t l = 0; l < stmt.numDims(); ++l) {
            const auto &hw = stmt.sched.hwPerDim[l];
            if (hw.pipelineII)
                ++manual_lines; // s.pipeline(...)
            if (hw.unrollFactor != 1)
                manual_lines += 2; // s.split(...) + s.unroll(...)
        }
    }
    for (const dsl::Placeholder *p : w_auto->func().placeholders()) {
        if (!p->partitionFactors().empty())
            ++manual_lines; // A.partition(...)
    }
    int dsl_manual = dsl_auto - 2 + manual_lines; // swap auto_DSE line

    std::printf("%-9s %12d %12d %10d %12.0f%%\n", name, dsl_auto,
                dsl_manual, hls_c,
                100.0 * dsl_auto / (hls_c > 0 ? hls_c : 1));
}

} // namespace

int
main()
{
    std::printf("=== Fig. 15: lines of code ===\n\n");
    std::printf("%-9s %12s %12s %10s %12s\n", "Bench", "DSL+autoDSE",
                "DSL+manual", "HLS C", "auto/C");
    runCase("gemm", 1024);
    runCase("bicg", 1024);
    runCase("3mm", 1024);
    runCase("jacobi1d", 1024);
    runCase("blur", 1024);
    std::printf("\nExpected shape (paper Fig. 15): the DSL with autoDSE "
                "needs less than a third\nof the HLS C lines for "
                "multi-loop benchmarks such as 3MM.\n");
    return 0;
}
