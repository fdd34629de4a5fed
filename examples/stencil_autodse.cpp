/**
 * @file
 * The paper's Fig. 16 case study: Jacobi-1d described with the POM DSL.
 *
 * Two computes share the time loop via `after` (Fig. 16 (2)). A user
 * with FPGA expertise could specify primitives directly (Fig. 16 (3));
 * here we use the autoDSE primitive (Fig. 16 (4)) and let the two-stage
 * engine pick the schedule, then print the search's journaled
 * decisions, the chosen design and its report.
 *
 * Build and run:  ./build/examples/stencil_autodse
 */

#include <cstdio>

#include "driver/compiler.h"
#include "dse/dse.h"
#include "dsl/dsl.h"

int
main()
{
    using namespace pom::dsl;

    const std::int64_t n = 1024, steps = 64;
    pom::dsl::Function f("jacobi1d");
    Var t("t", 0, steps), i("i", 1, n - 1), i2("i2", 1, n - 1);
    Placeholder A(f, "A", {n}, ScalarKind::F32);
    Placeholder B(f, "B", {n}, ScalarKind::F32);

    // (1) algorithm: B[i] = (A[i-1] + A[i] + A[i+1]) / 3;  A[i] = B[i]
    Compute s1(f, "s1", {t, i}, (A(i - 1) + A(i) + A(i + 1)) / 3.0,
               B(i));
    Compute s2(f, "s2", {t, i2}, B(i2), A(i2));

    // (2) the time loop is shared: s2 runs after s1 inside each t.
    s2.after(s1, t);

    // (4) let POM search the schedule automatically.
    f.autoDSE();

    pom::dse::DseResult result = pom::dse::autoDSE(f);

    std::printf("---- DSE decisions ----\n");
    for (const auto &e : result.journal) {
        if (e.kind == "point") {
            std::printf("  [%s] point %d %s (%s): latency=%llu, %s\n",
                        e.phase.c_str(), e.point, e.verdict.c_str(),
                        e.reason.c_str(),
                        static_cast<unsigned long long>(e.latencyCycles),
                        e.primitives.c_str());
        } else {
            std::printf("  [%s] %s\n", e.phase.c_str(), e.detail.c_str());
        }
    }
    std::printf("\n---- chosen polyhedral AST ----\n%s\n",
                result.design->lowered.astRoot->str().c_str());
    std::printf("---- report ----\n%s\n",
                result.report.str(pom::hls::Device::xc7z020()).c_str());
    std::printf("speedup: %.1fx, DSE time: %.2fs, points explored: %d\n",
                result.speedup(), result.dseSeconds,
                result.pointsExplored);
    return 0;
}
