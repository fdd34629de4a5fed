/**
 * @file
 * Reproduces Table VI: the tile sizes, achieved II, and parallelism of
 * the critical loops in the image-processing applications, for
 * ScaleHLS-like and POM.
 */

#include <cstdio>

#include "bench_util.h"

using namespace pom;

int
main()
{
    const std::int64_t n = 4096;
    const char *apps[] = {"edgedetect", "gaussian", "blur"};

    std::printf("=== Table VI: critical-loop optimization (N=%lld) "
                "===\n\n",
                static_cast<long long>(n));
    std::printf("%-11s %-9s %-22s %-10s %10s\n", "Benchmark",
                "Framework", "Tile sizes", "Achieved II", "Parallelism");

    for (const char *name : apps) {
        auto w_sc = workloads::makeByName(name, n);
        auto sc = baselines::runScaleHlsLike(w_sc->func());
        auto w_pom = workloads::makeByName(name, n);
        auto pom = baselines::runPom(w_pom->func());

        std::printf("%-11s %-9s %-22s %-10s %10.1f\n", name, "ScaleHLS",
                    benchutil::tileShape(sc.design->lowered).c_str(),
                    benchutil::iiCell(sc.report).c_str(),
                    benchutil::parallelismDegree(sc.design->lowered,
                                                 sc.report));
        std::printf("%-11s %-9s %-22s %-10s %10.1f\n", name, "POM",
                    benchutil::tileShape(pom.design->lowered).c_str(),
                    benchutil::iiCell(pom.report).c_str(),
                    benchutil::parallelismDegree(pom.design->lowered,
                                                 pom.report));
    }

    std::printf("\nExpected shape (paper Table VI): POM reaches II=1 and "
                "a higher parallelism\ndegree on every kernel.\n");
    return 0;
}
