/**
 * @file
 * Reproduces Fig. 2: the BICG motivating example. Compares latency and
 * speedup of the baseline, Pluto-like, POLSCA-like, ScaleHLS-like and
 * POM designs, and shows the achieved initiation intervals (the paper
 * reports POLSCA II=167, ScaleHLS II=43, POM II=2).
 */

#include <cstdio>

#include "bench_util.h"

using namespace pom;

int
main()
{
    const std::int64_t n = 4096;
    std::printf("=== Fig. 2: motivating example (BICG, N=%lld) ===\n\n",
                static_cast<long long>(n));

    auto base_w = workloads::makeBicg(n);
    auto base = baselines::runUnoptimized(base_w->func());

    struct Row
    {
        const char *name;
        baselines::BaselineResult result;
    };
    std::vector<Row> rows;
    {
        auto w = workloads::makeBicg(n);
        rows.push_back({"Baseline", baselines::runUnoptimized(w->func())});
    }
    {
        auto w = workloads::makeBicg(n);
        rows.push_back({"Pluto", baselines::runPlutoLike(w->func())});
    }
    {
        auto w = workloads::makeBicg(n);
        rows.push_back({"POLSCA", baselines::runPolscaLike(w->func())});
    }
    {
        auto w = workloads::makeBicg(n);
        rows.push_back({"ScaleHLS", baselines::runScaleHlsLike(w->func())});
    }
    {
        auto w = workloads::makeBicg(n);
        rows.push_back({"POM", baselines::runPom(w->func())});
    }

    std::printf("%-10s %16s %10s %8s\n", "Framework", "Latency (cycles)",
                "Speedup", "II");
    for (const auto &row : rows) {
        std::printf("%-10s %16llu %10s %8s\n", row.name,
                    static_cast<unsigned long long>(
                        row.result.report.latencyCycles),
                    benchutil::speedupCell(
                        row.result.report.speedupOver(base.report))
                        .c_str(),
                    benchutil::iiCell(row.result.report).c_str());
    }

    std::printf("\nExpected shape (paper): Pluto ~ baseline; POLSCA a "
                "small constant factor;\nScaleHLS limited by the II it "
                "cannot reduce for both statements;\nPOM pipelines at "
                "II=1-2 via split-interchange-merge.\n");
    return 0;
}
