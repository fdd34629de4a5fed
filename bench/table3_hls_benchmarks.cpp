/**
 * @file
 * Reproduces Table III: POLSCA-like, ScaleHLS-like and POM on the
 * typical HLS benchmarks (GEMM, BICG, GESUMMV, 2MM, 3MM) at problem
 * size 4096 -- speedup, resource utilization, power, achieved II,
 * tile/unroll shape, parallelism degree, and DSE time.
 */

#include <cstdio>

#include "bench_util.h"

using namespace pom;

int
main()
{
    const std::int64_t n = 4096;
    const auto device = hls::Device::xc7z020();
    const char *benchmarks[] = {"gemm", "bicg", "gesummv", "2mm", "3mm"};

    std::printf("=== Table III: typical HLS benchmarks (N=%lld) ===\n\n",
                static_cast<long long>(n));
    std::printf("%-8s %-9s %9s %11s %13s %13s %7s %-8s %-24s %7s %8s\n",
                "Bench", "Framework", "Speedup", "DSP(Util%)",
                "FF(Util%)", "LUT(Util%)", "Power", "II",
                "Tiles/unrolls", "Paral.", "DSE(s)");

    for (const char *name : benchmarks) {
        auto base_w = workloads::makeByName(name, n);
        auto base = baselines::runUnoptimized(base_w->func());

        struct Row
        {
            const char *fw;
            baselines::BaselineResult r;
        };
        std::vector<Row> rows;
        {
            auto w = workloads::makeByName(name, n);
            rows.push_back({"POLSCA",
                            baselines::runPolscaLike(w->func())});
        }
        {
            auto w = workloads::makeByName(name, n);
            rows.push_back({"ScaleHLS",
                            baselines::runScaleHlsLike(w->func())});
        }
        {
            auto w = workloads::makeByName(name, n);
            rows.push_back({"POM", baselines::runPom(w->func())});
        }

        for (const auto &row : rows) {
            const auto &rep = row.r.report;
            std::printf(
                "%-8s %-9s %9s %11s %13s %13s %6.2fW %-8s %-24s %7.1f "
                "%8.2f\n",
                name, row.fw,
                benchutil::speedupCell(rep.speedupOver(base.report))
                    .c_str(),
                benchutil::util(rep.resources.dsp, device.dsp).c_str(),
                benchutil::util(rep.resources.ff, device.ff).c_str(),
                benchutil::util(rep.resources.lut, device.lut).c_str(),
                rep.powerW, benchutil::iiCell(rep).c_str(),
                benchutil::tileShape(row.r.design->lowered).c_str(),
                benchutil::parallelismDegree(row.r.design->lowered, rep),
                row.r.seconds);
        }
        std::printf("\n");
    }

    std::printf("Expected shape (paper): POLSCA ~2x from pipelining with "
                "unresolved dependences;\nScaleHLS strong on GEMM/GESUMMV "
                "but II-limited on BICG and under-optimized on 2MM/3MM;\n"
                "POM II=1-2 everywhere with ~[1,2,16]-shaped unrolls and "
                "the shortest DSE times.\n");
    return 0;
}
