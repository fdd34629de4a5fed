/**
 * @file
 * Reproduces Fig. 11: 2MM speedup and resource utilization under varying
 * resource constraints (25% / 50% / 75% / 100% of the XC7Z020 budget)
 * for ScaleHLS-like and POM.
 */

#include <cstdio>

#include "bench_util.h"

using namespace pom;

int
main()
{
    const std::int64_t n = 4096;
    const double fractions[] = {0.25, 0.5, 0.75, 1.0};

    std::printf("=== Fig. 11: 2MM under resource constraints (N=%lld) "
                "===\n\n",
                static_cast<long long>(n));
    std::printf("%-10s %-9s %9s %11s %13s %13s\n", "Constraint",
                "Framework", "Speedup", "DSP(Util%)", "FF(Util%)",
                "LUT(Util%)");

    auto base_w = workloads::make2mm(n);
    auto base = baselines::runUnoptimized(base_w->func());

    for (double fraction : fractions) {
        dse::DseOptions opt;
        opt.resourceFraction = fraction;
        const hls::Device budget = opt.budget();

        auto w_sc = workloads::make2mm(n);
        auto sc = baselines::runScaleHlsLike(w_sc->func(), opt);
        auto w_pom = workloads::make2mm(n);
        auto pom = baselines::runPom(w_pom->func(), opt);

        for (const auto &[fw, r] :
             {std::pair<const char *, const baselines::BaselineResult *>{
                  "ScaleHLS", &sc},
              {"POM", &pom}}) {
            std::printf("%-10.0f%% %-8s %9s %11s %13s %13s\n",
                        fraction * 100, fw,
                        benchutil::speedupCell(
                            r->report.speedupOver(base.report))
                            .c_str(),
                        benchutil::util(r->report.resources.dsp,
                                        budget.dsp)
                            .c_str(),
                        benchutil::util(r->report.resources.ff, budget.ff)
                            .c_str(),
                        benchutil::util(r->report.resources.lut,
                                        budget.lut)
                            .c_str());
        }
    }

    std::printf("\nExpected shape (paper Fig. 11): POM dominates at every "
                "constraint level and\nits speedup scales with the "
                "budget.\n");
    return 0;
}
