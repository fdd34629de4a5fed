/**
 * @file
 * Reproduces Fig. 13: accumulated resource usage across the critical
 * loops of the DNN workloads. POM executes layers sequentially and
 * reuses hardware between them (the accumulated curve flattens at the
 * largest single layer), while the ScaleHLS-like dataflow instantiates
 * each layer separately (the curve keeps climbing and overshoots the
 * device budget).
 */

#include <cstdio>

#include "bench_util.h"
#include "lower/lower.h"

using namespace pom;

namespace {

void
runModel(const char *name, std::int64_t size)
{
    const auto device = hls::Device::xc7z020();
    std::printf("-- %s --\n", name);
    std::printf("%-6s %-14s | %11s %11s | %11s %11s\n", "Loop", "Nest",
                "POM DSP", "POM LUT", "SC DSP", "SC LUT");

    auto w_pom = workloads::makeByName(name, size);
    auto pom = baselines::runPom(w_pom->func());
    auto w_sc = workloads::makeByName(name, size);
    auto sc = baselines::runScaleHlsLike(w_sc->func());

    // Accumulate per-nest resources in program order: POM reuses (the
    // running max), ScaleHLS's dataflow accumulates (the running sum).
    // Per-nest resources are re-estimated from each design one nest at
    // a time.
    auto perNest = [&](const baselines::BaselineResult &r,
                       dsl::Function &func) {
        std::vector<hls::Resources> out;
        for (const auto &stmt : r.design->lowered.stmts) {
            std::vector<transform::PolyStmt> single = {stmt};
            single[0].sched.betas[0] = 0;
            auto lowered = lower::lowerStmts(func, std::move(single));
            auto rep = hls::estimate(func, lowered);
            out.push_back(rep.resources);
        }
        return out;
    };

    auto pom_res = perNest(pom, w_pom->func());
    auto sc_res = perNest(sc, w_sc->func());

    hls::Resources pom_acc, sc_acc;
    size_t loops = std::min(pom_res.size(), sc_res.size());
    for (size_t l = 0; l < loops; ++l) {
        pom_acc = hls::Resources::max(pom_acc, pom_res[l]);
        sc_acc += sc_res[l];
        std::printf("%-6zu %-14s | %11s %11s | %11s %11s%s\n", l + 1,
                    pom.design->lowered.stmts[l].sched.name.c_str(),
                    benchutil::util(pom_acc.dsp, device.dsp).c_str(),
                    benchutil::util(pom_acc.lut, device.lut).c_str(),
                    benchutil::util(sc_acc.dsp, device.dsp).c_str(),
                    benchutil::util(sc_acc.lut, device.lut).c_str(),
                    sc_acc.fitsIn(device) ? "" : "  <-- over budget");
    }
    std::printf("\n");
}

} // namespace

int
main()
{
    std::printf("=== Fig. 13: accumulated resource usage, DNN workloads "
                "===\n\n");
    runModel("vgg16", 512);
    runModel("resnet18", 512);
    std::printf("Expected shape (paper): the POM (reuse) curves flatten; "
                "the dataflow curves\nclimb linearly with layer count "
                "and exceed the device for deep models.\n");
    return 0;
}
