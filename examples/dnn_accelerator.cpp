/**
 * @file
 * A DNN accelerator scenario (paper §VII.E): compile the ResNet-18
 * convolution stack with POM's resource-reuse strategy and contrast it
 * with a ScaleHLS-style dataflow mapping. Prints the per-layer
 * parallelism the DSE selected, the accumulated resources under both
 * strategies, and the end-to-end latency/speedup.
 *
 * Build and run:  ./build/examples/dnn_accelerator
 */

#include <cstdio>

#include "baselines/baselines.h"
#include "dse/dse.h"
#include "workloads/workloads.h"

using namespace pom;

int
main()
{
    const std::int64_t size = 512;
    const auto device = hls::Device::xc7z020();

    std::printf("=== ResNet-18 accelerator (channel cap %lld) ===\n\n",
                static_cast<long long>(size));

    auto w_base = workloads::makeResnet18(size);
    auto base = baselines::runUnoptimized(w_base->func());
    std::printf("unoptimized: %llu cycles\n\n",
                static_cast<unsigned long long>(
                    base.report.latencyCycles));

    // POM: sequential layers, hardware shared between them.
    auto w_pom = workloads::makeResnet18(size);
    auto pom = dse::autoDSE(w_pom->func());
    std::printf("POM (resource reuse):\n  %s\n  speedup %.1fx, DSE "
                "%.2fs\n  per-layer parallelism:\n",
                pom.report.str(device).c_str(), pom.speedup(),
                pom.dseSeconds);
    for (const auto &[layer, degree] : pom.parallelism)
        std::printf("    %-14s %lld\n", layer.c_str(),
                    static_cast<long long>(degree));

    // ScaleHLS-style dataflow for contrast.
    auto w_sc = workloads::makeResnet18(size);
    auto sc = baselines::runScaleHlsLike(w_sc->func());
    std::printf("\nScaleHLS-like (dataflow):\n  %s\n  speedup %.1fx%s\n",
                sc.report.str(device).c_str(),
                sc.report.speedupOver(base.report),
                sc.report.resources.fitsIn(device)
                    ? ""
                    : "  -- exceeds the device budget");
    return 0;
}
