/**
 * @file
 * A realistic image-processing scenario: a Sobel edge-detection
 * pipeline (two gradient stencils + magnitude) on a 1080p-class frame,
 * compiled three ways -- unscheduled, hand-scheduled, and with autoDSE
 * -- to show how the primitives trade effort for performance. The
 * functional result of each design is checked against the unscheduled
 * program with the IR interpreter on a small frame.
 *
 * Build and run:  ./build/examples/image_pipeline
 */

#include <cstdio>

#include "baselines/baselines.h"
#include "driver/compiler.h"
#include "dsl/dsl.h"
#include "ir/interpreter.h"
#include "workloads/workloads.h"

using namespace pom;

namespace {

/** Interpret design vs reference on a small frame; returns max |err|. */
double
functionalCheck()
{
    auto w = workloads::makeEdgeDetect(32);
    auto plain_stmts = lower::extractStmts(w->func());
    lower::applyDirectives(w->func(), plain_stmts);
    auto plain = lower::lowerStmts(w->func(), std::move(plain_stmts));

    auto w2 = workloads::makeEdgeDetect(32);
    auto optimized = baselines::runPom(w2->func());

    auto b1 = ir::makeBuffersFor(*plain.func, 1);
    auto b2 = ir::makeBuffersFor(*optimized.design->lowered.func, 1);
    ir::runFunction(*plain.func, b1);
    ir::runFunction(*optimized.design->lowered.func, b2);
    double max_err = 0.0;
    for (const auto &[name, buf] : b1) {
        const auto &got = b2.at(name)->data();
        for (size_t i = 0; i < buf->data().size(); ++i) {
            double e = got[i] - buf->data()[i];
            max_err = std::max(max_err, e < 0 ? -e : e);
        }
    }
    return max_err;
}

} // namespace

int
main()
{
    const std::int64_t n = 2048; // frame edge
    const auto device = hls::Device::xc7z020();

    std::printf("=== Sobel edge-detection pipeline (frame %lldx%lld) "
                "===\n\n",
                static_cast<long long>(n), static_cast<long long>(n));

    // Unscheduled.
    auto w_base = workloads::makeEdgeDetect(n);
    auto base = baselines::runUnoptimized(w_base->func());
    std::printf("unscheduled:   %s\n", base.report.str(device).c_str());

    // Hand schedule: pipeline each stage, unroll 8 columns, partition.
    {
        auto w = workloads::makeEdgeDetect(n);
        int idx = 0;
        for (auto *c : w->func().computes()) {
            dsl::Var o("col_o" + std::to_string(idx)),
                in("col_i" + std::to_string(idx));
            c->split(c->iters().back(), 8, o, in);
            c->pipeline(o, 1);
            c->unroll(in, 0);
            ++idx;
        }
        for (auto *p : w->func().placeholders()) {
            std::vector<std::int64_t> factors(p->shape().size(), 1);
            factors.back() = 8;
            w->func().findPlaceholderMut(p->name())->partition(factors,
                                                               "cyclic");
        }
        auto manual = driver::compile(w->func());
        std::printf("hand schedule: %s  (%.1fx)\n",
                    manual.report.str(device).c_str(),
                    manual.report.speedupOver(base.report));
    }

    // autoDSE.
    auto w_auto = workloads::makeEdgeDetect(n);
    auto pom = baselines::runPom(w_auto->func());
    std::printf("auto_DSE:      %s  (%.1fx, %.2fs)\n\n",
                pom.report.str(device).c_str(),
                pom.report.speedupOver(base.report), pom.seconds);

    double err = functionalCheck();
    std::printf("functional check vs reference (32x32 frame): max "
                "|error| = %g %s\n",
                err, err == 0.0 ? "(bit-exact)" : "");
    return err == 0.0 ? 0 : 1;
}
