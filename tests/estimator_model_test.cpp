/**
 * @file
 * Focused tests for the synthesis model's mechanics: accumulator
 * recurrences, broadcast port deduplication, BRAM/interface accounting,
 * dataflow stalls, power monotonicity, and II composition.
 */

#include <gtest/gtest.h>

#include "hls/estimator.h"
#include "lower/lower.h"
#include "transform/poly_stmt.h"
#include "workloads/workloads.h"

namespace {

using namespace pom;

/** A single accumulation loop: q[0] += x[i]. */
hls::SynthesisReport
accumulatorReport(std::int64_t n)
{
    static std::vector<std::unique_ptr<workloads::Workload>> keep;
    auto w = std::make_unique<workloads::Workload>(
        "acc" + std::to_string(keep.size()));
    dsl::Var i("i", 0, n);
    auto &x = w->array("x", {n});
    auto &q = w->array("q", {1});
    w->compute("s", {i}, q(0) + x(i), q(0));
    auto stmts = lower::extractStmts(w->func());
    transform::setPipeline(stmts[0], "i", 1);
    auto lowered = lower::lowerStmts(w->func(), std::move(stmts));
    auto report = hls::estimate(w->func(), lowered);
    keep.push_back(std::move(w));
    return report;
}

TEST(EstimatorModel, AccumulatorRecurrenceIsAdderBound)
{
    auto report = accumulatorReport(256);
    ASSERT_EQ(report.loops.size(), 1u);
    // II = fadd latency + store, not the whole body depth.
    EXPECT_EQ(report.loops[0].achievedII,
              hls::kOpCosts.faddLat + hls::kOpCosts.storeLat);
}

TEST(EstimatorModel, NonAccumulatorRecurrenceUsesFullDepth)
{
    // A[i] = A[i-1] * 2 + 1: the source and sink subscripts differ, so
    // the full load-mul-add-store chain sits on the recurrence.
    workloads::Workload w("chain");
    dsl::Var i("i", 1, 128);
    auto &a = w.array("A", {128});
    w.compute("s", {i}, a(i - 1) * 2.0 + 1.0, a(i));
    auto stmts = lower::extractStmts(w.func());
    transform::setPipeline(stmts[0], "i", 1);
    auto lowered = lower::lowerStmts(w.func(), std::move(stmts));
    auto report = hls::estimate(w.func(), lowered);
    ASSERT_EQ(report.loops.size(), 1u);
    auto acc = accumulatorReport(128);
    EXPECT_GT(report.loops[0].achievedII, acc.loops[0].achievedII);
}

TEST(EstimatorModel, BroadcastReadsDoNotConsumePorts)
{
    // out[i] = scale[0] * x[i] with i unrolled by 16: the scale[0]
    // read is a broadcast; only x and out need bank parallelism.
    workloads::Workload w("bcast");
    const std::int64_t n = 256;
    dsl::Var i("i", 0, n);
    auto &x = w.array("x", {n});
    auto &scale = w.array("scale", {1});
    auto &out = w.array("out", {n});
    w.compute("s", {i}, scale(0) * x(i), out(i));
    x.partition({16}, "cyclic");
    out.partition({16}, "cyclic");
    // scale deliberately unpartitioned: a broadcast needs one port.
    auto stmts = lower::extractStmts(w.func());
    transform::split(stmts[0], "i", 16, "io", "ii");
    transform::setUnroll(stmts[0], "ii", 0);
    transform::setPipeline(stmts[0], "io", 1);
    auto lowered = lower::lowerStmts(w.func(), std::move(stmts));
    auto report = hls::estimate(w.func(), lowered);
    ASSERT_EQ(report.loops.size(), 1u);
    EXPECT_EQ(report.loops[0].resMII, 1);
    EXPECT_EQ(report.loops[0].achievedII, 1);
}

TEST(EstimatorModel, SmallArraysUseBramLargeOnesAreExternal)
{
    // 64-float vector (2 Kbit) -> BRAM; 4096x4096 matrix -> external.
    workloads::Workload w("mem");
    dsl::Var i("i", 0, 64);
    auto &small = w.array("small", {64});
    auto &big = w.array("big", {4096, 4096});
    w.compute("s", {i}, big(i, i) + 1.0, small(i));
    auto lowered = lower::lowerStmts(w.func(),
                                     lower::extractStmts(w.func()));
    auto report = hls::estimate(w.func(), lowered);
    EXPECT_EQ(report.resources.bramBits, 64 * 32);
}

TEST(EstimatorModel, CompletePartitionMovesToRegisters)
{
    workloads::Workload w("regs");
    dsl::Var i("i", 0, 64);
    auto &small = w.array("small", {64});
    auto &out = w.array("out", {64});
    small.partition({64}, "complete");
    w.compute("s", {i}, small(i) * 2.0, out(i));
    auto lowered = lower::lowerStmts(w.func(),
                                     lower::extractStmts(w.func()));
    auto report = hls::estimate(w.func(), lowered);
    // small's 2 Kbit land in FF, out's stay in BRAM.
    EXPECT_EQ(report.resources.bramBits, 64 * 32);
}

TEST(EstimatorModel, PowerGrowsWithResources)
{
    auto w1 = workloads::makeGemm(64);
    auto l1 = lower::lowerStmts(w1->func(),
                                lower::extractStmts(w1->func()));
    auto r1 = hls::estimate(w1->func(), l1);

    auto w2 = workloads::makeGemm(64);
    auto stmts = lower::extractStmts(w2->func());
    transform::interchange(stmts[0], "i", "k");
    transform::split(stmts[0], "i", 16, "io", "ii");
    transform::setUnroll(stmts[0], "ii", 0);
    transform::setPipeline(stmts[0], "io", 1);
    for (const auto *p : w2->func().placeholders()) {
        std::vector<std::int64_t> f(p->shape().size(), 16);
        w2->func().findPlaceholderMut(p->name())->partition(f, "cyclic");
    }
    auto l2 = lower::lowerStmts(w2->func(), std::move(stmts));
    auto r2 = hls::estimate(w2->func(), l2);

    EXPECT_GT(r2.resources.dsp, r1.resources.dsp);
    EXPECT_GT(r2.powerW, r1.powerW);
}

TEST(EstimatorModel, TargetIIIsALowerBound)
{
    auto w = workloads::makeGemm(64);
    auto stmts = lower::extractStmts(w->func());
    transform::interchange(stmts[0], "i", "k");
    transform::setPipeline(stmts[0], "i", 3); // user asks for II=3
    auto lowered = lower::lowerStmts(w->func(), std::move(stmts));
    auto report = hls::estimate(w->func(), lowered);
    ASSERT_EQ(report.loops.size(), 1u);
    EXPECT_GE(report.loops[0].achievedII, 3);
}

TEST(EstimatorModel, DataflowStallsBetweenStages)
{
    auto w = workloads::make3mm(128);
    auto lowered = lower::lowerStmts(w->func(),
                                     lower::extractStmts(w->func()));
    hls::EstimatorOptions reuse, dataflow;
    reuse.sharing = hls::SharingMode::Reuse;
    dataflow.sharing = hls::SharingMode::Dataflow;
    auto r = hls::estimate(w->func(), lowered, reuse);
    auto d = hls::estimate(w->func(), lowered, dataflow);
    // Dataflow hides part of the work but must not reach the perfect
    // bottleneck-only latency (stalls), nor exceed the sequential sum.
    std::uint64_t max_nest = 0;
    for (const auto &[name, lat] : r.nestLatencies)
        max_nest = std::max(max_nest, lat);
    EXPECT_GT(d.latencyCycles, max_nest);
    EXPECT_LT(d.latencyCycles, r.latencyCycles);
}

TEST(EstimatorModel, NestLatenciesSumToReuseTotal)
{
    auto w = workloads::make3mm(64);
    auto lowered = lower::lowerStmts(w->func(),
                                     lower::extractStmts(w->func()));
    auto report = hls::estimate(w->func(), lowered);
    std::uint64_t sum = 0;
    for (const auto &[name, lat] : report.nestLatencies)
        sum += lat;
    EXPECT_EQ(sum, report.latencyCycles);
    EXPECT_EQ(report.nestLatencies.size(), 3u);
}

TEST(EstimatorModel, UnoptimizedBicgMatchesPaperResourceScale)
{
    // Paper Table IV: unoptimized BICG uses 10 DSPs (two MACs).
    auto w = workloads::makeBicg(64);
    auto stmts = lower::extractStmts(w->func());
    lower::applyDirectives(w->func(), stmts, true);
    auto lowered = lower::lowerStmts(w->func(), std::move(stmts));
    auto report = hls::estimate(w->func(), lowered);
    EXPECT_EQ(report.resources.dsp, 10);
}

} // namespace
