/**
 * @file
 * Tests for DSE configuration knobs, the extended workload set, and
 * the derived HLS DEPENDENCE pragma hints.
 */

#include <gtest/gtest.h>

#include "driver/compiler.h"
#include "dse/dse.h"
#include "hls/count.h"
#include "ir/interpreter.h"
#include "ir/verifier.h"
#include "lower/lower.h"
#include "workloads/workloads.h"

namespace {

using namespace pom;
using workloads::makeByName;

TEST(DseOptions, MaxParallelismCapsUnrolling)
{
    auto w_small = makeByName("gemm", 256);
    dse::DseOptions small;
    small.maxParallelism = 4;
    auto r_small = dse::autoDSE(w_small->func(), small);

    auto w_big = makeByName("gemm", 256);
    dse::DseOptions big;
    big.maxParallelism = 64;
    auto r_big = dse::autoDSE(w_big->func(), big);

    EXPECT_LT(r_small.report.resources.dsp, r_big.report.resources.dsp);
    EXPECT_GT(r_small.report.latencyCycles, r_big.report.latencyCycles);
    for (const auto &[name, degree] : r_small.parallelism)
        EXPECT_LE(degree, 4);
}

TEST(DseOptions, InnerUnrollCapShapesTiles)
{
    auto w = makeByName("gemm", 256);
    dse::DseOptions opt;
    opt.innerUnrollCap = 4;
    opt.maxParallelism = 16;
    auto r = dse::autoDSE(w->func(), opt);
    // The innermost unrolled loop has at most 4 copies.
    for (const auto &stmt : r.design->lowered.stmts) {
        auto trips = hls::avgTrips(stmt.sched.domain);
        for (size_t l = 0; l < stmt.numDims(); ++l) {
            std::int64_t u = stmt.sched.hwPerDim[l].unrollFactor;
            if (u == 0 && l == stmt.numDims() - 1) {
                EXPECT_LE(trips[l], 4);
            }
        }
    }
    EXPECT_TRUE(
        r.report.resources.fitsIn(hls::Device::xc7z020()));
}

TEST(DseOptions, UserDirectivesCanBeIgnored)
{
    // The search starts from the user's primitives, and a deliberately
    // bad one must not hurt: the design it selects is still feasible
    // and profitable.
    auto w = makeByName("gemm", 128);
    auto *c = w->func().computes()[0];
    // A bad user idea: pipeline the reduction loop directly.
    c->pipeline(c->iters().back(), 1);
    auto r = dse::autoDSE(w->func());
    EXPECT_TRUE(r.report.resources.fitsIn(hls::Device::xc7z020()));
    EXPECT_GE(r.speedup(), 1.0);
}

// ---- extended workloads --------------------------------------------------

class NewWorkloadSweep : public ::testing::TestWithParam<const char *>
{};

TEST_P(NewWorkloadSweep, LowersVerifiesAndOptimizes)
{
    auto w = makeByName(GetParam(), 24);
    auto result = dse::autoDSE(w->func());
    EXPECT_TRUE(ir::verify(*result.design->lowered.func).empty());
    EXPECT_GE(result.speedup(), 1.0);

    // Semantics preserved (interpreter, bit-exact).
    auto ref_stmts = lower::extractStmts(w->func());
    lower::applyDirectives(w->func(), ref_stmts, true);
    auto plain = lower::lowerStmts(w->func(), std::move(ref_stmts));
    auto b1 = ir::makeBuffersFor(*plain.func, 31);
    auto b2 = ir::makeBuffersFor(*result.design->lowered.func, 31);
    ir::runFunction(*plain.func, b1);
    ir::runFunction(*result.design->lowered.func, b2);
    for (const auto &[name, buf] : b1) {
        const auto &got = b2.at(name)->data();
        for (size_t i = 0; i < buf->data().size(); ++i)
            ASSERT_DOUBLE_EQ(got[i], buf->data()[i]) << name << i;
    }
}

INSTANTIATE_TEST_SUITE_P(Names, NewWorkloadSweep,
                         ::testing::Values("atax", "mvt", "syrk",
                                           "conv2d"));

TEST(NewWorkloads, SyrkReachesHighParallelism)
{
    auto w = makeByName("syrk", 1024);
    auto r = dse::autoDSE(w->func());
    EXPECT_GT(r.speedup(), 50.0);
    EXPECT_LE(r.report.worstII(), 2);
}

TEST(NewWorkloads, Conv2dPipelinesOverReduction)
{
    auto w = makeByName("conv2d", 512);
    auto r = dse::autoDSE(w->func());
    EXPECT_GT(r.speedup(), 10.0);
}

// ---- dependence pragma hints ----------------------------------------------

TEST(DependenceHints, EmittedForProvenIndependentArrays)
{
    auto w = makeByName("bicg", 128);
    w->func().autoDSE();
    auto result = driver::compile(w->func());
    // After split-interchange-merge, q and s are written along an
    // unrolled/pipelined dimension with no carried dependence inside
    // the pipeline: both get asserted independent.
    EXPECT_NE(result.design->hlsC().find(
                  "#pragma HLS dependence variable=q inter false"),
              std::string::npos);
    EXPECT_NE(result.design->hlsC().find(
                  "#pragma HLS dependence variable=s inter false"),
              std::string::npos);
}

TEST(DependenceHints, NotEmittedWhenDependenceRemains)
{
    // Pipeline the accumulation loop directly: q carries a dependence
    // inside the pipeline, so no pragma may be asserted for it.
    dsl::Function f("acc");
    dsl::Var i("i", 0, 64), j("j", 0, 64);
    dsl::Placeholder A(f, "A", {64, 64});
    dsl::Placeholder q(f, "q", {64});
    dsl::Compute s(f, "s", {i, j}, q(i) + A(i, j), q(i));
    s.pipeline(j, 1);
    auto result = driver::compile(f);
    EXPECT_EQ(result.design->hlsC().find("dependence variable=q"),
              std::string::npos);
}

TEST(DependenceHints, PresentInIrAttributes)
{
    auto w = makeByName("gemm", 64);
    w->func().autoDSE();
    auto result = driver::compile(w->func());
    bool found = false;
    result.design->lowered.func->walk([&](const ir::Operation &op) {
        if (op.hasAttr(ir::kAttrDependenceFree))
            found = true;
    });
    EXPECT_TRUE(found);
}

} // namespace
