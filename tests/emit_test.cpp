/**
 * @file
 * Tests for HLS C emission and the end-to-end driver: emitted code
 * structure (loops, pragmas, subscripts), the DSL renderer, and the
 * full codegen() round trip with verification.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>

#include "driver/compiler.h"
#include "dsl/render.h"
#include "support/string_util.h"
#include "workloads/workloads.h"

namespace {

using namespace pom;
using workloads::makeByName;

TEST(Emit, GemmManualScheduleProducesFig6Code)
{
    // The paper's Fig. 5/6 flow: tile + pipeline + unroll + partition.
    const std::int64_t n = 32;
    dsl::Function f("gemm");
    dsl::Var i("i", 0, n), j("j", 0, n), k("k", 0, n);
    dsl::Placeholder A(f, "A", {n, n});
    dsl::Placeholder B(f, "B", {n, n});
    dsl::Placeholder C(f, "C", {n, n});
    dsl::Compute s(f, "s", {k, i, j}, A(i, j) + B(i, k) * C(k, j),
                   A(i, j));
    dsl::Var i0("i0"), j0("j0"), i1("i1"), j1("j1");
    s.tile(i, j, 4, 4, i0, j0, i1, j1);
    s.pipeline(j0, 1);
    s.unroll(i1, 4);
    s.unroll(j1, 4);
    A.partition({4, 4}, "cyclic");

    driver::CompileResult result = driver::compile(f);
    const std::string &code = result.design->hlsC();

    EXPECT_NE(code.find("void gemm(float A[32][32]"), std::string::npos);
    EXPECT_NE(code.find("#pragma HLS array_partition variable=A cyclic "
                        "factor=4 dim=1"),
              std::string::npos);
    EXPECT_NE(code.find("#pragma HLS array_partition variable=A cyclic "
                        "factor=4 dim=2"),
              std::string::npos);
    EXPECT_NE(code.find("#pragma HLS pipeline II=1"), std::string::npos);
    EXPECT_NE(code.find("#pragma HLS unroll factor=4"),
              std::string::npos);
    EXPECT_NE(code.find("for (int k = 0; k <= 31; ++k)"),
              std::string::npos);
    // The tiled subscript A[4*i0 + i1][4*j0 + j1].
    EXPECT_NE(code.find("A[4*i0 + i1][4*j0 + j1]"), std::string::npos);
}

TEST(Emit, FullUnrollPragmaHasNoFactor)
{
    dsl::Function f("vec");
    dsl::Var i("i", 0, 16);
    dsl::Placeholder X(f, "X", {16});
    dsl::Compute s(f, "s", {i}, X(i) * 2.0, X(i));
    s.unroll(i, 0);
    auto result = driver::compile(f);
    EXPECT_NE(result.design->hlsC().find("#pragma HLS unroll\n"),
              std::string::npos);
    EXPECT_EQ(result.design->hlsC().find("unroll factor"), std::string::npos);
}

TEST(Emit, MinMaxBoundsUseHelpers)
{
    // A skewed stencil produces max()/min() loop bounds.
    dsl::Function f("stencil");
    dsl::Var i("i", 1, 9), j("j", 1, 9);
    dsl::Placeholder A(f, "A", {9, 9});
    dsl::Compute s(f, "s", {i, j}, A(i - 1, j - 1) * 2.0, A(i, j));
    dsl::Var ip("ipr"), jp("jpr");
    s.skew(i, j, 1, ip, jp);
    s.interchange(ip, jp); // wavefront order -> triangular bounds
    auto result = driver::compile(f);
    EXPECT_NE(result.design->hlsC().find("max("), std::string::npos);
    EXPECT_NE(result.design->hlsC().find("min("), std::string::npos);
}

TEST(Emit, IntegerTypesAndOps)
{
    dsl::Function f("ints");
    dsl::Var i("i", 0, 8);
    dsl::Placeholder A(f, "A", {8}, dsl::ScalarKind::I16);
    dsl::Placeholder B(f, "B", {8}, dsl::ScalarKind::I16);
    dsl::Compute s(f, "s", {i}, A(i) * 3.0, B(i));
    auto result = driver::compile(f);
    EXPECT_NE(result.design->hlsC().find("int16_t A[8]"), std::string::npos);
}

TEST(Emit, MaxMinBecomeFmax)
{
    dsl::Function f("relu");
    dsl::Var i("i", 0, 8);
    dsl::Placeholder A(f, "A", {8});
    dsl::Compute s(f, "s", {i}, dsl::max(A(i), 0.0), A(i));
    auto result = driver::compile(f);
    EXPECT_NE(result.design->hlsC().find("fmax("), std::string::npos);
}

TEST(Emit, ConstantsParseBackToTheIrDouble)
{
    // Six significant digits would print 1/9 as 0.111111: the emitted
    // literal and the DSL text must parse back to the IR's double.
    dsl::Function f("ninth");
    dsl::Var i("i", 0, 8);
    dsl::Placeholder A(f, "A", {8});
    dsl::Placeholder B(f, "B", {8});
    dsl::Compute s(f, "s", {i}, (1.0 / 9.0) * A(i), B(i));
    auto result = driver::compile(f);
    std::optional<double> constant;
    result.design->lowered.func->walk([&](const ir::Operation &op) {
        if (op.opName() == "arith.constant")
            constant = op.attr(ir::kAttrValue).asFloat();
    });
    ASSERT_TRUE(constant.has_value());
    EXPECT_EQ(*constant, 1.0 / 9.0);

    const std::string &code = result.design->hlsC();
    const std::string store = "B[i] = (";
    size_t at = code.find(store);
    ASSERT_NE(at, std::string::npos) << code;
    EXPECT_EQ(std::strtod(code.c_str() + at + store.size(), nullptr),
              *constant)
        << code;

    const std::string rhs = s.rhs().str();
    EXPECT_EQ(std::strtod(rhs.c_str() + 1, nullptr), *constant) << rhs;
}

TEST(Emit, CodeIsStableAcrossRuns)
{
    auto w1 = makeByName("bicg", 32);
    auto w2 = makeByName("bicg", 32);
    auto r1 = driver::compile(w1->func());
    auto r2 = driver::compile(w2->func());
    EXPECT_EQ(r1.design->hlsC(), r2.design->hlsC());
}

TEST(Driver, CompileRunsDseWhenRequested)
{
    auto w = makeByName("gemm", 64);
    w->func().autoDSE();
    auto result = driver::compile(w->func());
    EXPECT_GT(result.report.speedupOver(result.baseline), 10.0);
    EXPECT_GT(result.dseSeconds, 0.0);
    EXPECT_NE(result.design->hlsC().find("#pragma HLS pipeline"),
              std::string::npos);
    EXPECT_NE(result.design->hlsC().find("array_partition"),
              std::string::npos);
}

TEST(Driver, CompileWithoutDseAppliesUserSchedule)
{
    auto w = makeByName("gemm", 32);
    auto result = driver::compile(w->func());
    EXPECT_EQ(result.dseSeconds, 0.0);
    // No schedule: report equals baseline.
    EXPECT_EQ(result.report.latencyCycles, result.baseline.latencyCycles);
}

TEST(Driver, RenderDslRoundTripsStructure)
{
    auto w = makeByName("bicg", 64);
    std::string dsl_src = dsl::renderDsl(w->func());
    EXPECT_NE(dsl_src.find("placeholder A"), std::string::npos);
    EXPECT_NE(dsl_src.find("compute s_q"), std::string::npos);
    EXPECT_NE(dsl_src.find("s_s.fuse(s_q);"), std::string::npos);
    EXPECT_NE(dsl_src.find("codegen();"), std::string::npos);
    EXPECT_NE(dsl_src.find("p_float32"), std::string::npos);
}

TEST(Driver, DslIsMuchShorterThanHlsC)
{
    // The Fig. 15 property: DSL (with autoDSE) is a fraction of the
    // emitted HLS C size for multi-loop benchmarks.
    auto w = makeByName("3mm", 64);
    w->func().autoDSE();
    auto result = driver::compile(w->func());
    int dsl_loc = support::countLoc(dsl::renderDsl(w->func()));
    int c_loc = support::countLoc(result.design->hlsC());
    EXPECT_LT(dsl_loc * 2, c_loc);
}

TEST(Driver, RenderDslShowsPrimitives)
{
    dsl::Function f("sched");
    dsl::Var i("i", 0, 32), j("j", 0, 32);
    dsl::Placeholder A(f, "A", {32, 32});
    dsl::Compute s(f, "s", {i, j}, A(i, j) * 2.0, A(i, j));
    dsl::Var i0("i0"), j0("j0"), i1("i1"), j1("j1");
    s.tile(i, j, 4, 4, i0, j0, i1, j1);
    s.pipeline(j0, 1);
    s.unroll(j1, 4);
    A.partition({4, 4}, "cyclic");
    std::string src = dsl::renderDsl(f);
    EXPECT_NE(src.find("s.tile(i, j, 4, 4, i0, j0, i1, j1);"),
              std::string::npos);
    EXPECT_NE(src.find("s.pipeline(j0, 1);"), std::string::npos);
    EXPECT_NE(src.find("s.unroll(j1, 4);"), std::string::npos);
    EXPECT_NE(src.find("A.partition({4, 4}, \"cyclic\");"),
              std::string::npos);
}

TEST(Emit, EmittedGemmCompilesAsC)
{
    // The emitted code must be valid C++ (smoke-compiled in-process by
    // checking for balanced braces and no placeholder tokens).
    auto w = makeByName("gemm", 32);
    w->func().autoDSE();
    auto result = driver::compile(w->func());
    const std::string &code = result.design->hlsC();
    EXPECT_EQ(std::count(code.begin(), code.end(), '{'),
              std::count(code.begin(), code.end(), '}'));
    EXPECT_EQ(code.find("__self"), std::string::npos);
    EXPECT_EQ(code.find("?"), std::string::npos);
}

} // namespace
