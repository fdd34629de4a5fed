/**
 * @file
 * End-to-end lowering tests: DSL -> polyhedral IR -> AST -> annotated
 * affine dialect, with functional verification through the interpreter.
 * The central property: any combination of scheduling primitives must
 * leave the computed result bit-identical to the unscheduled program.
 */

#include <gtest/gtest.h>

#include "dsl/dsl.h"
#include "ir/interpreter.h"
#include "ir/verifier.h"
#include "lower/lower.h"
#include "obs/obs.h"
#include "support/diagnostics.h"
#include "workloads/workloads.h"

namespace {

using namespace pom;
using dsl::Compute;
using dsl::Function;
using dsl::Placeholder;
using dsl::Var;
using dsl::Expr;
using support::FatalError;

/** Interpret both the unscheduled and scheduled versions and compare. */
void
expectSameSemantics(const Function &f)
{
    auto plain = lower::lowerStmts(f, lower::extractStmts(f));
    auto scheduled = lower::lower(f);
    ASSERT_TRUE(ir::verify(*plain.func).empty());
    ASSERT_TRUE(ir::verify(*scheduled.func).empty());

    auto b1 = ir::makeBuffersFor(*plain.func, 99);
    auto b2 = ir::makeBuffersFor(*scheduled.func, 99);
    ir::runFunction(*plain.func, b1);
    ir::runFunction(*scheduled.func, b2);
    for (const auto &[name, buf] : b1) {
        const auto &got = b2.at(name)->data();
        const auto &want = buf->data();
        ASSERT_EQ(got.size(), want.size());
        for (size_t i = 0; i < want.size(); ++i) {
            ASSERT_DOUBLE_EQ(got[i], want[i])
                << "buffer " << name << " index " << i;
        }
    }
}

TEST(Lower, GemmAgainstReference)
{
    const std::int64_t n = 12;
    Function f("gemm");
    Var i("i", 0, n), j("j", 0, n), k("k", 0, n);
    Placeholder A(f, "A", {n, n});
    Placeholder B(f, "B", {n, n});
    Placeholder C(f, "C", {n, n});
    Compute s(f, "s", {i, j, k}, A(i, j) + B(i, k) * C(k, j), A(i, j));

    auto lowered = lower::lower(f);
    ASSERT_TRUE(ir::verify(*lowered.func).empty());
    auto buffers = ir::makeBuffersFor(*lowered.func, 3);
    std::vector<double> ref = buffers["A"]->data();
    const auto &db = buffers["B"]->data();
    const auto &dc = buffers["C"]->data();
    for (std::int64_t ii = 0; ii < n; ++ii)
        for (std::int64_t jj = 0; jj < n; ++jj)
            for (std::int64_t kk = 0; kk < n; ++kk)
                ref[ii * n + jj] += db[ii * n + kk] * dc[kk * n + jj];
    ir::runFunction(*lowered.func, buffers);
    for (size_t x = 0; x < ref.size(); ++x)
        ASSERT_DOUBLE_EQ(buffers["A"]->data()[x], ref[x]);
}

TEST(Lower, TiledGemmSameSemantics)
{
    const std::int64_t n = 16;
    Function f("gemm");
    Var i("i", 0, n), j("j", 0, n), k("k", 0, n);
    Placeholder A(f, "A", {n, n});
    Placeholder B(f, "B", {n, n});
    Placeholder C(f, "C", {n, n});
    Compute s(f, "s", {k, i, j}, A(i, j) + B(i, k) * C(k, j), A(i, j));
    Var i0("i0"), j0("j0"), i1("i1"), j1("j1");
    s.tile(i, j, 4, 4, i0, j0, i1, j1);
    s.pipeline(j0, 1);
    s.unroll(i1, 4);
    s.unroll(j1, 4);
    A.partition({4, 4}, "cyclic");
    expectSameSemantics(f);
}

TEST(Lower, SplitNonDividingSameSemantics)
{
    Function f("vadd");
    Var i("i", 0, 37);
    Placeholder X(f, "X", {37});
    Placeholder Y(f, "Y", {37});
    Compute s(f, "s", {i}, X(i) + Y(i), X(i));
    Var i0("i0"), i1("i1");
    s.split(i, 8, i0, i1);
    s.pipeline(i0, 1);
    s.unroll(i1, 0);
    expectSameSemantics(f);
}

TEST(Lower, InterchangeSameSemantics)
{
    const std::int64_t n = 10;
    Function f("bicg_like");
    Var i("i", 0, n), j("j", 0, n);
    Placeholder A(f, "A", {n, n});
    Placeholder p(f, "p", {n});
    Placeholder q(f, "q", {n});
    Compute s(f, "s", {i, j}, q(i) + A(i, j) * p(j), q(i));
    s.interchange(i, j);
    expectSameSemantics(f);
}

TEST(Lower, SkewedStencilSameSemantics)
{
    // A Fig. 1 style diagonal stencil; skewing must preserve results
    // because the dependence direction is respected by the new order.
    Function f("stencil");
    Var i("i", 1, 9), j("j", 1, 9);
    Placeholder A(f, "A", {9, 9});
    Compute s(f, "s", {i, j}, A(i - 1, j - 1) * 2.0 + 3.0, A(i, j));
    Var ip("ipr"), jp("jpr");
    s.skew(i, j, 1, ip, jp);
    expectSameSemantics(f);
}

TEST(Lower, TwoComputesSequential)
{
    // S2 consumes S1's output; order must be respected.
    const std::int64_t n = 8;
    Function f("seq");
    Var i("i", 0, n);
    Placeholder X(f, "X", {n});
    Placeholder Y(f, "Y", {n});
    Placeholder Z(f, "Z", {n});
    Compute s1(f, "s1", {i}, X(i) * 2.0, Y(i));
    Compute s2(f, "s2", {i}, Y(i) + 1.0, Z(i));

    auto lowered = lower::lower(f);
    auto buffers = ir::makeBuffersFor(*lowered.func, 5);
    std::vector<double> x = buffers["X"]->data();
    ir::runFunction(*lowered.func, buffers);
    for (std::int64_t t = 0; t < n; ++t) {
        ASSERT_DOUBLE_EQ(buffers["Y"]->data()[t], x[t] * 2.0);
        ASSERT_DOUBLE_EQ(buffers["Z"]->data()[t], x[t] * 2.0 + 1.0);
    }
}

TEST(Lower, FusedComputesShareLoop)
{
    const std::int64_t n = 8;
    Function f("fused");
    Var i("i", 0, n);
    Placeholder X(f, "X", {n});
    Placeholder Y(f, "Y", {n});
    Placeholder Z(f, "Z", {n});
    Compute s1(f, "s1", {i}, X(i) * 2.0, Y(i));
    Compute s2(f, "s2", {i}, X(i) + 1.0, Z(i));
    s2.fuse(s1);

    auto lowered = lower::lower(f);
    // One loop only.
    int for_count = 0;
    lowered.func->walk([&](const ir::Operation &op) {
        if (op.opName() == "affine.for")
            ++for_count;
    });
    EXPECT_EQ(for_count, 1);
    expectSameSemantics(f);
}

TEST(Lower, JacobiTimeLoopViaAfter)
{
    // Jacobi-1d as in Fig. 16: two computes sharing the time loop.
    const std::int64_t n = 16, steps = 4;
    Function f("jacobi1d");
    Var t("t", 0, steps), i("i", 1, n - 1), i2("i2", 1, n - 1);
    Placeholder A(f, "A", {n});
    Placeholder B(f, "B", {n});
    Compute s1(f, "s1", {t, i}, (A(i - 1) + A(i) + A(i + 1)) / 3.0, B(i));
    Compute s2(f, "s2", {t, i2}, B(i2), A(i2));
    s2.after(s1, t);

    auto lowered = lower::lower(f);
    ASSERT_TRUE(ir::verify(*lowered.func).empty());
    // Expect exactly one time loop at the top.
    ASSERT_EQ(lowered.astRoot->kind(), pom::ast::AstNode::Kind::For);
    EXPECT_EQ(lowered.astRoot->iterName, "t");
    EXPECT_EQ(lowered.astRoot->children.size(), 2u);

    // Compare against a plain reference.
    auto buffers = ir::makeBuffersFor(*lowered.func, 11);
    std::vector<double> a = buffers["A"]->data();
    std::vector<double> b = buffers["B"]->data();
    for (std::int64_t tt = 0; tt < steps; ++tt) {
        for (std::int64_t ii = 1; ii < n - 1; ++ii)
            b[ii] = (a[ii - 1] + a[ii] + a[ii + 1]) / 3.0;
        for (std::int64_t ii = 1; ii < n - 1; ++ii)
            a[ii] = b[ii];
    }
    ir::runFunction(*lowered.func, buffers);
    for (std::int64_t ii = 0; ii < n; ++ii) {
        ASSERT_DOUBLE_EQ(buffers["A"]->data()[ii], a[ii]) << ii;
        ASSERT_DOUBLE_EQ(buffers["B"]->data()[ii], b[ii]) << ii;
    }
}

TEST(Lower, OrderingOnAnotherFunctionsComputeIsFatal)
{
    // after/fuse may anchor only a compute of the function being
    // lowered. Another function's compute is refused whether its name
    // is new here or is the name of a local compute, which must not be
    // taken in its place.
    for (const char *other_name : {"elsewhere", "s1"}) {
        for (bool fuse : {false, true}) {
            SCOPED_TRACE(std::string(fuse ? "fuse " : "after ") +
                         other_name);
            Var i("i", 0, 8);
            Function g("other");
            Placeholder P(g, "P", {8});
            Placeholder Q(g, "Q", {8});
            Compute other(g, other_name, {i}, P(i) * 2.0, Q(i));

            Function f("local");
            Placeholder X(f, "X", {8});
            Placeholder Y(f, "Y", {8});
            Placeholder Z(f, "Z", {8});
            Compute s1(f, "s1", {i}, X(i) * 2.0, Y(i));
            Compute s2(f, "s2", {i}, X(i) + 1.0, Z(i));
            if (fuse)
                s2.fuse(other);
            else
                s2.after(other);
            for (bool ordering_only : {false, true}) {
                try {
                    if (ordering_only)
                        lower::lowerUnscheduled(f);
                    else
                        lower::lower(f);
                    ADD_FAILURE() << "lowered with a foreign anchor";
                } catch (const FatalError &e) {
                    EXPECT_NE(std::string(e.what()).find(
                                  "after/fuse references a compute "
                                  "outside this function"),
                              std::string::npos)
                        << e.what();
                }
            }
        }
    }
}

TEST(Lower, NonAffineSubscriptIsFatal)
{
    Function f("bad");
    Var i("i", 0, 8), j("j", 0, 8);
    Placeholder A(f, "A", {8, 8});
    Placeholder B(f, "B", {8});
    // A(i*j) is non-affine.
    Compute s(f, "s", {i, j}, A(Expr(i) * Expr(j), j), B(i));
    EXPECT_THROW(lower::lower(f), FatalError);
}

TEST(Lower, NonIntegerSubscriptFactorIsFatal)
{
    // A fractional factor must not truncate (i * 2.5 is not 2*i), and
    // an out-of-range one must not reach an undefined double->int cast.
    auto lowerWith = [](auto subscript) {
        Function f("bad");
        Var i("i", 0, 8), j("j", 0, 8);
        Placeholder A(f, "A", {8, 8});
        Placeholder B(f, "B", {8, 8});
        Compute s(f, "s", {i, j}, A(subscript(i), j), B(i, j));
        lower::lower(f);
    };
    EXPECT_THROW(lowerWith([](Var i) { return Expr(i) * 0.5; }),
                 FatalError);
    EXPECT_THROW(lowerWith([](Var i) { return Expr(i) * 2.5; }),
                 FatalError);
    EXPECT_THROW(lowerWith([](Var i) { return Expr(i) * 1e30; }),
                 FatalError);
    EXPECT_THROW(lowerWith([](Var) { return Expr(1e30); }), FatalError);
    // Integral factors and constants still lower.
    EXPECT_NO_THROW(lowerWith([](Var i) { return Expr(i) * 1.0 + 0.0; }));
}

TEST(Lower, WrongRankIsFatal)
{
    Function f("bad2");
    Var i("i", 0, 8);
    Placeholder A(f, "A", {8, 8});
    Placeholder B(f, "B", {8});
    Compute s(f, "s", {i}, A(i), B(i)); // A needs two subscripts
    EXPECT_THROW(lower::lower(f), FatalError);
}

TEST(Lower, DslValidation)
{
    Function f("v");
    Var i("i", 0, 8);
    Placeholder A(f, "A", {8});
    EXPECT_THROW(Var("e", 3, 3), FatalError);
    EXPECT_THROW(Placeholder(f, "A", {4}), FatalError); // duplicate
    EXPECT_THROW(Placeholder(f, "Z", {0}), FatalError); // bad extent
    EXPECT_THROW(Compute(f, "c", {}, A(i), A(i)), FatalError);
    Var unranged("u");
    EXPECT_THROW(Compute(f, "c", {unranged}, A(i), A(i)), FatalError);
    EXPECT_THROW(Compute(f, "c", {i, i}, A(i), A(i)), FatalError);
    EXPECT_THROW(Compute(f, "c", {i}, A(i), Expr(1.0) + A(i)), FatalError);
    EXPECT_THROW(A.partition({2, 2}, "cyclic"), FatalError);
    EXPECT_THROW(A.partition({3}, "weird"), FatalError);
    EXPECT_THROW(A.partition({100}, "cyclic"), FatalError);
}

TEST(Lower, HlsAttributesAppearInIr)
{
    const std::int64_t n = 8;
    Function f("annotated");
    Var i("i", 0, n), j("j", 0, n);
    Placeholder A(f, "A", {n, n});
    Compute s(f, "s", {i, j}, A(i, j) * 2.0, A(i, j));
    s.pipeline(i, 2);
    s.unroll(j, 4);
    A.partition({2, 2}, "cyclic");

    auto lowered = lower::lower(f);
    bool saw_pipeline = false, saw_unroll = false;
    lowered.func->walk([&](const ir::Operation &op) {
        if (op.opName() != "affine.for")
            return;
        if (op.hasAttr(ir::kAttrPipelineII) &&
            op.attr(ir::kAttrPipelineII).asInt() == 2) {
            saw_pipeline = true;
        }
        if (op.hasAttr(ir::kAttrUnroll) &&
            op.attr(ir::kAttrUnroll).asInt() == 4) {
            saw_unroll = true;
        }
    });
    EXPECT_TRUE(saw_pipeline);
    EXPECT_TRUE(saw_unroll);
    EXPECT_TRUE(lowered.func->hasAttr("hls.partition.A"));
    EXPECT_EQ(lowered.func->attr("hls.partition_kind.A").asString(),
              "cyclic");
}

TEST(Lower, IntegerElementTypes)
{
    const std::int64_t n = 8;
    Function f("ints");
    Var i("i", 0, n);
    Placeholder A(f, "A", {n}, dsl::ScalarKind::I32);
    Placeholder B(f, "B", {n}, dsl::ScalarKind::I32);
    Compute s(f, "s", {i}, A(i) * 3.0 + 1.0, B(i));
    auto lowered = lower::lower(f);
    ASSERT_TRUE(ir::verify(*lowered.func).empty());
    bool saw_muli = false;
    lowered.func->walk([&](const ir::Operation &op) {
        if (op.opName() == "arith.muli")
            saw_muli = true;
    });
    EXPECT_TRUE(saw_muli);
}

TEST(Lower, UnscheduledAppliesOrderingOnly)
{
    auto w = workloads::makeGemm(16);
    w->func().findCompute("s")->pipeline(dsl::Var("j"), 1);
    // The pipeline directive is hardware-only: the unscheduled design
    // skips it, so its IR carries no pragma annotation.
    EXPECT_EQ(lower::lowerUnscheduled(w->func()).func->str().find("hls."),
              std::string::npos);
    EXPECT_NE(lower::lower(w->func()).func->str().find("hls."),
              std::string::npos);
}

TEST(Lower, StagesAreTracedInOrder)
{
    obs::resetTrace();
    obs::setTracingEnabled(true);
    auto w = workloads::makeGemm(16);
    lower::lower(w->func());
    obs::setTracingEnabled(false);
    std::vector<std::string> stages;
    for (const auto &event : obs::traceSnapshot()) {
        if (event.category == "lower")
            stages.push_back(event.name);
    }
    obs::resetTrace();
    EXPECT_EQ(stages,
              (std::vector<std::string>{"lower.extract", "lower.schedule",
                                        "lower.annotate", "lower.ast",
                                        "lower.affine"}));
}

/** Property sweep: tiled GEMM across sizes and factors. */
struct TileCase
{
    std::int64_t n, t1, t2;
};

class TiledGemmSweep : public ::testing::TestWithParam<TileCase>
{};

TEST_P(TiledGemmSweep, SameSemantics)
{
    auto [n, t1, t2] = GetParam();
    Function f("gemm");
    Var i("i", 0, n), j("j", 0, n), k("k", 0, n);
    Placeholder A(f, "A", {n, n});
    Placeholder B(f, "B", {n, n});
    Placeholder C(f, "C", {n, n});
    Compute s(f, "s", {k, i, j}, A(i, j) + B(i, k) * C(k, j), A(i, j));
    Var i0("i0"), j0("j0"), i1("i1"), j1("j1");
    s.tile(i, j, t1, t2, i0, j0, i1, j1);
    s.pipeline(j0, 1);
    s.unroll(i1, 0);
    s.unroll(j1, 0);
    expectSameSemantics(f);
}

INSTANTIATE_TEST_SUITE_P(Cases, TiledGemmSweep,
                         ::testing::Values(TileCase{8, 2, 2},
                                           TileCase{8, 4, 2},
                                           TileCase{9, 2, 3},
                                           TileCase{10, 4, 4},
                                           TileCase{12, 3, 4},
                                           TileCase{7, 2, 4}));

/** Property sweep: skewed stencils across skew factors. */
class SkewStencilSweep : public ::testing::TestWithParam<std::int64_t>
{};

TEST_P(SkewStencilSweep, SameSemantics)
{
    Function f("stencil");
    Var i("i", 1, 8), j("j", 1, 8);
    Placeholder A(f, "A", {8, 8});
    Compute s(f, "s", {i, j}, A(i - 1, j - 1) + A(i, j - 1), A(i, j));
    Var ip("ipr"), jp("jpr");
    s.skew(i, j, GetParam(), ip, jp);
    expectSameSemantics(f);
}

INSTANTIATE_TEST_SUITE_P(Factors, SkewStencilSweep,
                         ::testing::Values(1, 2, 3));

} // namespace
