/**
 * @file
 * Tests for the dependence graph IR: coarse edges, data-path collection
 * (paper Fig. 8), reduction-dimension detection, and transformation
 * hints used by DSE stage 1.
 */

#include <gtest/gtest.h>

#include "dsl/dsl.h"
#include "graph/dependence_graph.h"
#include "lower/lower.h"

namespace {

using namespace pom;
using dsl::Compute;
using dsl::Function;
using dsl::Placeholder;
using dsl::Var;
using graph::DependenceGraph;
using graph::Hint;

TEST(Graph, Fig8FourNodeGraph)
{
    // S1: A = A*beta; S2: B = A+B; S3: C = A+C; S4: D = B*C (paper Fig 8)
    const std::int64_t n = 8;
    Function f("fig8");
    Var i("i", 0, n), j("j", 0, n), k("k", 0, n);
    Placeholder A(f, "A", {n, n});
    Placeholder B(f, "B", {n, n});
    Placeholder C(f, "C", {n, n});
    Placeholder D(f, "D", {n, n});
    Compute s1(f, "S1", {i, j, k}, A(i, j) * 0.5, A(i, j));
    Compute s2(f, "S2", {i, j, k}, A(i, j) + B(i, j), B(i, j));
    Compute s3(f, "S3", {i, j, k}, A(i, j) + C(i, j), C(i, j));
    Compute s4(f, "S4", {i, j, k}, D(i, j) + B(i, k) * C(k, j), D(i, j));

    auto stmts = lower::extractStmts(f);
    DependenceGraph graph(stmts);
    // Edges: S1->S2, S1->S3, S2->S4, S3->S4 (and S1->S1 style self loops
    // are not edges). S1 also writes A read by itself only.
    ASSERT_EQ(graph.nodes().size(), 4u);
    auto hasEdge = [&](size_t a, size_t b) {
        for (const auto &e : graph.edges()) {
            if (e.from == a && e.to == b)
                return true;
        }
        return false;
    };
    EXPECT_TRUE(hasEdge(0, 1));
    EXPECT_TRUE(hasEdge(0, 2));
    EXPECT_TRUE(hasEdge(1, 3));
    EXPECT_TRUE(hasEdge(2, 3));
    EXPECT_FALSE(hasEdge(1, 2));

    // Paths: S1-S2-S4 and S1-S3-S4 (Fig. 8 step 4).
    auto paths = graph.collectPaths();
    ASSERT_EQ(paths.size(), 2u);
    EXPECT_EQ(paths[0], (std::vector<size_t>{0, 1, 3}));
    EXPECT_EQ(paths[1], (std::vector<size_t>{0, 2, 3}));

    // S4 is the GEMM-like node: reduction dimension k (level 2), with a
    // loop-carried dependence at the innermost level.
    const auto &s4_info = graph.nodes()[3];
    ASSERT_FALSE(s4_info.selfDeps.empty());
    ASSERT_EQ(s4_info.reductionDims.size(), 1u);
    EXPECT_EQ(s4_info.reductionDims[0], 2u);
    EXPECT_TRUE(s4_info.innermostCarried);

    // The hint: interchange a free level innermost (Fig. 8 "Guidance").
    Hint hint = graph.suggest(3);
    EXPECT_EQ(hint.kind, Hint::Kind::Interchange);
    EXPECT_EQ(hint.toLevel, 2u);

    // The graph prints something useful.
    std::string s = graph.str();
    EXPECT_NE(s.find("S4"), std::string::npos);
    EXPECT_NE(s.find("edge"), std::string::npos);
}

TEST(Graph, BicgInnerCarriedSuggestsInterchange)
{
    // q[i] += A[i][j]*p[j]: dependence carried at j (innermost); level i
    // is free -> interchange hint.
    const std::int64_t n = 8;
    Function f("bicg_q");
    Var i("i", 0, n), j("j", 0, n);
    Placeholder A(f, "A", {n, n});
    Placeholder p(f, "p", {n});
    Placeholder q(f, "q", {n});
    Compute s(f, "s", {i, j}, q(i) + A(i, j) * p(j), q(i));

    auto stmts = lower::extractStmts(f);
    DependenceGraph graph(stmts);
    EXPECT_TRUE(graph.nodes()[0].innermostCarried);
    Hint hint = graph.suggest(0);
    EXPECT_EQ(hint.kind, Hint::Kind::Interchange);
    EXPECT_EQ(hint.fromLevel, 0u);
    EXPECT_EQ(hint.toLevel, 1u);
}

TEST(Graph, SeidelLikeSuggestsSkew)
{
    // Seidel-style in-place stencil: every level carries a dependence,
    // interchange cannot help -> skew hint.
    Function f("seidel_like");
    Var i("i", 1, 9), j("j", 1, 9);
    Placeholder A(f, "A", {10, 10});
    Compute s(f, "s", {i, j},
              (A(i - 1, j) + A(i, j - 1) + A(i, j)) / 3.0, A(i, j));
    auto stmts = lower::extractStmts(f);
    DependenceGraph graph(stmts);
    EXPECT_TRUE(graph.nodes()[0].innermostCarried);
    Hint hint = graph.suggest(0);
    EXPECT_EQ(hint.kind, Hint::Kind::Skew);
    EXPECT_NE(hint.str(), "");
}

TEST(Graph, NoDependenceNoHint)
{
    const std::int64_t n = 8;
    Function f("copy");
    Var i("i", 0, n), j("j", 0, n);
    Placeholder X(f, "X", {n, n});
    Placeholder Y(f, "Y", {n, n});
    Compute s(f, "s", {i, j}, X(i, j) * 2.0, Y(i, j));
    auto stmts = lower::extractStmts(f);
    DependenceGraph graph(stmts);
    EXPECT_TRUE(graph.nodes()[0].selfDeps.empty());
    EXPECT_FALSE(graph.nodes()[0].innermostCarried);
    EXPECT_EQ(graph.suggest(0).kind, Hint::Kind::None);
}

TEST(Graph, InterchangeLegality)
{
    // Fig. 1 stencil: dependence (1, 1). Interchange (swap both) keeps
    // it lexicographically positive -> legal.
    Function f("diag");
    Var i("i", 1, 9), j("j", 1, 9);
    Placeholder A(f, "A", {10, 10});
    Compute s(f, "s", {i, j}, A(i - 1, j - 1) * 2.0, A(i, j));
    auto stmts = lower::extractStmts(f);
    DependenceGraph graph(stmts);
    EXPECT_TRUE(graph.interchangeIsLegal(0, 0, 1));
}

TEST(Graph, AntiDiagonalInterchangeIllegal)
{
    Function f("anti");
    Var i("i", 1, 8), j("j", 1, 8);
    Placeholder B(f, "B", {10, 10});
    Compute s(f, "s", {i, j}, B(i - 1, j + 1) * 2.0, B(i, j));
    auto stmts = lower::extractStmts(f);
    DependenceGraph graph(stmts);
    EXPECT_FALSE(graph.interchangeIsLegal(0, 0, 1));
}

TEST(Graph, RefreshAfterTransform)
{
    const std::int64_t n = 8;
    Function f("bicg_q");
    Var i("i", 0, n), j("j", 0, n);
    Placeholder A(f, "A", {n, n});
    Placeholder p(f, "p", {n});
    Placeholder q(f, "q", {n});
    Compute s(f, "s", {i, j}, q(i) + A(i, j) * p(j), q(i));
    auto stmts = lower::extractStmts(f);
    ASSERT_EQ(DependenceGraph(stmts).suggest(0).kind,
              Hint::Kind::Interchange);

    // Apply the suggested interchange and rebuild: the dependence is now
    // carried at the outer level, innermost is free.
    transform::interchange(stmts[0], "i", "j");
    DependenceGraph graph(stmts);
    EXPECT_FALSE(graph.nodes()[0].innermostCarried);
    EXPECT_EQ(graph.suggest(0).kind, Hint::Kind::None);
}

TEST(Graph, SingletonPath)
{
    Function f("one");
    Var i("i", 0, 4);
    Placeholder X(f, "X", {4});
    Compute s(f, "s", {i}, X(i) + 1.0, X(i));
    auto stmts = lower::extractStmts(f);
    DependenceGraph graph(stmts);
    auto paths = graph.collectPaths();
    ASSERT_EQ(paths.size(), 1u);
    EXPECT_EQ(paths[0], (std::vector<size_t>{0}));
}

} // namespace
