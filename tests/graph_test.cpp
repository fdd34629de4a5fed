/**
 * @file
 * Tests for what stage 1 reads of the dependence-graph IR (paper §V.A,
 * Fig. 8): the coarse producer/consumer relation between computes
 * (poly::producesFor), each statement's transformation hint
 * (dse::suggestHint) and the interchange-legality check beside it. The
 * hint is held to a reference that reads full distance vectors for
 * every statement, while suggestHint asks for them only when the
 * innermost loop carries a dependence.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "check/fuzzer.h"
#include "dse/dse.h"
#include "dsl/dsl.h"
#include "lower/lower.h"
#include "obs/obs.h"
#include "poly/dependence.h"
#include "transform/poly_stmt.h"
#include "workloads/workloads.h"

namespace {

using namespace pom;
using dse::Hint;
using dse::interchangeIsLegal;
using dse::suggestHint;
using dsl::Compute;
using dsl::Function;
using dsl::Placeholder;
using dsl::Var;

/** Does a dependence of @p stmt sit at its innermost loop? */
bool
innermostCarried(const transform::PolyStmt &stmt)
{
    for (const auto &d : transform::carriedDependences(stmt)) {
        if (d.level + 1 == stmt.numDims())
            return true;
    }
    return false;
}

/**
 * The reference hint: the same three steps over the full distance
 * vectors of every statement, innermost or not, the way the
 * dependence graph computed them before suggestHint.
 */
Hint
referenceHint(const transform::PolyStmt &stmt)
{
    const auto deps = transform::selfDependences(stmt);
    const size_t n = stmt.numDims();
    std::vector<bool> carried(n, false);
    for (const auto &d : deps)
        carried[d.level] = true;
    Hint hint;
    if (n < 2 || !carried[n - 1])
        return hint;

    auto legal = [&](size_t a, size_t b) {
        for (const auto &d : deps) {
            std::vector<size_t> order(n);
            for (size_t i = 0; i < n; ++i)
                order[i] = i;
            std::swap(order[a], order[b]);
            bool decided = false;
            for (size_t pos = 0; pos < n && !decided; ++pos) {
                size_t k = order[pos];
                if (d.distLo[k] && *d.distLo[k] > 0)
                    decided = true;
                else if (d.distLo[k] && d.distHi[k] && *d.distLo[k] == 0 &&
                         *d.distHi[k] == 0)
                    continue;
                else
                    return false;
            }
        }
        return true;
    };
    auto carriedAfter = [&](const poly::Dependence &d,
                            const std::vector<size_t> &order) {
        for (size_t pos = 0; pos < n; ++pos) {
            size_t k = order[pos];
            if (d.distLo[k] && *d.distLo[k] > 0)
                return pos;
            if (d.distLo[k] && d.distHi[k] && *d.distLo[k] == 0 &&
                *d.distHi[k] == 0)
                continue;
            return n;
        }
        return n;
    };
    auto interchange = [&](size_t l) {
        hint.kind = Hint::Kind::Interchange;
        hint.fromLevel = l;
        hint.toLevel = n - 1;
        return hint;
    };

    for (size_t l = 0; l < n - 1; ++l) {
        if (!carried[l] && legal(l, n - 1))
            return interchange(l);
    }
    for (size_t l = 0; l + 1 < n; ++l) {
        if (!legal(l, n - 1))
            continue;
        std::vector<size_t> order(n);
        for (size_t i = 0; i < n; ++i)
            order[i] = i;
        std::swap(order[l], order[n - 1]);
        bool frees = true;
        for (const auto &d : deps)
            frees &= carriedAfter(d, order) < n - 1;
        if (frees)
            return interchange(l);
    }
    for (size_t l = 0; l < n; ++l) {
        if (!carried[l])
            return hint;
    }
    hint.kind = Hint::Kind::Skew;
    return hint;
}

/** The work counters of the two dependence memos: {full, carried}. */
std::vector<std::int64_t>
analyses()
{
    return {obs::counterValue("dep.analyses"),
            obs::counterValue("dep.carried.analyses")};
}

/** bicg's q[i] += A[i][j] * p[j]: carried at j, the innermost loop. */
struct BicgQ
{
    static constexpr std::int64_t n = 8;
    Function f{"bicg_q"};
    Var i{"i", 0, n}, j{"j", 0, n};
    Placeholder A{f, "A", {n, n}};
    Placeholder p{f, "p", {n}};
    Placeholder q{f, "q", {n}};
    Compute s{f, "s", {i, j}, q(i) + A(i, j) * p(j), q(i)};
};

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
    ASSERT_EQ(stmts.size(), 4u);
    // Coarse edges in program order: S1->S2, S1->S3, S2->S4, S3->S4.
    auto edge = [&](size_t a, size_t b) {
        return poly::producesFor(stmts[a].accesses, stmts[b].accesses);
    };
    EXPECT_TRUE(edge(0, 1));
    EXPECT_TRUE(edge(0, 2));
    EXPECT_TRUE(edge(1, 3));
    EXPECT_TRUE(edge(2, 3));
    EXPECT_FALSE(edge(1, 2));

    // S4 is the GEMM-like node, with a loop-carried dependence at the
    // innermost level (its reduction dimension k).
    EXPECT_FALSE(transform::selfDependences(stmts[3]).empty());
    EXPECT_TRUE(innermostCarried(stmts[3]));

    // The hint: interchange a free level innermost (Fig. 8 "Guidance").
    Hint hint = suggestHint(stmts[3]);
    EXPECT_EQ(hint.kind, Hint::Kind::Interchange);
    EXPECT_EQ(hint.toLevel, 2u);
}

TEST(Graph, BicgInnerCarriedSuggestsInterchange)
{
    // Dependence carried at j (innermost); level i is free ->
    // interchange hint.
    BicgQ w;
    auto stmts = lower::extractStmts(w.f);
    EXPECT_TRUE(innermostCarried(stmts[0]));
    Hint hint = suggestHint(stmts[0]);
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
    EXPECT_TRUE(innermostCarried(stmts[0]));
    EXPECT_EQ(suggestHint(stmts[0]).kind, Hint::Kind::Skew);
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
    EXPECT_TRUE(transform::selfDependences(stmts[0]).empty());
    EXPECT_FALSE(innermostCarried(stmts[0]));
    EXPECT_EQ(suggestHint(stmts[0]).kind, Hint::Kind::None);
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
    EXPECT_TRUE(interchangeIsLegal(transform::selfDependences(stmts[0]), 0, 1));
}

TEST(Graph, AntiDiagonalInterchangeIllegal)
{
    Function f("anti");
    Var i("i", 1, 8), j("j", 1, 8);
    Placeholder B(f, "B", {10, 10});
    Compute s(f, "s", {i, j}, B(i - 1, j + 1) * 2.0, B(i, j));
    auto stmts = lower::extractStmts(f);
    EXPECT_FALSE(
        interchangeIsLegal(transform::selfDependences(stmts[0]), 0, 1));
}

TEST(Graph, RefreshAfterTransform)
{
    BicgQ w;
    auto stmts = lower::extractStmts(w.f);
    ASSERT_EQ(suggestHint(stmts[0]).kind, Hint::Kind::Interchange);

    // Apply the suggested interchange and ask again: the dependence is
    // now carried at the outer level, innermost is free.
    transform::interchange(stmts[0], "i", "j");
    EXPECT_FALSE(innermostCarried(stmts[0]));
    EXPECT_EQ(suggestHint(stmts[0]).kind, Hint::Kind::None);
}

TEST(Graph, HintMatchesTheFullVectorReferenceOnFuzzedSchedules)
{
    std::size_t checked = 0, interchanges = 0, skews = 0;
    for (const auto &name : workloads::allNames()) {
        const std::int64_t size = check::defaultFuzzSize(name);
        for (unsigned seed = 1; seed <= 8; ++seed) {
            SCOPED_TRACE(name + " seed " + std::to_string(seed));
            auto gen = workloads::makeByName(name, size);
            auto ops = check::generateSchedule(*gen, seed);
            auto w = workloads::makeByName(name, size);
            ASSERT_TRUE(check::applyScheduleOps(*w, ops));
            auto stmts = lower::extractStmts(w->func());
            lower::applyDirectives(w->func(), stmts);
            for (const auto &stmt : stmts) {
                SCOPED_TRACE(stmt.sched.name);
                const Hint expected = referenceHint(stmt);
                EXPECT_TRUE(suggestHint(stmt) == expected);
                interchanges += expected.kind == Hint::Kind::Interchange;
                skews += expected.kind == Hint::Kind::Skew;
                ++checked;
            }
        }
    }
    EXPECT_GT(checked, workloads::allNames().size() * 8);
    // Every branch of the hint is exercised, not only None.
    EXPECT_GT(interchanges, 0u);
    EXPECT_GT(skews, 0u);
}

TEST(Graph, FreeInnermostLoopReadsOnlyTheCarriedView)
{
    BicgQ w;
    auto stmts = lower::extractStmts(w.f);
    transform::PolyStmt carried = stmts[0];
    transform::PolyStmt freed = stmts[0];
    transform::interchange(freed, "i", "j");

    // Innermost free: the carried view decides, no full vectors.
    transform::clearDependenceMemo();
    std::vector<std::int64_t> before = analyses();
    EXPECT_EQ(suggestHint(freed).kind, Hint::Kind::None);
    EXPECT_EQ(analyses(),
              (std::vector<std::int64_t>{before[0], before[1] + 1}));

    // Innermost carried: the full vectors are read too.
    transform::clearDependenceMemo();
    before = analyses();
    EXPECT_EQ(suggestHint(carried).kind, Hint::Kind::Interchange);
    EXPECT_EQ(analyses(),
              (std::vector<std::int64_t>{before[0] + 1, before[1] + 1}));
}

} // namespace
