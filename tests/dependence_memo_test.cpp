/**
 * @file
 * Property tests for the two dependence memos, of the full view
 * (transform::selfDependences) and the carried-level view
 * (transform::carriedDependences), checked against the direct
 * analyses: the DSE journal differentials cannot catch a wrong memo
 * answer, because both of their sides read the memo. The carried view
 * is held to the full analysis restricted to its fields the same way.
 */

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "check/fuzzer.h"
#include "lower/lower.h"
#include "obs/obs.h"
#include "poly/dependence.h"
#include "transform/poly_stmt.h"
#include "workloads/workloads.h"

namespace {

using namespace pom;

/** Every field of each dependence, one string per dependence. */
std::vector<std::string>
strs(const std::vector<poly::Dependence> &deps)
{
    auto bound = [](const std::optional<std::int64_t> &v) {
        return v ? std::to_string(*v) : std::string("inf");
    };
    std::vector<std::string> out;
    out.reserve(deps.size());
    for (const auto &d : deps) {
        std::string s = d.str() + " src=" + std::to_string(d.srcAccess) +
                        " dst=" + std::to_string(d.dstAccess) +
                        " carried=" + std::to_string(d.carriedDistance);
        for (size_t k = 0; k < d.distLo.size(); ++k)
            s += " [" + bound(d.distLo[k]) + "," + bound(d.distHi[k]) + "]";
        out.push_back(std::move(s));
    }
    return out;
}

/** Every field of each carried dependence, one string per dependence. */
std::vector<std::string>
strs(const std::vector<poly::CarriedDependence> &deps)
{
    std::vector<std::string> out;
    out.reserve(deps.size());
    for (const auto &d : deps) {
        out.push_back(d.array + "@level" + std::to_string(d.level) +
                      " src=" + std::to_string(d.srcAccess) +
                      " dst=" + std::to_string(d.dstAccess) +
                      " carried=" + std::to_string(d.carriedDistance));
    }
    return out;
}

/** The full analysis restricted to the carried view's fields. */
std::vector<poly::CarriedDependence>
carriedPart(const std::vector<poly::Dependence> &deps)
{
    return {deps.begin(), deps.end()};
}

/** The reference: dependence analysis with no memo in between. */
std::vector<std::string>
direct(const transform::PolyStmt &stmt)
{
    return strs(poly::analyzeSelfDependences(stmt.sched.domain,
                                             stmt.transformedAccesses()));
}

std::vector<std::string>
directCarried(const transform::PolyStmt &stmt)
{
    return strs(poly::analyzeCarriedDependences(
        stmt.sched.domain, stmt.transformedAccesses()));
}

std::vector<std::string>
memoized(const transform::PolyStmt &stmt)
{
    return strs(transform::selfDependences(stmt));
}

std::vector<std::string>
memoizedCarried(const transform::PolyStmt &stmt)
{
    return strs(transform::carriedDependences(stmt));
}

/** The two work counters of the memos: {full, carried} analyses. */
std::vector<std::int64_t>
analyses()
{
    return {obs::counterValue("dep.analyses"),
            obs::counterValue("dep.carried.analyses")};
}

/** A workload's statements after a fuzzer-generated schedule. */
struct Scheduled
{
    std::unique_ptr<workloads::Workload> workload; ///< owns the computes
    std::vector<transform::PolyStmt> stmts;
};

Scheduled
scheduled(const std::string &name, unsigned seed)
{
    const std::int64_t size = check::defaultFuzzSize(name);
    auto gen = workloads::makeByName(name, size);
    auto ops = check::generateSchedule(*gen, seed);
    Scheduled out;
    out.workload = workloads::makeByName(name, size);
    EXPECT_TRUE(check::applyScheduleOps(*out.workload, ops));
    out.stmts = lower::extractStmts(out.workload->func());
    lower::applyDirectives(out.workload->func(), out.stmts);
    return out;
}

/**
 * S(i, j) over 0 <= i <= 7, 1 <= j <= jHigh:
 *   A[i][j] = A[i][aCoeff*j - 1] + B[j][i]
 * which carries a dependence on A at level 1.
 */
transform::PolyStmt
stencilStmt(std::int64_t jHigh, std::int64_t aCoeff)
{
    const std::vector<std::string> dims = {"i", "j"};
    transform::PolyStmt stmt;
    stmt.sched.name = "S";
    stmt.sched.domain = poly::IntegerSet(dims);
    stmt.sched.domain.addDimBounds(0, 0, 7);
    stmt.sched.domain.addDimBounds(1, 1, jHigh);
    stmt.sched.origMap = poly::AffineMap::identity(dims);
    stmt.sched.betas = {0, 0, 0};
    stmt.sched.hwPerDim.resize(2);
    auto i = poly::LinearExpr::dim(2, 0);
    auto j = poly::LinearExpr::dim(2, 1);
    auto one = poly::LinearExpr::constant(2, 1);
    stmt.accesses = {
        {"A", poly::AffineMap(dims, {i, j}), true},
        {"A", poly::AffineMap(dims, {i, j.scaled(aCoeff) - one}), false},
        {"B", poly::AffineMap(dims, {j, i}), false},
    };
    return stmt;
}

} // namespace

TEST(DependenceMemo, MatchesDirectAnalysisOnFuzzedSchedules)
{
    std::size_t checked = 0;
    for (const auto &name : workloads::allNames()) {
        for (unsigned seed = 1; seed <= 8; ++seed) {
            SCOPED_TRACE(name + " seed " + std::to_string(seed));
            Scheduled s = scheduled(name, seed);
            ASSERT_FALSE(s.stmts.empty());
            for (const auto &stmt : s.stmts) {
                SCOPED_TRACE(stmt.sched.name);
                const auto full = poly::analyzeSelfDependences(
                    stmt.sched.domain, stmt.transformedAccesses());
                const auto expected = strs(full);
                const auto expectedCarried = strs(carriedPart(full));
                EXPECT_EQ(directCarried(stmt), expectedCarried)
                    << "the carried view differs from the full analysis";
                transform::clearDependenceMemo();

                const std::vector<std::int64_t> before = analyses();
                std::int64_t hits = obs::counterValue("dep.memo.hits");
                EXPECT_EQ(memoized(stmt), expected);
                EXPECT_EQ(analyses(),
                          (std::vector<std::int64_t>{before[0] + 1,
                                                     before[1]}))
                    << "first full call must be a full miss";
                EXPECT_EQ(obs::counterValue("dep.memo.hits"), hits);

                EXPECT_EQ(memoized(stmt), expected);
                EXPECT_EQ(obs::counterValue("dep.memo.hits"), hits + 1);

                EXPECT_EQ(memoizedCarried(stmt), expectedCarried);
                EXPECT_EQ(analyses(),
                          (std::vector<std::int64_t>{before[0] + 1,
                                                     before[1] + 1}))
                    << "first carried call must be a carried miss";
                EXPECT_EQ(obs::counterValue("dep.memo.hits"), hits + 1);

                EXPECT_EQ(memoizedCarried(stmt), expectedCarried);
                EXPECT_EQ(analyses(),
                          (std::vector<std::int64_t>{before[0] + 1,
                                                     before[1] + 1}))
                    << "repeat calls must not re-analyse";
                EXPECT_EQ(obs::counterValue("dep.memo.hits"), hits + 2);
                ++checked;
            }
        }
    }
    EXPECT_GT(checked, workloads::allNames().size() * 8);
}

TEST(DependenceMemo, NearlyEqualStatementsNeverShareAnEntry)
{
    const transform::PolyStmt base = stencilStmt(7, 1);
    std::vector<std::pair<std::string, transform::PolyStmt>> variants;
    variants.emplace_back("domain bound", stencilStmt(8, 1));
    variants.emplace_back("access coefficient", stencilStmt(7, 2));
    transform::PolyStmt flag = base;
    flag.accesses[2].isWrite = true;
    variants.emplace_back("read/write flag", flag);
    transform::PolyStmt order = base;
    std::swap(order.accesses[1], order.accesses[2]);
    variants.emplace_back("access order", order);

    // Inputs a binary key could conflate where the prints differ: the
    // key must still spell out each name, row kind, constant and count.
    transform::PolyStmt renamed = base;
    renamed.sched.domain = base.sched.domain.withDimRenamed(1, "jj");
    renamed.sched.origMap = base.sched.origMap.withDomainDimRenamed(1, "jj");
    variants.emplace_back("renamed loop dimension", renamed);
    transform::PolyStmt array = base;
    array.accesses[2].array = "C";
    variants.emplace_back("array name", array);
    const auto diagonal = poly::LinearExpr({1, -1}, 0); // i - j
    transform::PolyStmt ineq = base;
    ineq.sched.domain.addInequality(diagonal);
    variants.emplace_back("row as an inequality", ineq);
    transform::PolyStmt eq = base;
    eq.sched.domain.addEquality(diagonal);
    variants.emplace_back("same row as an equality", eq);
    transform::PolyStmt shifted = base;
    poly::LinearExpr col = base.accesses[1].map.result(1);
    col.setConstantTerm(col.constantTerm() - 1);
    shifted.accesses[1].map.setResult(1, col);
    variants.emplace_back("access constant term", shifted);
    // One more loop of a single trip: the domain and every transformed
    // access map range over three dims.
    transform::PolyStmt wider = base;
    wider.sched.domain = base.sched.domain.withDimsInserted(2, {"k"});
    wider.sched.domain.addDimBounds(2, 0, 0);
    wider.sched.origMap = base.sched.origMap.withDomainDimsInserted(2, {"k"});
    wider.sched.betas.push_back(0);
    wider.sched.hwPerDim.resize(3);
    variants.emplace_back("access maps over one more dim", wider);

    transform::clearDependenceMemo();
    EXPECT_EQ(memoized(base), direct(base));
    EXPECT_EQ(memoizedCarried(base), directCarried(base));
    EXPECT_FALSE(direct(base).empty());
    for (const auto &[what, stmt] : variants) {
        SCOPED_TRACE(what);
        // Every earlier input is still memoized; this one must miss,
        // in each view.
        const std::vector<std::int64_t> before = analyses();
        EXPECT_EQ(memoized(stmt), direct(stmt));
        EXPECT_EQ(memoizedCarried(stmt), directCarried(stmt));
        EXPECT_EQ(analyses(), (std::vector<std::int64_t>{before[0] + 1,
                                                         before[1] + 1}));
    }
    // And the base entries were not overwritten by any variant.
    const std::vector<std::int64_t> before = analyses();
    EXPECT_EQ(memoized(base), direct(base));
    EXPECT_EQ(memoizedCarried(base), directCarried(base));
    EXPECT_EQ(analyses(), before);
}

TEST(DependenceMemo, ConcurrentCallersAgree)
{
    std::vector<Scheduled> all;
    std::vector<const transform::PolyStmt *> stmts;
    for (const auto &name : workloads::allNames())
        all.push_back(scheduled(name, 1));
    for (const auto &s : all)
        for (const auto &stmt : s.stmts)
            stmts.push_back(&stmt);
    // Per statement, the full view then the carried view.
    std::vector<std::vector<std::string>> expected;
    for (const auto *stmt : stmts) {
        auto full = poly::analyzeSelfDependences(
            stmt->sched.domain, stmt->transformedAccesses());
        expected.push_back(strs(full));
        expected.push_back(strs(carriedPart(full)));
    }

    // Two passes: the first races on misses, the second on hits.
    std::vector<std::vector<std::string>> twice = expected;
    twice.insert(twice.end(), expected.begin(), expected.end());

    transform::clearDependenceMemo();
    constexpr int kThreads = 4;
    std::vector<std::vector<std::vector<std::string>>> got(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int pass = 0; pass < 2; ++pass) {
                for (const auto *stmt : stmts) {
                    got[t].push_back(memoized(*stmt));
                    got[t].push_back(memoizedCarried(*stmt));
                }
            }
        });
    }
    for (auto &thread : threads)
        thread.join();
    for (int t = 0; t < kThreads; ++t)
        EXPECT_EQ(got[t], twice) << "thread " << t;
}
