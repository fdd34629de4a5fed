/**
 * @file
 * Property tests for the two dependence memos, of the full view
 * (transform::selfDependences) and the carried-level view
 * (transform::carriedDependences), checked against the direct
 * analyses: the DSE journal differentials cannot catch a wrong memo
 * answer, because both of their sides read the memo. The carried view
 * is held to the full analysis restricted to its fields the same way.
 *
 * The reference full analysis is the all-triples loop the library ran
 * before the full view extended the carried one (allTriples()), kept
 * here as fm_kernel_test keeps the old FM kernel. The DependenceView
 * tests hold the library's full view to it, and the carried views a
 * parallel schedule derives (PolyStmt::carried) to a fresh analysis.
 */

#include <gtest/gtest.h>

#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "check/fuzzer.h"
#include "dse/dse.h"
#include "lower/lower.h"
#include "obs/obs.h"
#include "poly/dependence.h"
#include "support/diagnostics.h"
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

/**
 * The reference full analysis over 2n dims (s, t): for every (source,
 * sink, level) triple build the polytope of W(s) = R(t), s_k = t_k
 * below the level and t_level >= s_level + 1, test it for emptiness,
 * and range every t_k - s_k over each non-empty one.
 */
std::vector<poly::Dependence>
allTriples(const poly::IntegerSet &domain,
           const std::vector<poly::Access> &accesses)
{
    using poly::LinearExpr;
    const size_t n = domain.numDims();
    std::vector<poly::Dependence> deps;
    for (size_t a = 0; a < accesses.size(); ++a) {
        for (size_t b = 0; b < accesses.size(); ++b) {
            if (accesses[a].array != accesses[b].array)
                continue;
            if (!accesses[a].isWrite && !accesses[b].isWrite)
                continue;
            for (size_t level = 0; level < n; ++level) {
                std::vector<std::string> t_names;
                for (size_t i = 0; i < n; ++i)
                    t_names.push_back("t_" + domain.dimName(i));
                poly::IntegerSet dep =
                    domain.pairedWithCopy(std::move(t_names));
                const poly::AffineMap &src = accesses[a].map;
                const poly::AffineMap &dst = accesses[b].map;
                for (size_t j = 0; j < src.numResults(); ++j) {
                    dep.addEquality(src.result(j).withDimsInserted(n, n) -
                                    dst.result(j).withDimsInserted(0, n));
                }
                for (size_t k = 0; k < level; ++k) {
                    dep.addEquality(LinearExpr::dim(2 * n, n + k) -
                                    LinearExpr::dim(2 * n, k));
                }
                LinearExpr strict = LinearExpr::dim(2 * n, n + level) -
                                    LinearExpr::dim(2 * n, level);
                strict.setConstantTerm(-1);
                dep.addInequality(strict);
                if (dep.isEmpty())
                    continue;

                poly::Dependence d;
                d.array = accesses[a].array;
                d.srcAccess = a;
                d.dstAccess = b;
                d.level = level;
                for (size_t k = 0; k < n; ++k) {
                    auto [lo, hi] = poly::exprRange(
                        dep, LinearExpr::dim(2 * n, n + k) -
                                 LinearExpr::dim(2 * n, k));
                    d.distLo.push_back(lo);
                    d.distHi.push_back(hi);
                }
                d.carriedDistance =
                    d.distLo[level] ? std::max<std::int64_t>(
                                          1, *d.distLo[level])
                                    : 1;
                deps.push_back(std::move(d));
            }
        }
    }
    return deps;
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
    return strs(allTriples(stmt.sched.domain, stmt.transformedAccesses()));
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
                const auto full = allTriples(stmt.sched.domain,
                                             stmt.transformedAccesses());
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
                                                     before[1] + 1}))
                    << "a full miss reads the carried view, a miss too";
                EXPECT_EQ(obs::counterValue("dep.memo.hits"), hits);

                EXPECT_EQ(memoized(stmt), expected);
                EXPECT_EQ(obs::counterValue("dep.memo.hits"), hits + 1);

                EXPECT_EQ(memoizedCarried(stmt), expectedCarried);
                EXPECT_EQ(analyses(),
                          (std::vector<std::int64_t>{before[0] + 1,
                                                     before[1] + 1}))
                    << "the full miss stored the carried view";
                EXPECT_EQ(obs::counterValue("dep.memo.hits"), hits + 2);

                EXPECT_EQ(memoizedCarried(stmt), expectedCarried);
                EXPECT_EQ(analyses(),
                          (std::vector<std::int64_t>{before[0] + 1,
                                                     before[1] + 1}))
                    << "repeat calls must not re-analyse";
                EXPECT_EQ(obs::counterValue("dep.memo.hits"), hits + 3);
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
        auto full = allTriples(stmt->sched.domain,
                               stmt->transformedAccesses());
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

// ----- the carried view a statement carries ---------------------------

namespace {

/** A carried view holding @p deps. */
transform::CarriedView
viewOf(std::vector<poly::CarriedDependence> deps)
{
    return std::make_shared<const std::vector<poly::CarriedDependence>>(
        std::move(deps));
}

/**
 * Holds each statement's own carried view to a fresh analysis of its
 * domain and transformed accesses; analyses are shared between
 * statements with equal prints.
 */
class ViewCheck
{
  public:
    /** Check @p stmt; true if it holds a view. */
    bool
    operator()(const transform::PolyStmt &stmt)
    {
        ++statements_;
        if (!stmt.carried)
            return false;
        ++views_;
        const std::vector<poly::Access> accesses =
            stmt.transformedAccesses();
        std::string key = stmt.sched.domain.str();
        for (const auto &a : accesses)
            key += "\n" + a.array + (a.isWrite ? " W " : " R ") +
                   a.map.str();
        auto it = analysed_.find(key);
        if (it == analysed_.end()) {
            it = analysed_
                     .emplace(key, strs(poly::analyzeCarriedDependences(
                                       stmt.sched.domain, accesses)))
                     .first;
        }
        EXPECT_EQ(strs(*stmt.carried), it->second)
            << stmt.sched.name << " over " << stmt.sched.domain.str();
        return true;
    }

    std::size_t statements() const { return statements_; }
    std::size_t views() const { return views_; }

  private:
    std::map<std::string, std::vector<std::string>> analysed_;
    std::size_t statements_ = 0;
    std::size_t views_ = 0;
};

/**
 * applyParallelSchedule() on a copy of each of @p stmts (each without
 * a view, as a search's statements are) at degrees 2 to 64 and every
 * min_level, with and without ignore_carried; every statement it
 * returns goes to @p check. A schedule the transforms refuse is
 * skipped.
 */
void
sweepParallelSchedules(const dsl::Function &func,
                       const std::vector<transform::PolyStmt> &stmts,
                       ViewCheck &check)
{
    for (const auto &base : stmts) {
        for (size_t min_level = 0; min_level < base.numDims(); ++min_level) {
            for (std::int64_t degree = 2; degree <= 64; degree *= 2) {
                for (bool ignore : {false, true}) {
                    transform::PolyStmt stmt = base;
                    stmt.carried.reset();
                    std::map<std::string, std::vector<std::int64_t>> parts;
                    try {
                        dse::applyParallelSchedule(stmt, degree, 16, func,
                                                   parts, min_level,
                                                   ignore);
                    } catch (const support::FatalError &) {
                        continue;
                    }
                    check(stmt);
                }
            }
        }
    }
}

/**
 * The ScaleHLS-like baseline's input statements: @p func's statements
 * under their ordering directives, each nest interchanged as its first
 * statement's hint says (baselines::runFramework does the same).
 */
std::vector<transform::PolyStmt>
scaleHlsInput(const dsl::Function &func)
{
    std::vector<transform::PolyStmt> stmts = lower::extractStmts(func);
    lower::applyDirectives(func, stmts, /*ordering_only=*/true);
    std::map<std::int64_t, dse::Hint> nest_hint;
    for (const auto &stmt : stmts) {
        const std::int64_t nest = stmt.sched.betas[0];
        if (nest_hint.count(nest))
            continue;
        dse::Hint h = dse::suggestHint(stmt);
        if (h.kind == dse::Hint::Kind::Interchange)
            nest_hint[nest] = h;
    }
    for (auto &stmt : stmts) {
        auto it = nest_hint.find(stmt.sched.betas[0]);
        if (it == nest_hint.end() || it->second.toLevel >= stmt.numDims() ||
            it->second.fromLevel >= stmt.numDims()) {
            continue;
        }
        transform::interchange(
            stmt, stmt.sched.domain.dimName(it->second.fromLevel),
            stmt.sched.domain.dimName(it->second.toLevel));
    }
    return stmts;
}

} // namespace

TEST(DependenceView, ParallelSchedulesDeriveTheAnalysedView)
{
    ViewCheck check;
    for (const auto &name : workloads::allNames()) {
        SCOPED_TRACE(name);
        const std::int64_t size = name == "vgg16" || name == "resnet18"
                                      ? 8
                                      : 32;
        // The designs the three strategies select: every statement in
        // them is one applyParallelSchedule() returned in the search.
        for (dse::StrategyKind kind :
             {dse::StrategyKind::Greedy, dse::StrategyKind::Beam,
              dse::StrategyKind::Anneal}) {
            auto w = workloads::makeByName(name, size);
            dse::DseOptions opt;
            opt.strategy = kind;
            dse::DseResult res = dse::autoDSE(w->func(), opt);
            std::size_t views = 0;
            for (const auto &stmt : res.design->lowered.stmts)
                views += check(stmt);
            EXPECT_EQ(views, res.design->lowered.stmts.size())
                << "a search splits no carrying loop";

            // Stage 1's statements, from the degree-1 point every
            // search starts from, at every degree a strategy can reach.
            if (kind != dse::StrategyKind::Greedy)
                continue;
            auto again = workloads::makeByName(name, size);
            dse::ReplayResult init =
                dse::replayPoint(again->func(), res.journal, 1);
            sweepParallelSchedules(again->func(), init.design->lowered.stmts,
                                   check);
        }
        // Both variants of the ScaleHLS-like baseline.
        auto w = workloads::makeByName(name, size);
        sweepParallelSchedules(w->func(), scaleHlsInput(w->func()), check);
        // And the statements of fuzzed schedules.
        for (unsigned seed = 1; seed <= 8; ++seed) {
            Scheduled s = scheduled(name, seed);
            sweepParallelSchedules(s.workload->func(), s.stmts, check);
        }
    }
    EXPECT_GT(check.views(), check.statements() / 2);
    std::cout << "[ views    ] " << check.views() << " of "
              << check.statements() << " scheduled statements\n";
}

TEST(DependenceView, DomainTransformsClearTheView)
{
    auto w = workloads::makeByName("gemm", 16);
    const transform::PolyStmt base = lower::extractStmts(w->func())[0];
    const transform::CarriedView view =
        viewOf(transform::carriedDependences(base));
    auto fresh = [&] {
        transform::PolyStmt stmt = base;
        stmt.carried = view;
        return stmt;
    };
    const std::string i = base.sched.domain.dimName(0);
    const std::string j = base.sched.domain.dimName(1);

    transform::PolyStmt split = fresh();
    transform::split(split, j, 4, "j0", "j1");
    EXPECT_EQ(split.carried, nullptr);
    transform::PolyStmt swapped = fresh();
    transform::interchange(swapped, i, j);
    EXPECT_EQ(swapped.carried, nullptr);
    transform::PolyStmt tiled = fresh();
    transform::tile(tiled, i, j, 4, 4, "i0", "j0", "i1", "j1");
    EXPECT_EQ(tiled.carried, nullptr);
    transform::PolyStmt skewed = fresh();
    transform::skew(skewed, i, j, 1, i, "js");
    EXPECT_EQ(skewed.carried, nullptr);

    // Each falls back to the analysis of its new domain.
    for (const auto *stmt : {&split, &swapped, &tiled, &skewed}) {
        EXPECT_EQ(memoizedCarried(*stmt), directCarried(*stmt));
    }
}

TEST(DependenceView, AnnotationsAndOrderingKeepTheView)
{
    auto w = workloads::makeByName("2mm", 16);
    const std::vector<transform::PolyStmt> stmts =
        lower::extractStmts(w->func());
    ASSERT_GE(stmts.size(), 2u);
    // A view no analysis would find: carriedDependences() must return
    // it as it is.
    const transform::CarriedView view =
        viewOf({poly::CarriedDependence{"marker", 0, 0, 0, 7}});
    transform::PolyStmt stmt = stmts[1];
    stmt.carried = view;
    const std::string inner = stmt.sched.domain.dimName(stmt.numDims() - 1);
    transform::setPipeline(stmt, inner, 1);
    transform::setUnroll(stmt, inner, 2);
    transform::placeAfter(stmt, stmts[0], 1);
    transform::fuseInto(stmt, stmts[0]);
    EXPECT_EQ(stmt.carried, view);
    const std::int64_t carried = obs::counterValue("dep.carried.analyses");
    EXPECT_EQ(transform::carriedDependences(stmt), *view);
    EXPECT_EQ(obs::counterValue("dep.carried.analyses"), carried);
}

TEST(DependenceView, FullViewMatchesAllTriplesReference)
{
    // Every statement of DependenceMemo.MatchesDirectAnalysisOnFuzzedSchedules:
    // the full view, which ranges only the polytopes the carried view
    // lists, equals the reference that tests every triple.
    std::size_t checked = 0;
    for (const auto &name : workloads::allNames()) {
        for (unsigned seed = 1; seed <= 8; ++seed) {
            SCOPED_TRACE(name + " seed " + std::to_string(seed));
            Scheduled s = scheduled(name, seed);
            for (const auto &stmt : s.stmts) {
                SCOPED_TRACE(stmt.sched.name);
                const auto accesses = stmt.transformedAccesses();
                const auto &domain = stmt.sched.domain;
                EXPECT_EQ(strs(poly::analyzeSelfDependences(
                              domain, accesses,
                              poly::analyzeCarriedDependences(domain,
                                                              accesses))),
                          strs(allTriples(domain, accesses)));
                ++checked;
            }
        }
    }
    EXPECT_GT(checked, workloads::allNames().size() * 8);
}
