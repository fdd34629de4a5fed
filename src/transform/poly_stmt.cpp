#include "transform/poly_stmt.h"

#include <algorithm>
#include <chrono>

#include "obs/obs.h"
#include "support/cache_store.h"
#include "support/diagnostics.h"

namespace pom::transform {

using poly::AffineMap;
using poly::IntegerSet;
using poly::LinearExpr;

std::vector<poly::Access>
PolyStmt::transformedAccesses() const
{
    std::vector<poly::Access> result;
    result.reserve(accesses.size());
    for (const auto &a : accesses) {
        result.push_back(poly::Access{
            a.array, a.map.compose(sched.origMap), a.isWrite});
    }
    return result;
}

size_t
PolyStmt::dimIndex(const std::string &name) const
{
    auto idx = sched.domain.findDim(name);
    if (!idx) {
        support::fatal("compute '" + sched.name + "' has no loop named '" +
                       name + "' (loops: " + sched.domain.str() + ")");
    }
    return *idx;
}

void
interchange(PolyStmt &stmt, const std::string &a, const std::string &b)
{
    size_t d1 = stmt.dimIndex(a);
    size_t d2 = stmt.dimIndex(b);
    if (d1 == d2)
        support::fatal("interchange of a loop with itself: " + a);
    size_t n = stmt.numDims();
    std::vector<size_t> perm(n);
    for (size_t i = 0; i < n; ++i)
        perm[i] = i;
    std::swap(perm[d1], perm[d2]);
    stmt.sched.domain = stmt.sched.domain.permuted(perm);
    stmt.sched.origMap = stmt.sched.origMap.withDomainPermuted(perm);
    std::swap(stmt.sched.hwPerDim[d1], stmt.sched.hwPerDim[d2]);
    stmt.carried.reset();
}

void
split(PolyStmt &stmt, const std::string &name, std::int64_t factor,
      const std::string &outer, const std::string &inner)
{
    if (factor < 2)
        support::fatal("split factor must be >= 2");
    if (stmt.sched.domain.findDim(outer) || stmt.sched.domain.findDim(inner))
        support::fatal("split: new loop name already in use");
    size_t d = stmt.dimIndex(name);
    size_t n = stmt.numDims();

    // Domain: insert (outer, inner) after d with the decomposition
    //   d = factor*outer + inner, 0 <= inner < factor,
    // then project the original dim away.
    IntegerSet dom = stmt.sched.domain.withDimsInserted(d + 1,
                                                        {outer, inner});
    LinearExpr decomp = LinearExpr::dim(n + 2, d) -
                        LinearExpr::dim(n + 2, d + 1).scaled(factor) -
                        LinearExpr::dim(n + 2, d + 2);
    dom.addEquality(decomp);
    dom.addDimBounds(d + 2, 0, factor - 1);
    stmt.sched.domain = dom.projectOut(d);

    // Origin map: substitute the old iterator by factor*outer + inner.
    AffineMap om = stmt.sched.origMap.withDomainDimsInserted(
        d + 1, {outer, inner});
    LinearExpr repl = LinearExpr::dim(n + 2, d + 1).scaled(factor) +
                      LinearExpr::dim(n + 2, d + 2);
    om = om.withDomainDimSubstituted(d, repl).withDomainDimRemoved(d);
    stmt.sched.origMap = om;

    // Annotations: the split loop's annotation does not transfer.
    stmt.sched.hwPerDim.erase(stmt.sched.hwPerDim.begin() + d);
    stmt.sched.hwPerDim.insert(stmt.sched.hwPerDim.begin() + d, 2,
                               ast::HwAnnotation{});

    // Betas gain one inner level.
    stmt.sched.betas.insert(stmt.sched.betas.begin() + d + 1, 0);
    stmt.carried.reset();
}

void
tile(PolyStmt &stmt, const std::string &i, const std::string &j,
     std::int64_t t1, std::int64_t t2, const std::string &i0,
     const std::string &j0, const std::string &i1, const std::string &j1)
{
    size_t di = stmt.dimIndex(i);
    size_t dj = stmt.dimIndex(j);
    if (dj != di + 1) {
        support::fatal("tile expects adjacent loops (" + i + ", " + j +
                       "); interchange first");
    }
    split(stmt, i, t1, i0, i1);
    split(stmt, j, t2, j0, j1);
    // Now (i0, i1, j0, j1); bring the point loops inside: -> (i0, j0,
    // i1, j1).
    interchange(stmt, i1, j0);
}

void
skew(PolyStmt &stmt, const std::string &i, const std::string &j,
     std::int64_t f, const std::string &ip, const std::string &jp)
{
    if (f == 0)
        support::fatal("skew factor must be non-zero");
    if (stmt.sched.domain.findDim(jp) ||
        (ip != i && stmt.sched.domain.findDim(ip)))
        support::fatal("skew: new loop name already in use");
    size_t d1 = stmt.dimIndex(i);
    size_t d2 = stmt.dimIndex(j);
    if (d1 >= d2) {
        support::fatal("skew(" + i + ", " + j + "): '" + i +
                       "' must be an outer loop of '" + j + "'");
    }
    size_t n = stmt.numDims();

    // Domain: new dim jp with jp = j + f*i; project the old j away.
    IntegerSet dom = stmt.sched.domain.withDimsInserted(d2 + 1, {jp});
    LinearExpr eq = LinearExpr::dim(n + 1, d2 + 1) -
                    LinearExpr::dim(n + 1, d2) -
                    LinearExpr::dim(n + 1, d1).scaled(f);
    dom.addEquality(eq);
    dom = dom.projectOut(d2);
    stmt.sched.domain = dom.withDimRenamed(d1, ip);

    // Origin map: old j = jp - f*i.
    AffineMap om = stmt.sched.origMap.withDomainDimsInserted(d2 + 1, {jp});
    LinearExpr repl = LinearExpr::dim(n + 1, d2 + 1) -
                      LinearExpr::dim(n + 1, d1).scaled(f);
    om = om.withDomainDimSubstituted(d2, repl).withDomainDimRemoved(d2);
    stmt.sched.origMap = om.withDomainDimRenamed(d1, ip);

    // Loop structure (count, nesting) is unchanged; annotations at the
    // skewed level are reset since the loop changed meaning.
    stmt.sched.hwPerDim[d2] = ast::HwAnnotation{};
    stmt.carried.reset();
}

void
placeAfter(PolyStmt &stmt, const PolyStmt &anchor, size_t shared_levels)
{
    if (shared_levels > anchor.numDims() || shared_levels > stmt.numDims()) {
        support::fatal("placeAfter: cannot share " +
                       std::to_string(shared_levels) + " levels");
    }
    for (size_t k = 0; k < shared_levels; ++k)
        stmt.sched.betas[k] = anchor.sched.betas[k];
    stmt.sched.betas[shared_levels] =
        anchor.sched.betas[shared_levels] + 1;
}

void
fuseInto(PolyStmt &stmt, const PolyStmt &anchor)
{
    size_t shared = std::min(stmt.numDims(), anchor.numDims());
    placeAfter(stmt, anchor, shared);
}

void
setPipeline(PolyStmt &stmt, const std::string &name, int ii)
{
    if (ii < 1)
        support::fatal("pipeline II must be >= 1");
    stmt.sched.hwPerDim.at(stmt.dimIndex(name)).pipelineII = ii;
}

void
setUnroll(PolyStmt &stmt, const std::string &name, std::int64_t factor)
{
    if (factor < 0)
        support::fatal("unroll factor must be >= 0");
    stmt.sched.hwPerDim.at(stmt.dimIndex(name)).unrollFactor = factor;
}

namespace {

/**
 * Entry cap of each dependence memo. One search analyses few distinct
 * statements (13 for vgg16, 20 for resnet18; the statements stage 2
 * schedules carry their views), so the cap only bounds a long-lived
 * daemon.
 */
constexpr std::size_t kDependenceMemoCap = 4096;

template <typename Dep>
using DependenceMemo = support::ContentCache<std::vector<Dep>>;

/**
 * The process-wide memo of one view, in memory only. Creates every
 * `dep.*` counter at zero so each metrics report has them.
 */
template <typename Dep>
DependenceMemo<Dep> &
dependenceMemo()
{
    static DependenceMemo<Dep> *memo = [] {
        obs::counterAdd("dep.analyses", 0);
        obs::counterAdd("dep.carried.analyses", 0);
        obs::counterAdd("dep.memo.hits", 0);
        obs::counterAdd("dep.memo.evictions", 0);
        return new DependenceMemo<Dep>("dep.memo.evictions",
                                       kDependenceMemoCap);
    }();
    return *memo;
}

/** Append @p v to a memo key as its 8 native bytes. */
void
putInt(std::string &key, std::int64_t v)
{
    key.append(reinterpret_cast<const char *>(&v), sizeof(v));
}

/** Append @p text to a memo key, prefixed with its length. */
void
putName(std::string &key, const std::string &text)
{
    putInt(key, static_cast<std::int64_t>(text.size()));
    key += text;
}

/** Append @p names to a memo key, prefixed with their count. */
void
putNames(std::string &key, const std::vector<std::string> &names)
{
    putInt(key, static_cast<std::int64_t>(names.size()));
    for (const auto &name : names)
        putName(key, name);
}

/**
 * The memo key: everything the analysis reads, in a binary encoding of
 * exactly the fields the domain and access prints spell out. The
 * domain's dim names, then its constraint rows (appendRowsKey(): per
 * row the coefficients, the constant and the kind); then each access
 * in order: its array, its read/write flag, its map's domain dims and
 * per result row the coefficients and the constant. Every name and
 * list is length-prefixed and a row's width is its space's dim count,
 * so the encoding is exact: equal keys mean equal inputs, as with the
 * prints.
 */
std::string
dependenceKey(const poly::IntegerSet &domain,
              const std::vector<poly::Access> &accesses)
{
    std::string key;
    putNames(key, domain.dimNames());
    domain.appendRowsKey(key);
    putInt(key, static_cast<std::int64_t>(accesses.size()));
    for (const auto &a : accesses) {
        putName(key, a.array);
        key += a.isWrite ? 'W' : 'R';
        putNames(key, a.map.domainDims());
        putInt(key, static_cast<std::int64_t>(a.map.numResults()));
        for (const auto &row : a.map.results()) {
            for (std::int64_t c : row.coeffs())
                putInt(key, c);
            putInt(key, row.constantTerm());
        }
    }
    return key;
}

/**
 * One view's memoized answer for @p key, or @p analyze()'s, stored
 * there on a miss (counted in @p missCounter).
 */
template <typename Dep, typename Analyze>
std::vector<Dep>
memoized(const std::string &key, const char *missCounter, Analyze analyze)
{
    DependenceMemo<Dep> &memo = dependenceMemo<Dep>();
    if (auto hit = memo.lookup(key)) {
        obs::counterAdd("dep.memo.hits");
        return std::move(*hit);
    }
    // Two threads missing on one key both analyze; the analysis is
    // deterministic and the first store wins, so callers agree.
    obs::counterAdd(missCounter);
    std::vector<Dep> deps = analyze();
    memo.store(key, deps);
    return deps;
}

/** @p analyze(), its time added to `dep.analysis_seconds`. */
template <typename Analyze>
auto
timed(Analyze analyze)
{
    auto start = std::chrono::steady_clock::now();
    auto deps = analyze();
    obs::accumulate("dep.analysis_seconds",
                    std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - start)
                        .count());
    return deps;
}

/** The carried view of @p domain and @p accesses, whose key is @p key. */
std::vector<poly::CarriedDependence>
memoizedCarried(const poly::IntegerSet &domain,
                const std::vector<poly::Access> &accesses,
                const std::string &key)
{
    return memoized<poly::CarriedDependence>(
        key, "dep.carried.analyses", [&] {
            return timed([&] {
                return poly::analyzeCarriedDependences(domain, accesses);
            });
        });
}

} // namespace

std::vector<poly::Dependence>
selfDependences(const PolyStmt &stmt)
{
    const poly::IntegerSet &domain = stmt.sched.domain;
    const std::vector<poly::Access> accesses = stmt.transformedAccesses();
    const std::string key = dependenceKey(domain, accesses);
    return memoized<poly::Dependence>(key, "dep.analyses", [&] {
        const std::vector<poly::CarriedDependence> carried =
            stmt.carried ? *stmt.carried
                         : memoizedCarried(domain, accesses, key);
        return timed([&] {
            return poly::analyzeSelfDependences(domain, accesses, carried);
        });
    });
}

std::vector<poly::CarriedDependence>
carriedDependences(const PolyStmt &stmt)
{
    if (stmt.carried)
        return *stmt.carried;
    const std::vector<poly::Access> accesses = stmt.transformedAccesses();
    return memoizedCarried(stmt.sched.domain, accesses,
                           dependenceKey(stmt.sched.domain, accesses));
}

void
clearDependenceMemo()
{
    dependenceMemo<poly::Dependence>().clear();
    dependenceMemo<poly::CarriedDependence>().clear();
}

} // namespace pom::transform
