#include "hls/count.h"

#include <algorithm>
#include <cstddef>

#include "obs/obs.h"
#include "support/cache_store.h"
#include "support/diagnostics.h"
#include "support/math_util.h"

namespace pom::hls {

using poly::DimBounds;
using poly::IntegerSet;

namespace {

/**
 * @p expr, a bound of dim `level` over dims [0, level], at @p prefix:
 * LinearExpr::evaluate()'s sum without its last term, the bound's own
 * dim, whose coefficient boundsForCodegen() leaves zero.
 */
std::int64_t
boundAt(const poly::LinearExpr &expr, const std::int64_t *prefix)
{
    const std::vector<std::int64_t> &coeffs = expr.coeffs();
    std::int64_t v = expr.constantTerm();
    for (size_t i = 0; i + 1 < coeffs.size(); ++i)
        v += coeffs[i] * prefix[i];
    return v;
}

/**
 * Recursive counting over dims [level, n) of @p bounds. @p prefix, one
 * buffer for the whole walk, holds the values of dims [0, level). A
 * level that no deeper bound references (@p referenced, one flag per
 * level) has the same count below it for every value, so its width
 * multiplies; only referenced levels are walked value by value.
 */
std::int64_t
countFrom(const std::vector<DimBounds> &bounds,
          const std::vector<bool> &referenced, std::int64_t *prefix,
          size_t level)
{
    if (level == bounds.size())
        return 1;

    const DimBounds &b = bounds[level];
    POM_ASSERT(!b.lower.empty() && !b.upper.empty(),
               "countPoints on unbounded set");
    std::int64_t lo = 0, hi = -1;
    bool first = true;
    for (const auto &bd : b.lower) {
        std::int64_t v = support::ceilDiv(boundAt(bd.expr, prefix),
                                          bd.divisor);
        lo = first ? v : std::max(lo, v);
        first = false;
    }
    first = true;
    for (const auto &bd : b.upper) {
        std::int64_t v = support::floorDiv(boundAt(bd.expr, prefix),
                                           bd.divisor);
        hi = first ? v : std::min(hi, v);
        first = false;
    }
    if (hi < lo)
        return 0;
    std::int64_t width = hi - lo + 1;

    if (!referenced[level]) {
        prefix[level] = lo;
        return width * countFrom(bounds, referenced, prefix, level + 1);
    }

    std::int64_t total = 0;
    for (std::int64_t v = lo; v <= hi; ++v) {
        prefix[level] = v;
        total += countFrom(bounds, referenced, prefix, level + 1);
    }
    return total;
}

/** Does a bound in @p b reference dim @p level? */
bool
references(const DimBounds &b, size_t level)
{
    auto uses = [level](const poly::Bound &bd) {
        return bd.expr.coeff(level) != 0;
    };
    return std::any_of(b.lower.begin(), b.lower.end(), uses) ||
           std::any_of(b.upper.begin(), b.upper.end(), uses);
}

/**
 * The projections of @p set onto each prefix of its dims, by the
 * calls IntegerSet::projectOntoPrefix() makes: chain[n] is the
 * simplified set and chain[k] = chain[k + 1].projectOut(k). One chain
 * answers every isEmpty() and boundsForCodegen() question that
 * counting any prefix of @p set asks, with n projections instead of
 * O(n^3).
 */
std::vector<IntegerSet>
projectionChain(const IntegerSet &set)
{
    size_t n = set.numDims();
    std::vector<IntegerSet> chain(n + 1);
    chain[n] = set;
    chain[n].simplify();
    for (size_t k = n; k-- > 0;)
        chain[k] = chain[k + 1].projectOut(k);
    return chain;
}

/**
 * Per-prefix point counts read off @p chain: the number of points of
 * chain[m], the projection onto the first m dims, for m = first..n. A
 * prefix is empty when a false constraint shows anywhere down its
 * chain, as isEmpty() finds it; the bounds of dim i come from
 * chain[i + 1], as boundsForCodegen(i) derives them. Each level's
 * "referenced by a deeper bound" flag is updated once as each dim's
 * bounds join, and every count walks the one prefix buffer.
 */
std::vector<std::int64_t>
prefixCounts(const std::vector<IntegerSet> &chain, size_t first)
{
    size_t n = chain.size() - 1;
    std::vector<DimBounds> bounds;
    bounds.reserve(n);
    std::vector<bool> referenced;
    std::vector<std::int64_t> prefix(n, 0);
    std::vector<std::int64_t> counts;
    counts.reserve(n);
    bool empty = chain[0].hasFalseConstraint();
    for (size_t m = 1; m <= n; ++m) {
        empty = empty || chain[m].hasFalseConstraint();
        if (m < first)
            continue;
        if (empty) {
            counts.push_back(0);
            continue;
        }
        while (bounds.size() < m) {
            const size_t d = bounds.size();
            bounds.push_back(chain[d + 1].boundsForCodegen(d));
            for (size_t level = 0; level < d; ++level) {
                if (references(bounds[d], level))
                    referenced[level] = true;
            }
            referenced.push_back(false);
        }
        counts.push_back(countFrom(bounds, referenced, prefix.data(), 0));
    }
    return counts;
}

} // namespace

std::int64_t
countPoints(const IntegerSet &set)
{
    std::vector<IntegerSet> chain = projectionChain(set);
    if (set.numDims() == 0)
        return chain[0].hasFalseConstraint() ? 0 : 1;
    return prefixCounts(chain, set.numDims()).back();
}

std::vector<std::int64_t>
countTrips(const poly::IntegerSet &set)
{
    std::vector<std::int64_t> counts =
        prefixCounts(projectionChain(set), 1);
    std::vector<std::int64_t> trips(counts.size(), 1);
    std::int64_t prev = 1;
    for (size_t l = 0; l < counts.size(); ++l) {
        std::int64_t trip = prev > 0 ? (counts[l] + prev / 2) / prev : 1;
        trips[l] = std::max<std::int64_t>(1, trip);
        prev = counts[l];
    }
    return trips;
}

namespace {

/**
 * Entry cap of the trip-count memo. The cold 18-workload sweep counts
 * 198 domains under greedy and 533 under greedy, beam and anneal
 * together, so the cap only bounds a long-lived daemon.
 */
constexpr std::size_t kTripMemoCap = 4096;

using TripMemo = support::ContentCache<std::vector<std::int64_t>>;

/**
 * The process-wide trip-count memo, in memory only. Creates every
 * `trips.*` counter at zero so each metrics report has them.
 */
TripMemo &
tripMemo()
{
    static TripMemo *memo = [] {
        obs::counterAdd("trips.counts", 0);
        obs::counterAdd("trips.memo.hits", 0);
        obs::counterAdd("trips.memo.evictions", 0);
        return new TripMemo("trips.memo.evictions", kTripMemoCap);
    }();
    return *memo;
}

/**
 * The memo key: the dim count, then the constraint rows. The dim names
 * are left out, since the walk never reads them. So is the set's
 * simplified flag: a flagged set's rows are simplify()'s fixed point,
 * so an unflagged set with the same rows counts the same (the HlsCount
 * property test asks every fuzzed domain both ways).
 */
std::string
tripKey(const IntegerSet &set)
{
    std::string key;
    const auto n = static_cast<std::int64_t>(set.numDims());
    key.append(reinterpret_cast<const char *>(&n), sizeof(n));
    set.appendRowsKey(key);
    return key;
}

} // namespace

std::vector<std::int64_t>
avgTrips(const poly::IntegerSet &set)
{
    const std::string key = tripKey(set);
    TripMemo &memo = tripMemo();
    if (auto hit = memo.lookup(key)) {
        obs::counterAdd("trips.memo.hits");
        return std::move(*hit);
    }
    // Two threads missing on one key both count; the count is
    // deterministic and the first store wins, so callers agree.
    obs::counterAdd("trips.counts");
    std::vector<std::int64_t> trips = countTrips(set);
    memo.store(key, trips);
    return trips;
}

void
clearTripMemo()
{
    tripMemo().clear();
}

} // namespace pom::hls
