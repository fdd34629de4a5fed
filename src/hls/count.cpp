#include "hls/count.h"

#include <algorithm>

#include "support/diagnostics.h"
#include "support/math_util.h"

namespace pom::hls {

using poly::DimBounds;
using poly::IntegerSet;

namespace {

/**
 * Recursive counting over dims [level, n). @p prefix holds values for
 * dims [0, level). Bounds that only involve constants (relative to the
 * fixed prefix) and are not referenced by deeper constraints multiply.
 */
std::int64_t
countFrom(const std::vector<DimBounds> &bounds,
          std::vector<std::int64_t> &prefix, size_t level)
{
    size_t n = bounds.size();
    if (level == n)
        return 1;

    const DimBounds &b = bounds[level];
    POM_ASSERT(!b.lower.empty() && !b.upper.empty(),
               "countPoints on unbounded set");
    std::vector<std::int64_t> pt(prefix.begin(), prefix.begin() + level);
    pt.push_back(0);
    std::int64_t lo = 0, hi = -1;
    bool first = true;
    for (const auto &bd : b.lower) {
        std::int64_t v = support::ceilDiv(bd.expr.evaluate(pt), bd.divisor);
        lo = first ? v : std::max(lo, v);
        first = false;
    }
    first = true;
    for (const auto &bd : b.upper) {
        std::int64_t v = support::floorDiv(bd.expr.evaluate(pt),
                                           bd.divisor);
        hi = first ? v : std::min(hi, v);
        first = false;
    }
    if (hi < lo)
        return 0;
    std::int64_t width = hi - lo + 1;

    // If no deeper bound references this dim, the count below is the
    // same for every value -> multiply.
    bool referenced = false;
    for (size_t d = level + 1; d < n && !referenced; ++d) {
        for (const auto &bd : bounds[d].lower) {
            if (bd.expr.coeff(level) != 0) {
                referenced = true;
                break;
            }
        }
        for (const auto &bd : bounds[d].upper) {
            if (bd.expr.coeff(level) != 0) {
                referenced = true;
                break;
            }
        }
    }

    if (!referenced) {
        prefix[level] = lo;
        std::int64_t below = countFrom(bounds, prefix, level + 1);
        return width * below;
    }

    std::int64_t total = 0;
    for (std::int64_t v = lo; v <= hi; ++v) {
        prefix[level] = v;
        total += countFrom(bounds, prefix, level + 1);
    }
    return total;
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
 * chain[i + 1], as boundsForCodegen(i) derives them.
 */
std::vector<std::int64_t>
prefixCounts(const std::vector<IntegerSet> &chain, size_t first)
{
    size_t n = chain.size() - 1;
    std::vector<DimBounds> bounds;
    bounds.reserve(n);
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
        while (bounds.size() < m)
            bounds.push_back(chain[bounds.size() + 1].boundsForCodegen(
                bounds.size()));
        std::vector<std::int64_t> prefix(m, 0);
        counts.push_back(countFrom(bounds, prefix, 0));
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
avgTrips(const poly::IntegerSet &set)
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

} // namespace pom::hls
