/**
 * @file
 * Symbolic point counting for large iteration domains. Enumeration is
 * infeasible at the paper's problem sizes (4096^3 GEMM), so counting
 * exploits structure: a level that no deeper bound references has the
 * same count below it for every value and contributes its width
 * multiplicatively in O(1); only levels that a deeper bound references
 * (tile loops of a split with a partial tile, skewed wavefronts) are
 * walked value by value. Each level's "referenced" flag is computed
 * once per bounds vector, and the walk writes one prefix buffer in
 * place, so a walked outer point costs one evaluation per bound of the
 * levels below it and no allocation. avgTrips() memoizes the result
 * per process, so a search walks each distinct domain once and a
 * repeated request walks none. The first walk still weighs on a cold
 * search at paper sizes (seidel at 4096); a closed form per level would
 * make it independent of the outer extent.
 */

#ifndef POM_HLS_COUNT_H
#define POM_HLS_COUNT_H

#include <cstdint>
#include <vector>

#include "poly/integer_set.h"

namespace pom::hls {

/** Exact number of integer points of @p set (0 if empty). */
std::int64_t countPoints(const poly::IntegerSet &set);

/**
 * Average trip count of each loop level:
 *   trips[l] = |proj_{0..l}(D)| / |proj_{0..l-1}(D)|
 * rounded to the nearest integer and at least 1. For rectangular levels
 * this is the exact trip count; for skewed levels it is the mean width.
 * Every prefix is counted off one chain of n projections (the calls
 * projectOntoPrefix() makes), so the result equals counting each
 * prefix projection with countPoints(). Uncached: avgTrips() is the
 * memoized entry every caller uses.
 */
std::vector<std::int64_t> countTrips(const poly::IntegerSet &set);

/**
 * countTrips(@p set), memoized process-wide on an exact binary encoding
 * of what it reads: the dim count, then per constraint row the
 * coefficients, the constant and the kind (IntegerSet::appendRowsKey()).
 * FIFO cap of 4096 entries, in memory only; a miss counts
 * `trips.counts`, a hit `trips.memo.hits`, an eviction
 * `trips.memo.evictions`, each created at zero with the memo.
 * Thread-safe.
 */
std::vector<std::int64_t> avgTrips(const poly::IntegerSet &set);

/** Empty the trip-count memo (tests of a cold search). */
void clearTripMemo();

} // namespace pom::hls

#endif // POM_HLS_COUNT_H
