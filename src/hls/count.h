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
 * levels below it and no allocation. That walk still dominates a
 * search at paper sizes (seidel, 3mm at 4096); a closed form per level
 * would make it independent of the outer extent.
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
 * prefix projection with countPoints().
 */
std::vector<std::int64_t> avgTrips(const poly::IntegerSet &set);

} // namespace pom::hls

#endif // POM_HLS_COUNT_H
