/**
 * @file
 * Exact polyhedral dependence analysis: distance and direction vectors
 * between dependent statement instances (paper §II.A and §V.A).
 *
 * For a statement with iteration domain D and accesses {A_k}, a
 * loop-carried dependence between a write W and an access R of the same
 * array exists at loop level l iff the set
 *
 *   { (s, t) : s, t in D,  W(s) = R(t),  s_k = t_k for k < l,
 *     t_l >= s_l + 1 }
 *
 * is non-empty. The distance vector entries are the ranges of t_k - s_k
 * over that set; an entry is "exact" when its range collapses to one
 * value (e.g. (0, 0, 1) for the GEMM reduction in Fig. 8).
 *
 * Two views of the same analysis. The full one (Dependence) ranges
 * every t_k - s_k; only stage 1's hint (dse::suggestHint) reads those
 * vectors, to choose interchange or skew for a statement whose
 * innermost loop carries a dependence. The carried one
 * (CarriedDependence) ranges only t_l - s_l at the carrying level l,
 * which is all the DSE's parallel schedule, the estimator's
 * recurrence-MII and the HLS DEPENDENCE hints read. Both build the same
 * polytopes and make the same range call at level l, so the carried
 * view is the full one restricted to its fields.
 */

#ifndef POM_POLY_DEPENDENCE_H
#define POM_POLY_DEPENDENCE_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "poly/affine_map.h"
#include "poly/integer_set.h"

namespace pom::poly {

/** One array access inside a statement. */
struct Access
{
    std::string array;
    AffineMap map;     ///< iteration vector -> array subscripts
    bool isWrite = false;
};

/** Per-dimension dependence direction ('<', '=', '>' or unknown). */
enum class Direction { Lt, Eq, Gt, Star };

/** Printable form of a direction entry. */
const char *directionStr(Direction d);

/**
 * One dependence carried at a specific loop level: the facts the
 * carried-level readers use (the DSE's carried levels, the estimator's
 * recurrence-MII, the lowering's DEPENDENCE hints).
 */
struct CarriedDependence
{
    std::string array;        ///< array through which the dependence flows
    size_t srcAccess = 0;     ///< index of the (write) source access
    size_t dstAccess = 0;     ///< index of the sink access
    size_t level = 0;         ///< loop level carrying the dependence

    /**
     * Minimal iteration distance at the carrying level (>= 1). This is
     * the denominator of the recurrence-MII bound when the level is
     * pipelined.
     */
    std::int64_t carriedDistance = 1;

    bool operator==(const CarriedDependence &) const = default;
};

/** A carried dependence with its full distance vector. */
struct Dependence : CarriedDependence
{
    /** Per-dimension distance range; entry is nullopt if unbounded. */
    std::vector<std::optional<std::int64_t>> distLo;
    std::vector<std::optional<std::int64_t>> distHi;

    /** Direction of dimension @p k, derived from its distance range. */
    Direction direction(size_t k) const;

    std::string str() const;
};

/**
 * Range (min, max) of an affine expression over an integer set. Either
 * bound is nullopt when the set leaves the expression unbounded. The set
 * must be non-empty.
 */
std::pair<std::optional<std::int64_t>, std::optional<std::int64_t>>
exprRange(const IntegerSet &set, const LinearExpr &expr);

/**
 * All loop-carried self-dependences of a statement: write->read,
 * write->write and read->write pairs over the same array, at every
 * carrying level, ordered by (source access, sink access, level).
 *
 * One loop over the (source, sink, level) triples: build the triple's
 * dependence polytope and, if it is non-empty, range t_k - s_k over it
 * for every dimension k.
 *
 * @param domain The statement's iteration domain.
 * @param accesses Its array accesses (maps over the domain dims).
 */
std::vector<Dependence>
analyzeSelfDependences(const IntegerSet &domain,
                       const std::vector<Access> &accesses);

/**
 * The same dependences as analyzeSelfDependences(), in the same order,
 * with only the carried-level facts: each non-empty polytope ranges
 * t_level - s_level alone, one range instead of one per dimension.
 * Each element equals the CarriedDependence part of the full
 * analysis's element.
 */
std::vector<CarriedDependence>
analyzeCarriedDependences(const IntegerSet &domain,
                          const std::vector<Access> &accesses);

/**
 * Does a dependence flow from a (write) access of @p producer to any
 * access of @p consumer? The coarse producer/consumer relation of the
 * dependence graph IR, from load/store sets (paper Fig. 8, steps 1-2):
 * the DSE reads it to keep data-exchanging statements fused.
 */
bool producesFor(const std::vector<Access> &producer,
                 const std::vector<Access> &consumer);

} // namespace pom::poly

#endif // POM_POLY_DEPENDENCE_H
