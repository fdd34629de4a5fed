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
 * Two views of the same analysis. The carried one (CarriedDependence)
 * tests the polytope of every (source, sink, level) triple for
 * emptiness and ranges only t_l - s_l at the carrying level l of each
 * non-empty one, which is all the DSE's parallel schedule, the
 * estimator's recurrence-MII and the HLS DEPENDENCE hints read. The
 * full one (Dependence) extends a carried view: it rebuilds the
 * polytopes of the triples the view lists, which are exactly the
 * non-empty ones, and ranges every t_k - s_k over them; only stage 1's
 * hint (dse::suggestHint) reads those vectors, to choose interchange
 * or skew for a statement whose innermost loop carries a dependence.
 * Both make the same range call at level l, so the carried view is the
 * full one restricted to its fields.
 *
 * A carried view need not come from this analysis:
 * dse::applyParallelSchedule, which only strip-mines and reorders loops
 * that carry no dependence, moves each carried level, by loop name, to
 * its loop's new position. Neither an interchange in general nor the
 * zero distances above a carrying level are derived that way: the
 * |a|>1 equality step of Fourier-Motzkin is a rational relaxation, so
 * FM can report a dependence, or a distance range, on a polytope with
 * no integer point, and a derived view would then differ from the
 * analysis.
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
 * All loop-carried self-dependences of a statement, with only their
 * carried-level facts: write->read, write->write and read->write pairs
 * over the same array, at every carrying level, ordered by (source
 * access, sink access, level).
 *
 * One loop over the (source, sink, level) triples: build the triple's
 * dependence polytope and, if it is non-empty, range t_level - s_level
 * over it.
 *
 * @param domain The statement's iteration domain.
 * @param accesses Its array accesses (maps over the domain dims).
 */
std::vector<CarriedDependence>
analyzeCarriedDependences(const IntegerSet &domain,
                          const std::vector<Access> &accesses);

/**
 * The full view of the dependences @p carried lists, in its order:
 * rebuild each listed triple's polytope and range every t_k - s_k over
 * it. @p carried is analyzeCarriedDependences() of the same @p domain
 * and @p accesses, or a view equal to it, so every polytope it names
 * is non-empty and none is tested again. Each element's
 * CarriedDependence part equals @p carried's element.
 */
std::vector<Dependence>
analyzeSelfDependences(const IntegerSet &domain,
                       const std::vector<Access> &accesses,
                       const std::vector<CarriedDependence> &carried);

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
