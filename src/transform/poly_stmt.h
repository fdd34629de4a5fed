/**
 * @file
 * The polyhedral IR statement (paper §V.B) and the loop transformation
 * library implemented on it. A PolyStmt bundles a statement's
 * transformed iteration domain, 2d+1 schedule betas, the map back to its
 * original iterators, per-loop hardware annotations, and its array
 * accesses (expressed over the *original* iterators; composing with the
 * origin map yields accesses over the transformed loops).
 *
 * Every transformation is a manipulation of integer sets and maps, as
 * the paper argues (§V.B "Implementation of loop transformations"):
 * tiling rewrites the domain through an explicit  i = t*i0 + i1
 * decomposition, skewing applies a unimodular change of basis, and
 * interchange is a permutation.
 */

#ifndef POM_TRANSFORM_POLY_STMT_H
#define POM_TRANSFORM_POLY_STMT_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ast/build.h"
#include "poly/dependence.h"

namespace pom::transform {

/** A statement's carried dependences, shared and never modified. */
using CarriedView = std::shared_ptr<const std::vector<poly::CarriedDependence>>;

/**
 * A statement at the polyhedral IR level. Its name (sched.name) is the
 * name of the compute it was extracted from, unique in its function;
 * code that needs the compute looks it up by that name.
 */
struct PolyStmt
{
    /** Name, domain, betas, origin map and hardware annotations. */
    ast::ScheduledStmt sched;

    /** Array accesses over the original iterators. */
    std::vector<poly::Access> accesses;

    /**
     * The carried dependences of this domain and these accesses, when
     * a schedule derived them from its input's (dse::applyParallelSchedule
     * does); null when they must be analysed. carriedDependences()
     * returns it as it is. split, interchange, tile and skew change the
     * domain and clear it; setPipeline, setUnroll, placeAfter and
     * fuseInto keep it. Code that edits the domain or the accesses by
     * hand must clear it too.
     */
    CarriedView carried;

    /** Accesses re-expressed over the transformed loop dims. */
    std::vector<poly::Access> transformedAccesses() const;

    /** Index of a loop dim by name; fatal with context if missing. */
    size_t dimIndex(const std::string &name) const;

    size_t numDims() const { return sched.domain.numDims(); }
};

/** Interchange loop levels named @p a and @p b. */
void interchange(PolyStmt &stmt, const std::string &a, const std::string &b);

/**
 * Split loop @p name by @p factor into (@p outer, @p inner); handles
 * non-dividing factors via partial-tile bounds.
 */
void split(PolyStmt &stmt, const std::string &name, std::int64_t factor,
           const std::string &outer, const std::string &inner);

/** Tile loops (@p i, @p j) by (t1, t2) into (i0, j0, i1, j1). */
void tile(PolyStmt &stmt, const std::string &i, const std::string &j,
          std::int64_t t1, std::int64_t t2, const std::string &i0,
          const std::string &j0, const std::string &i1,
          const std::string &j1);

/**
 * Skew loop @p j by f * @p i: new loops (@p ip, @p jp) with
 * jp = j + f*i. @p i must be outer to @p j.
 */
void skew(PolyStmt &stmt, const std::string &i, const std::string &j,
          std::int64_t f, const std::string &ip, const std::string &jp);

/**
 * Make @p stmt execute after @p anchor sharing loops down to (and
 * including) level @p shared_levels - 1. shared_levels == 0 means fully
 * sequential.
 */
void placeAfter(PolyStmt &stmt, const PolyStmt &anchor,
                size_t shared_levels);

/** Fuse @p stmt into @p anchor's loop nest (share all loop levels). */
void fuseInto(PolyStmt &stmt, const PolyStmt &anchor);

/** Set a pipeline annotation at loop level @p name. */
void setPipeline(PolyStmt &stmt, const std::string &name, int ii);

/** Set an unroll annotation at loop level @p name (0 = full unroll). */
void setUnroll(PolyStmt &stmt, const std::string &name,
               std::int64_t factor);

/**
 * Loop-carried self-dependences of the statement in its *transformed*
 * loop order, with full distance vectors. Only stage 1's hint
 * (dse::suggestHint, also read by the ScaleHLS-like baseline) asks for
 * them, and only for a statement whose innermost loop carries a
 * dependence; everything else calls carriedDependences(). Results
 * are memoized process-wide on an exact binary encoding of the domain
 * and the transformed accesses (FIFO cap 4096, never spilled). A miss
 * counts `dep.analyses` and extends the carried view: it reads
 * carriedDependences() and ranges every distance over the polytopes of
 * the dependences listed there (poly::analyzeSelfDependences()), so it
 * builds no polytope that is empty. Thread-safe.
 */
std::vector<poly::Dependence> selfDependences(const PolyStmt &stmt);

/**
 * The carried-level view of the same dependences: only array, access
 * indices, level and carried distance, at the cost of one distance
 * range per dependence instead of one per loop. The DSE's carried
 * levels, the estimator and the lowering's pragma hints call this.
 * Returns the statement's own view (PolyStmt::carried) when it has
 * one; otherwise memoized like the full view, in its own memo on the
 * same key, where a miss counts `dep.carried.analyses`. Both memos
 * share `dep.memo.hits`, `dep.memo.evictions` and
 * `dep.analysis_seconds` (misses only). Thread-safe.
 */
std::vector<poly::CarriedDependence> carriedDependences(const PolyStmt &stmt);

/** Empty both dependence memos (benches timing a cold search). */
void clearDependenceMemo();

} // namespace pom::transform

#endif // POM_TRANSFORM_POLY_STMT_H
