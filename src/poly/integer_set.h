/**
 * @file
 * Integer sets: conjunctions of affine equality / inequality constraints
 * over named dimensions. This is POM's stand-in for isl sets and supplies
 * the operations the paper's polyhedral IR performs: intersection,
 * projection (Fourier–Motzkin), emptiness, bound extraction for code
 * generation, and point enumeration for testing.
 *
 * Exactness: projection and emptiness use rational Fourier–Motzkin with
 * integer tightening of constraints (gcd normalization) and a gcd test on
 * equalities. This is exact for the domains POM manipulates (rectangular
 * domains, tiling decompositions with explicit `i = t*i0 + i1` equalities,
 * and unimodular skews), and conservative in general.
 */

#ifndef POM_POLY_INTEGER_SET_H
#define POM_POLY_INTEGER_SET_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "poly/linear_expr.h"

namespace pom::poly {

/** A single affine constraint: expr == 0 (equality) or expr >= 0. */
struct Constraint
{
    LinearExpr expr;
    bool isEq = false;

    bool operator==(const Constraint &) const = default;
};

/**
 * A bound on a dimension derived from a constraint:
 * lower bound means  dim >= ceilDiv(expr, divisor),
 * upper bound means  dim <= floorDiv(expr, divisor),
 * where expr only references other (outer) dimensions.
 */
struct Bound
{
    LinearExpr expr;
    std::int64_t divisor = 1;

    bool operator==(const Bound &) const = default;
};

/** Lower and upper bound lists for one dimension. */
struct DimBounds
{
    std::vector<Bound> lower;
    std::vector<Bound> upper;

    bool operator==(const DimBounds &) const = default;
};

/** A conjunction of affine constraints over named dimensions. */
class IntegerSet
{
  public:
    IntegerSet() = default;

    /** Unconstrained set (universe) over the given dimension names. */
    explicit IntegerSet(std::vector<std::string> dim_names)
        : dims_(std::move(dim_names))
    {}

    /** Rectangular set: lows[i] <= dim_i <= highs[i] (inclusive). */
    static IntegerSet box(std::vector<std::string> dim_names,
                          const std::vector<std::int64_t> &lows,
                          const std::vector<std::int64_t> &highs);

    size_t numDims() const { return dims_.size(); }
    const std::vector<std::string> &dimNames() const { return dims_; }
    const std::string &dimName(size_t i) const { return dims_.at(i); }

    /** Index of a dimension by name; fatal() if absent. */
    size_t dimIndex(const std::string &name) const;

    /** Index of a dimension by name, or nullopt. */
    std::optional<size_t> findDim(const std::string &name) const;

    const std::vector<Constraint> &constraints() const
    {
        return constraints_;
    }

    /** Add constraint expr == 0. */
    void addEquality(const LinearExpr &expr);

    /** Add constraint expr >= 0. */
    void addInequality(const LinearExpr &expr);

    /** Add constant bounds low <= dim_i <= high (inclusive). */
    void addDimBounds(size_t i, std::int64_t low, std::int64_t high);

    /** Intersect with another set over the same dimensions. */
    IntegerSet intersect(const IntegerSet &other) const;

    /** Insert new unconstrained dims at @p pos. */
    IntegerSet withDimsInserted(size_t pos,
                                std::vector<std::string> names) const;

    /** Remove dim @p i; all constraints must have zero coefficient on it. */
    IntegerSet withDimRemoved(size_t i) const;

    /** Rename dimension @p i. */
    IntegerSet withDimRenamed(size_t i, std::string name) const;

    /**
     * Reorder dims: dim i of this set becomes dim perm[i] of the result.
     */
    IntegerSet permuted(const std::vector<size_t> &perm) const;

    /**
     * Substitute dim @p i by @p replacement in every constraint (the dim
     * itself stays in the space but becomes unconstrained).
     */
    IntegerSet withDimSubstituted(size_t i,
                                  const LinearExpr &replacement) const;

    /**
     * Existentially project out dimension @p i (Fourier–Motzkin). The dim
     * is removed from the space.
     */
    IntegerSet projectOut(size_t i) const;

    /** Project onto the first @p k dims (drop the rest existentially). */
    IntegerSet projectOntoPrefix(size_t k) const;

    /**
     * True if the set provably contains no integer points: some
     * projection onto a prefix of its dims has a false constraint.
     */
    bool isEmpty() const;

    /** True if some constraint is a false constant, e.g. -1 >= 0. */
    bool hasFalseConstraint() const;

    /** Exact membership test for a concrete point. */
    bool containsPoint(const std::vector<std::int64_t> &point) const;

    /**
     * Is @p c implied by this set? (i.e. adding its negation gives an
     * empty set). Used to elide redundant guards during AST generation.
     */
    bool implies(const Constraint &c) const;

    /**
     * Bounds of dim @p i in terms of dims 0..i-1 only: inner dims are
     * projected out first. Fatal if a resulting bound still references an
     * inner or the same dim (cannot happen after projection).
     */
    DimBounds boundsForCodegen(size_t i) const;

    /**
     * Enumerate all integer points in lexicographic order. Fatal if the
     * set is unbounded or has more than @p limit points.
     */
    std::vector<std::vector<std::int64_t>>
    enumerate(size_t limit = 1u << 22) const;

    /** Number of integer points (enumeration-based; small sets only). */
    size_t countPoints(size_t limit = 1u << 22) const;

    /** Lexicographically minimal point, if the set is non-empty. */
    std::optional<std::vector<std::int64_t>> lexMin() const;

    /** Normalize constraints: gcd-tighten, drop trivial, dedupe. */
    void simplify();

    /** Render as e.g. "{ [i, j] : 0 <= i <= 31 and i + j >= 2 }". */
    std::string str() const;

  private:
    friend class FourierMotzkin;

    std::vector<std::string> dims_;
    std::vector<Constraint> constraints_;
};

} // namespace pom::poly

#endif // POM_POLY_INTEGER_SET_H
