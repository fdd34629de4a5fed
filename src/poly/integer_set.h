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
 *
 * Representation: the constraints are one flat row-major int64 matrix,
 * per row the coefficients of every dimension, the constant and the
 * kind (equality or inequality); dimension names serve only printing
 * and lookup. Every elimination works in place on that matrix with
 * overflow-checked arithmetic: a combination that does not fit in
 * int64 is a fatal() naming the set, never a wrong answer.
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

    size_t numConstraints() const { return rows_.size() / stride(); }

    /** Coefficient of dim @p d in constraint @p r. */
    std::int64_t coeff(size_t r, size_t d) const
    {
        return rows_[r * stride() + d];
    }

    std::int64_t constantTerm(size_t r) const
    {
        return rows_[r * stride() + numDims()];
    }

    bool isEquality(size_t r) const
    {
        return rows_[r * stride() + numDims() + 1] != 0;
    }

    /** Constraint @p r as a value. */
    Constraint constraint(size_t r) const;

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

    /**
     * The pairs (x, y) of points of this set, over its dims followed by
     * @p names (one per dim, y's): this set's rows over x, then the same
     * rows, in the same order, over y. The space of a dependence
     * polytope, built without a copy of the set per dim.
     */
    IntegerSet pairedWithCopy(std::vector<std::string> names) const;

    /** Remove dim @p i; all constraints must have zero coefficient on it. */
    IntegerSet withDimRemoved(size_t i) const;

    /** Rename dimension @p i. */
    IntegerSet withDimRenamed(size_t i, std::string name) const;

    /**
     * Reorder dims: dim i of this set becomes dim perm[i] of the result.
     */
    IntegerSet permuted(const std::vector<size_t> &perm) const;

    /**
     * Existentially project out dimension @p i (Fourier–Motzkin). The dim
     * is removed from the space.
     */
    IntegerSet projectOut(size_t i) const;

    /** projectOut(@p i) in place. */
    void eliminate(size_t i);

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
     * Enumerate all integer points in lexicographic order (none if
     * isEmpty()). Fatal if the set is unbounded or has more than
     * @p limit points.
     */
    std::vector<std::vector<std::int64_t>>
    enumerate(size_t limit = 1u << 22) const;

    /** Number of integer points (enumeration-based; small sets only). */
    size_t countPoints(size_t limit = 1u << 22) const;

    /**
     * Lexicographically minimal point, if the set is non-empty: the
     * first point of enumerate()'s order, found without enumerating the
     * rest. Fatal if the set is unbounded.
     */
    std::optional<std::vector<std::int64_t>> lexMin() const;

    /**
     * Normalize constraints: gcd-tighten, drop trivial, dedupe (first
     * occurrence kept). A no-op on a set that is already simplified.
     */
    void simplify();

    /** Render as e.g. "{ [i, j] : 0 <= i <= 31 and i + j >= 2 }". */
    std::string str() const;

    /**
     * Append an exact binary encoding of the constraints to @p key: the
     * row count, then per row its numDims() coefficients and its
     * constant as 8 native bytes each and its kind as 'E' or 'I'. The
     * one row encoder of the memo keys (the dependence views', the trip
     * counts'); a key that needs the dim names or count adds them.
     */
    void appendRowsKey(std::string &key) const;

  private:
    /** Columns per row: the coefficients, the constant, the kind. */
    size_t stride() const { return dims_.size() + 2; }

    void appendRow(const LinearExpr &expr, std::int64_t kind);

    /** Replace every constraint by the canonical false one, -1 >= 0. */
    void setFalse();

    /** isEmpty(), eliminating in place instead of on a copy. */
    bool becomesEmpty();

    std::vector<std::string> dims_;

    /**
     * The constraint matrix, row-major: per row numDims() coefficients,
     * the constant term and the kind (1 for an equality, 0 for an
     * inequality).
     */
    std::vector<std::int64_t> rows_;

    /** rows_ is simplify()'s fixed point, so simplify() may skip it. */
    bool simplified_ = false;
};

} // namespace pom::poly

#endif // POM_POLY_INTEGER_SET_H
