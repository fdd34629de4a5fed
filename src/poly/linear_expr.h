/**
 * @file
 * Linear (affine) expressions over a fixed number of dimensions.
 *
 * A LinearExpr represents  sum_i coeff[i] * dim_i + constant  with 64-bit
 * integer coefficients. It is the basic building block for constraints,
 * access functions and schedules in the polyhedral IR. Expressions do not
 * own dimension names; the enclosing IntegerSet / AffineMap provides the
 * space and all operations assert matching dimensionality.
 */

#ifndef POM_POLY_LINEAR_EXPR_H
#define POM_POLY_LINEAR_EXPR_H

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace pom::poly {

/** An affine expression: coefficients over dims plus an integer constant. */
class LinearExpr
{
  public:
    LinearExpr() = default;

    /** Zero expression over @p num_dims dimensions. */
    explicit LinearExpr(size_t num_dims)
        : coeffs_(num_dims, 0), constant_(0)
    {}

    /** Expression with explicit coefficients and constant. */
    LinearExpr(std::vector<std::int64_t> coeffs, std::int64_t constant)
        : coeffs_(std::move(coeffs)), constant_(constant)
    {}

    /** The expression `dim_index` over @p num_dims dimensions. */
    static LinearExpr dim(size_t num_dims, size_t index);

    /** The constant expression @p value over @p num_dims dimensions. */
    static LinearExpr constant(size_t num_dims, std::int64_t value);

    size_t numDims() const { return coeffs_.size(); }

    const std::vector<std::int64_t> &coeffs() const { return coeffs_; }

    std::int64_t coeff(size_t i) const { return coeffs_.at(i); }
    void setCoeff(size_t i, std::int64_t v) { coeffs_.at(i) = v; }

    std::int64_t constantTerm() const { return constant_; }
    void setConstantTerm(std::int64_t v) { constant_ = v; }

    /** True iff all dimension coefficients are zero. */
    bool isConstant() const;

    /** True iff the expression is exactly one dimension (coeff 1). */
    bool isSingleDim(size_t *index = nullptr) const;

    LinearExpr operator+(const LinearExpr &o) const;
    LinearExpr operator-(const LinearExpr &o) const;
    LinearExpr operator-() const;
    LinearExpr scaled(std::int64_t factor) const;

    /** Evaluate at an integer point (size must equal numDims). */
    std::int64_t evaluate(const std::vector<std::int64_t> &point) const;

    /**
     * Replace dimension @p i by @p replacement (same dimensionality;
     * replacement must not itself use dimension i).
     */
    LinearExpr substituted(size_t i, const LinearExpr &replacement) const;

    /** Insert @p count zero-coefficient dims starting at @p pos. */
    LinearExpr withDimsInserted(size_t pos, size_t count) const;

    /** Remove dim @p i; its coefficient must be zero. */
    LinearExpr withDimRemoved(size_t i) const;

    /** Reorder dims: result coeff[perm[i]] = coeff[i]. */
    LinearExpr permuted(const std::vector<size_t> &perm) const;

    /** Render using @p dim_names, e.g. "2*i + j - 1". */
    std::string str(const std::vector<std::string> &dim_names) const;

    bool operator==(const LinearExpr &o) const = default;

  private:
    std::vector<std::int64_t> coeffs_;
    std::int64_t constant_ = 0;
};

/**
 * Print sum coeffs[i] * dim_names[i] + constant the way LinearExpr::str
 * renders it; @p coeffs holds dim_names.size() entries.
 */
void printAffine(std::ostream &os, const std::int64_t *coeffs,
                 std::int64_t constant,
                 const std::vector<std::string> &dim_names);

} // namespace pom::poly

#endif // POM_POLY_LINEAR_EXPR_H
