#include "poly/linear_expr.h"

#include <sstream>

#include "support/diagnostics.h"
#include "support/math_util.h"

namespace pom::poly {

using support::checkedAdd;
using support::checkedMul;
using support::checkedSub;

namespace {

/** @p e printed over dims named d0, d1, ..., in parentheses. */
std::string
describe(const LinearExpr &e)
{
    std::vector<std::string> names;
    names.reserve(e.numDims());
    for (size_t i = 0; i < e.numDims(); ++i)
        names.push_back(std::string("d").append(std::to_string(i)));
    std::ostringstream os;
    os << '(' << e.str(names) << ')';
    return os.str();
}

/** Stop on an int64 overflow in @p what, which names the operands. */
[[noreturn]] void
overflowIn(const std::string &what)
{
    support::fatal("integer overflow in " + what);
}

} // namespace

LinearExpr
LinearExpr::dim(size_t num_dims, size_t index)
{
    POM_ASSERT(index < num_dims, "dim index out of range");
    LinearExpr e(num_dims);
    e.coeffs_[index] = 1;
    return e;
}

LinearExpr
LinearExpr::constant(size_t num_dims, std::int64_t value)
{
    LinearExpr e(num_dims);
    e.constant_ = value;
    return e;
}

bool
LinearExpr::isConstant() const
{
    for (auto c : coeffs_) {
        if (c != 0)
            return false;
    }
    return true;
}

bool
LinearExpr::isSingleDim(size_t *index) const
{
    if (constant_ != 0)
        return false;
    size_t found = coeffs_.size();
    for (size_t i = 0; i < coeffs_.size(); ++i) {
        if (coeffs_[i] == 0)
            continue;
        if (coeffs_[i] != 1 || found != coeffs_.size())
            return false;
        found = i;
    }
    if (found == coeffs_.size())
        return false;
    if (index)
        *index = found;
    return true;
}

LinearExpr
LinearExpr::operator+(const LinearExpr &o) const
{
    POM_ASSERT(numDims() == o.numDims(), "dim mismatch in +");
    LinearExpr r = *this;
    bool overflow = false;
    for (size_t i = 0; i < coeffs_.size(); ++i)
        r.coeffs_[i] = checkedAdd(coeffs_[i], o.coeffs_[i], overflow);
    r.constant_ = checkedAdd(constant_, o.constant_, overflow);
    if (overflow)
        overflowIn(describe(*this) + " + " + describe(o));
    return r;
}

LinearExpr
LinearExpr::operator-(const LinearExpr &o) const
{
    POM_ASSERT(numDims() == o.numDims(), "dim mismatch in -");
    LinearExpr r = *this;
    bool overflow = false;
    for (size_t i = 0; i < coeffs_.size(); ++i)
        r.coeffs_[i] = checkedSub(coeffs_[i], o.coeffs_[i], overflow);
    r.constant_ = checkedSub(constant_, o.constant_, overflow);
    if (overflow)
        overflowIn(describe(*this) + " - " + describe(o));
    return r;
}

LinearExpr
LinearExpr::operator-() const
{
    return LinearExpr(numDims()) - *this;
}

LinearExpr
LinearExpr::scaled(std::int64_t factor) const
{
    LinearExpr r = *this;
    bool overflow = false;
    for (auto &c : r.coeffs_)
        c = checkedMul(c, factor, overflow);
    r.constant_ = checkedMul(constant_, factor, overflow);
    if (overflow)
        overflowIn(describe(*this) + " * " + std::to_string(factor));
    return r;
}

std::int64_t
LinearExpr::evaluate(const std::vector<std::int64_t> &point) const
{
    POM_ASSERT(point.size() == coeffs_.size(),
               "point dim mismatch in evaluate");
    bool overflow = false;
    std::int64_t v = constant_;
    for (size_t i = 0; i < coeffs_.size(); ++i)
        v = checkedAdd(v, checkedMul(coeffs_[i], point[i], overflow),
                       overflow);
    if (overflow) {
        std::string at;
        for (std::int64_t p : point)
            at += (at.empty() ? "" : ", ") + std::to_string(p);
        overflowIn("evaluating " + describe(*this) + " at (" + at + ")");
    }
    return v;
}

LinearExpr
LinearExpr::substituted(size_t i, const LinearExpr &replacement) const
{
    POM_ASSERT(replacement.numDims() == numDims(),
               "dim mismatch in substitute");
    POM_ASSERT(replacement.coeff(i) == 0,
               "replacement must not reference the substituted dim");
    LinearExpr r = *this;
    std::int64_t c = r.coeffs_[i];
    r.coeffs_[i] = 0;
    return r + replacement.scaled(c);
}

LinearExpr
LinearExpr::withDimsInserted(size_t pos, size_t count) const
{
    POM_ASSERT(pos <= coeffs_.size(), "insert position out of range");
    LinearExpr r;
    r.coeffs_ = coeffs_;
    r.coeffs_.insert(r.coeffs_.begin() + pos, count, 0);
    r.constant_ = constant_;
    return r;
}

LinearExpr
LinearExpr::withDimRemoved(size_t i) const
{
    POM_ASSERT(i < coeffs_.size(), "remove index out of range");
    POM_ASSERT(coeffs_[i] == 0, "removing dim with non-zero coefficient");
    LinearExpr r = *this;
    r.coeffs_.erase(r.coeffs_.begin() + i);
    return r;
}

LinearExpr
LinearExpr::permuted(const std::vector<size_t> &perm) const
{
    POM_ASSERT(perm.size() == coeffs_.size(), "permutation size mismatch");
    LinearExpr r(coeffs_.size());
    for (size_t i = 0; i < coeffs_.size(); ++i)
        r.coeffs_[perm[i]] = coeffs_[i];
    r.constant_ = constant_;
    return r;
}

std::string
LinearExpr::str(const std::vector<std::string> &dim_names) const
{
    POM_ASSERT(dim_names.size() == coeffs_.size(),
               "dim name count mismatch");
    std::ostringstream os;
    printAffine(os, coeffs_.data(), constant_, dim_names);
    return os.str();
}

void
printAffine(std::ostream &os, const std::int64_t *coeffs,
            std::int64_t constant, const std::vector<std::string> &dim_names)
{
    bool first = true;
    for (size_t i = 0; i < dim_names.size(); ++i) {
        std::int64_t c = coeffs[i];
        if (c == 0)
            continue;
        if (first) {
            if (c == -1)
                os << "-";
            else if (c != 1)
                os << c << "*";
        } else {
            os << (c > 0 ? " + " : " - ");
            std::uint64_t a = support::magnitude(c);
            if (a != 1)
                os << a << "*";
        }
        os << dim_names[i];
        first = false;
    }
    if (first) {
        os << constant;
    } else if (constant != 0) {
        os << (constant > 0 ? " + " : " - ")
           << support::magnitude(constant);
    }
}

} // namespace pom::poly
