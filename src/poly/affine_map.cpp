#include "poly/affine_map.h"

#include <sstream>

#include "support/diagnostics.h"

namespace pom::poly {

AffineMap::AffineMap(std::vector<std::string> domain_dims,
                     std::vector<LinearExpr> results)
    : domain_dims_(std::move(domain_dims)), results_(std::move(results))
{
    for (const auto &r : results_) {
        POM_ASSERT(r.numDims() == domain_dims_.size(),
                   "result dim mismatch in AffineMap");
    }
}

AffineMap
AffineMap::identity(std::vector<std::string> dims)
{
    std::vector<LinearExpr> results;
    results.reserve(dims.size());
    for (size_t i = 0; i < dims.size(); ++i)
        results.push_back(LinearExpr::dim(dims.size(), i));
    return AffineMap(std::move(dims), std::move(results));
}

void
AffineMap::setResult(size_t i, LinearExpr e)
{
    POM_ASSERT(e.numDims() == domain_dims_.size(),
               "result dim mismatch in setResult");
    results_.at(i) = std::move(e);
}

void
AffineMap::appendResult(LinearExpr e)
{
    POM_ASSERT(e.numDims() == domain_dims_.size(),
               "result dim mismatch in appendResult");
    results_.push_back(std::move(e));
}

std::vector<std::int64_t>
AffineMap::apply(const std::vector<std::int64_t> &point) const
{
    std::vector<std::int64_t> out;
    out.reserve(results_.size());
    for (const auto &r : results_)
        out.push_back(r.evaluate(point));
    return out;
}

AffineMap
AffineMap::compose(const AffineMap &inner) const
{
    POM_ASSERT(numDomainDims() == inner.numResults(),
               "compose arity mismatch");
    std::vector<LinearExpr> results;
    results.reserve(results_.size());
    for (const auto &r : results_) {
        LinearExpr e = LinearExpr::constant(inner.numDomainDims(),
                                            r.constantTerm());
        for (size_t i = 0; i < numDomainDims(); ++i)
            e = e + inner.result(i).scaled(r.coeff(i));
        results.push_back(e);
    }
    return AffineMap(inner.domain_dims_, std::move(results));
}

AffineMap
AffineMap::withDomainDimsInserted(size_t pos,
                                  std::vector<std::string> names) const
{
    AffineMap r = *this;
    r.domain_dims_.insert(r.domain_dims_.begin() + pos, names.begin(),
                          names.end());
    for (auto &res : r.results_)
        res = res.withDimsInserted(pos, names.size());
    return r;
}

AffineMap
AffineMap::withDomainDimRemoved(size_t i) const
{
    AffineMap r = *this;
    r.domain_dims_.erase(r.domain_dims_.begin() + i);
    for (auto &res : r.results_)
        res = res.withDimRemoved(i);
    return r;
}

AffineMap
AffineMap::withDomainDimSubstituted(size_t i,
                                    const LinearExpr &replacement) const
{
    AffineMap r = *this;
    for (auto &res : r.results_)
        res = res.substituted(i, replacement);
    return r;
}

AffineMap
AffineMap::withDomainPermuted(const std::vector<size_t> &perm) const
{
    AffineMap r = *this;
    r.domain_dims_.resize(domain_dims_.size());
    for (size_t i = 0; i < domain_dims_.size(); ++i)
        r.domain_dims_[perm[i]] = domain_dims_[i];
    for (auto &res : r.results_)
        res = res.permuted(perm);
    return r;
}

AffineMap
AffineMap::withDomainDimRenamed(size_t i, std::string name) const
{
    AffineMap r = *this;
    r.domain_dims_.at(i) = std::move(name);
    return r;
}

IntegerSet
AffineMap::image(const IntegerSet &domain,
                 std::vector<std::string> result_names) const
{
    POM_ASSERT(domain.numDims() == numDomainDims(),
               "image domain dim mismatch");
    POM_ASSERT(result_names.size() == numResults(),
               "image result name count mismatch");
    // Build a combined set over (domain dims, result dims) with
    // equalities result_j = results_[j](domain), then project out the
    // domain dims.
    size_t n = numDomainDims();
    size_t m = numResults();
    IntegerSet combined = domain.withDimsInserted(n, result_names);
    for (size_t j = 0; j < m; ++j) {
        LinearExpr eq = results_[j].withDimsInserted(n, m);
        eq = eq - LinearExpr::dim(n + m, n + j);
        combined.addEquality(eq);
    }
    for (size_t i = 0; i < n; ++i)
        combined.eliminate(0);
    return combined;
}

std::string
AffineMap::str() const
{
    std::ostringstream os;
    os << "(";
    for (size_t i = 0; i < domain_dims_.size(); ++i) {
        if (i)
            os << ", ";
        os << domain_dims_[i];
    }
    os << ") -> (";
    for (size_t i = 0; i < results_.size(); ++i) {
        if (i)
            os << ", ";
        os << results_[i].str(domain_dims_);
    }
    os << ")";
    return os.str();
}

} // namespace pom::poly
