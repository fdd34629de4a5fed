#include "poly/dependence.h"

#include <algorithm>
#include <sstream>
#include <tuple>
#include <utility>

#include "support/diagnostics.h"
#include "support/math_util.h"

namespace pom::poly {

const char *
directionStr(Direction d)
{
    switch (d) {
      case Direction::Lt: return "<";
      case Direction::Eq: return "=";
      case Direction::Gt: return ">";
      case Direction::Star: return "*";
    }
    return "?";
}

Direction
Dependence::direction(size_t k) const
{
    const auto &lo = distLo[k];
    const auto &hi = distHi[k];
    if (lo && hi && *lo == 0 && *hi == 0)
        return Direction::Eq;
    if (lo && *lo > 0)
        return Direction::Lt; // sink iterates after source
    if (hi && *hi < 0)
        return Direction::Gt;
    return Direction::Star;
}

std::string
Dependence::str() const
{
    std::ostringstream os;
    os << array << "@level" << level << " d=(";
    for (size_t i = 0; i < distLo.size(); ++i) {
        if (i)
            os << ", ";
        if (distLo[i] && distHi[i] && *distLo[i] == *distHi[i])
            os << *distLo[i];
        else
            os << directionStr(direction(i));
    }
    os << ")";
    return os.str();
}

std::pair<std::optional<std::int64_t>, std::optional<std::int64_t>>
exprRange(const IntegerSet &set, const LinearExpr &expr)
{
    size_t n = set.numDims();
    POM_ASSERT(expr.numDims() == n, "exprRange dim mismatch");
    IntegerSet work = set.withDimsInserted(n, {"__range"});
    LinearExpr eq = expr.withDimsInserted(n, 1) -
                    LinearExpr::dim(n + 1, n);
    work.addEquality(eq);
    for (size_t i = 0; i < n; ++i)
        work.eliminate(0);
    work.simplify();

    std::optional<std::int64_t> lo, hi;
    for (size_t r = 0; r < work.numConstraints(); ++r) {
        std::int64_t a = work.coeff(r, 0);
        std::int64_t k = work.constantTerm(r);
        bool is_eq = work.isEquality(r);
        if (a == 0)
            continue;
        if (a > 0 || is_eq) {
            std::int64_t div = a > 0 ? a : -a;
            std::int64_t num = a > 0 ? -k : k;
            std::int64_t v = support::ceilDiv(num, div);
            lo = lo ? std::max(*lo, v) : v;
        }
        if (a < 0 || is_eq) {
            std::int64_t div = a < 0 ? -a : a;
            std::int64_t num = a < 0 ? k : -k;
            std::int64_t v = support::floorDiv(num, div);
            hi = hi ? std::min(*hi, v) : v;
        }
    }
    return {lo, hi};
}

namespace {

/**
 * The dependence polytope over (s_0..s_{n-1}, t_0..t_{n-1}) of a given
 * access pair and carrying level.
 */
IntegerSet
dependencePolytope(const IntegerSet &domain, const Access &src,
                   const Access &dst, size_t level)
{
    size_t n = domain.numDims();
    std::vector<std::string> t_names;
    t_names.reserve(n);
    for (size_t i = 0; i < n; ++i)
        t_names.push_back("t_" + domain.dimName(i));

    // Source and target copies over 2n dims (source dims first, then
    // the t_* dims).
    IntegerSet dep = domain.pairedWithCopy(std::move(t_names));

    // Access equality: src.map(s) == dst.map(t).
    size_t m = src.map.numResults();
    POM_ASSERT(m == dst.map.numResults(), "access arity mismatch");
    for (size_t j = 0; j < m; ++j) {
        LinearExpr src_e = src.map.result(j).withDimsInserted(n, n);
        LinearExpr dst_e = dst.map.result(j).withDimsInserted(0, n);
        dep.addEquality(src_e - dst_e);
    }

    // Lexicographic precedence at the carrying level.
    for (size_t k = 0; k < level; ++k) {
        dep.addEquality(LinearExpr::dim(2 * n, n + k) -
                        LinearExpr::dim(2 * n, k));
    }
    // t_level - s_level - 1 >= 0
    LinearExpr strict = LinearExpr::dim(2 * n, n + level) -
                        LinearExpr::dim(2 * n, level);
    strict.setConstantTerm(-1);
    dep.addInequality(strict);
    return dep;
}

/** Range of t_k - s_k over a dependence polytope of 2 * @p n dims. */
std::pair<std::optional<std::int64_t>, std::optional<std::int64_t>>
distanceRange(const IntegerSet &polytope, size_t n, size_t k)
{
    LinearExpr delta = LinearExpr::dim(2 * n, n + k) -
                       LinearExpr::dim(2 * n, k);
    return exprRange(polytope, delta);
}

/** The carried distance implied by the carrying level's lower bound. */
std::int64_t
carriedDistanceOf(const std::optional<std::int64_t> &levelLo)
{
    return levelLo ? std::max<std::int64_t>(1, *levelLo) : 1;
}

} // namespace

std::vector<CarriedDependence>
analyzeCarriedDependences(const IntegerSet &domain,
                          const std::vector<Access> &accesses)
{
    size_t n = domain.numDims();
    std::vector<CarriedDependence> deps;
    for (size_t a = 0; a < accesses.size(); ++a) {
        for (size_t b = 0; b < accesses.size(); ++b) {
            if (accesses[a].array != accesses[b].array)
                continue;
            if (!accesses[a].isWrite && !accesses[b].isWrite)
                continue; // read-read is not a dependence
            for (size_t level = 0; level < n; ++level) {
                IntegerSet polytope = dependencePolytope(
                    domain, accesses[a], accesses[b], level);
                if (polytope.isEmpty())
                    continue;
                deps.push_back(CarriedDependence{
                    accesses[a].array, a, b, level,
                    carriedDistanceOf(
                        distanceRange(polytope, n, level).first)});
            }
        }
    }
    return deps;
}

std::vector<Dependence>
analyzeSelfDependences(const IntegerSet &domain,
                       const std::vector<Access> &accesses,
                       const std::vector<CarriedDependence> &carried)
{
    size_t n = domain.numDims();
    std::vector<Dependence> deps;
    deps.reserve(carried.size());
    for (const CarriedDependence &c : carried) {
        POM_ASSERT(c.srcAccess < accesses.size() &&
                       c.dstAccess < accesses.size() && c.level < n,
                   "carried dependence out of range");
        const IntegerSet polytope = dependencePolytope(
            domain, accesses[c.srcAccess], accesses[c.dstAccess], c.level);
        Dependence d;
        static_cast<CarriedDependence &>(d) = c;
        d.distLo.resize(n);
        d.distHi.resize(n);
        for (size_t k = 0; k < n; ++k) {
            std::tie(d.distLo[k], d.distHi[k]) =
                distanceRange(polytope, n, k);
        }
        d.carriedDistance = carriedDistanceOf(d.distLo[d.level]);
        deps.push_back(std::move(d));
    }
    return deps;
}

bool
producesFor(const std::vector<Access> &producer,
            const std::vector<Access> &consumer)
{
    for (const auto &w : producer) {
        if (!w.isWrite)
            continue;
        for (const auto &r : consumer) {
            if (r.array == w.array)
                return true;
        }
    }
    return false;
}

} // namespace pom::poly
