#include "poly/integer_set.h"

#include <algorithm>
#include <sstream>

#include "support/diagnostics.h"
#include "support/math_util.h"

namespace pom::poly {

namespace {

using support::ceilDiv;
using support::floorDiv;
using support::gcd;

/**
 * Normalize a constraint in place. Returns false if the constraint is a
 * provably unsatisfiable constant (or integrality-violating equality), in
 * which case it is replaced by the canonical false constraint -1 >= 0.
 */
bool
normalizeConstraint(Constraint &c)
{
    std::int64_t g = c.expr.coeffGcd();
    if (g == 0) {
        // Constant constraint.
        std::int64_t k = c.expr.constantTerm();
        bool ok = c.isEq ? (k == 0) : (k >= 0);
        return ok;
    }
    if (c.isEq) {
        if (c.expr.constantTerm() % g != 0)
            return false; // No integer solutions (gcd test).
        if (g > 1) {
            LinearExpr e(c.expr.numDims());
            for (size_t i = 0; i < c.expr.numDims(); ++i)
                e.setCoeff(i, c.expr.coeff(i) / g);
            e.setConstantTerm(c.expr.constantTerm() / g);
            c.expr = e;
        }
    } else if (g > 1) {
        // Integer tightening: sum(a_i/g * d_i) >= ceil(-k/g), i.e. the
        // constant becomes floor(k/g).
        LinearExpr e(c.expr.numDims());
        for (size_t i = 0; i < c.expr.numDims(); ++i)
            e.setCoeff(i, c.expr.coeff(i) / g);
        e.setConstantTerm(floorDiv(c.expr.constantTerm(), g));
        c.expr = e;
    }
    return true;
}

/** True if the constraint is trivially satisfied (e.g. 3 >= 0). */
bool
isTriviallyTrue(const Constraint &c)
{
    if (!c.expr.isConstant())
        return false;
    std::int64_t k = c.expr.constantTerm();
    return c.isEq ? (k == 0) : (k >= 0);
}

/** The canonical false constraint over @p num_dims dims: -1 >= 0. */
Constraint
falseConstraint(size_t num_dims)
{
    return Constraint{LinearExpr::constant(num_dims, -1), false};
}

} // namespace

IntegerSet
IntegerSet::box(std::vector<std::string> dim_names,
                const std::vector<std::int64_t> &lows,
                const std::vector<std::int64_t> &highs)
{
    POM_ASSERT(dim_names.size() == lows.size() &&
               dim_names.size() == highs.size(),
               "box bound count mismatch");
    IntegerSet s(std::move(dim_names));
    for (size_t i = 0; i < lows.size(); ++i)
        s.addDimBounds(i, lows[i], highs[i]);
    return s;
}

size_t
IntegerSet::dimIndex(const std::string &name) const
{
    auto idx = findDim(name);
    if (!idx)
        support::fatal("unknown dimension '" + name + "' in " + str());
    return *idx;
}

std::optional<size_t>
IntegerSet::findDim(const std::string &name) const
{
    for (size_t i = 0; i < dims_.size(); ++i) {
        if (dims_[i] == name)
            return i;
    }
    return std::nullopt;
}

void
IntegerSet::addEquality(const LinearExpr &expr)
{
    POM_ASSERT(expr.numDims() == dims_.size(), "constraint dim mismatch");
    constraints_.push_back(Constraint{expr, true});
}

void
IntegerSet::addInequality(const LinearExpr &expr)
{
    POM_ASSERT(expr.numDims() == dims_.size(), "constraint dim mismatch");
    constraints_.push_back(Constraint{expr, false});
}

void
IntegerSet::addDimBounds(size_t i, std::int64_t low, std::int64_t high)
{
    // dim - low >= 0
    LinearExpr lb = LinearExpr::dim(dims_.size(), i);
    lb.setConstantTerm(-low);
    addInequality(lb);
    // high - dim >= 0
    LinearExpr ub = -LinearExpr::dim(dims_.size(), i);
    ub.setConstantTerm(high);
    addInequality(ub);
}

IntegerSet
IntegerSet::intersect(const IntegerSet &other) const
{
    POM_ASSERT(dims_ == other.dims_, "intersect over different spaces");
    IntegerSet r = *this;
    r.constraints_.insert(r.constraints_.end(), other.constraints_.begin(),
                          other.constraints_.end());
    return r;
}

IntegerSet
IntegerSet::withDimsInserted(size_t pos,
                             std::vector<std::string> names) const
{
    POM_ASSERT(pos <= dims_.size(), "insert position out of range");
    IntegerSet r;
    r.dims_ = dims_;
    r.dims_.insert(r.dims_.begin() + pos, names.begin(), names.end());
    for (const auto &c : constraints_) {
        r.constraints_.push_back(
            Constraint{c.expr.withDimsInserted(pos, names.size()), c.isEq});
    }
    return r;
}

IntegerSet
IntegerSet::withDimRemoved(size_t i) const
{
    IntegerSet r;
    r.dims_ = dims_;
    r.dims_.erase(r.dims_.begin() + i);
    for (const auto &c : constraints_)
        r.constraints_.push_back(Constraint{c.expr.withDimRemoved(i),
                                            c.isEq});
    return r;
}

IntegerSet
IntegerSet::withDimRenamed(size_t i, std::string name) const
{
    IntegerSet r = *this;
    r.dims_.at(i) = std::move(name);
    return r;
}

IntegerSet
IntegerSet::permuted(const std::vector<size_t> &perm) const
{
    POM_ASSERT(perm.size() == dims_.size(), "permutation size mismatch");
    IntegerSet r;
    r.dims_.resize(dims_.size());
    for (size_t i = 0; i < dims_.size(); ++i)
        r.dims_[perm[i]] = dims_[i];
    for (const auto &c : constraints_)
        r.constraints_.push_back(Constraint{c.expr.permuted(perm), c.isEq});
    return r;
}

IntegerSet
IntegerSet::withDimSubstituted(size_t i,
                               const LinearExpr &replacement) const
{
    IntegerSet r;
    r.dims_ = dims_;
    for (const auto &c : constraints_) {
        r.constraints_.push_back(
            Constraint{c.expr.substituted(i, replacement), c.isEq});
    }
    return r;
}

IntegerSet
IntegerSet::projectOut(size_t i) const
{
    POM_ASSERT(i < dims_.size(), "projectOut index out of range");
    IntegerSet work = *this;
    work.simplify();

    // Prefer eliminating through an equality that involves the dim.
    const Constraint *best_eq = nullptr;
    for (const auto &c : work.constraints_) {
        if (!c.isEq || c.expr.coeff(i) == 0)
            continue;
        std::int64_t a = c.expr.coeff(i);
        if (a == 1 || a == -1) {
            best_eq = &c;
            break;
        }
        if (!best_eq)
            best_eq = &c;
    }

    if (best_eq) {
        Constraint eq = *best_eq;
        std::int64_t a = eq.expr.coeff(i);
        LinearExpr rest = eq.expr;
        rest.setCoeff(i, 0);
        IntegerSet out;
        out.dims_ = work.dims_;
        if (a == 1 || a == -1) {
            // d_i = -rest / a = -a * rest (a is a unit).
            LinearExpr repl = rest.scaled(-a);
            for (const auto &c : work.constraints_) {
                if (c == eq)
                    continue;
                out.constraints_.push_back(
                    Constraint{c.expr.substituted(i, repl), c.isEq});
            }
        } else {
            // a * d_i = -rest with |a| > 1: scale each other constraint
            // by |a| and replace the scaled term. This preserves integer
            // solutions of the remaining system (the divisibility
            // condition |a| divides rest is dropped -> rational
            // relaxation for this case).
            std::int64_t abs_a = a > 0 ? a : -a;
            std::int64_t sign_a = a > 0 ? 1 : -1;
            for (const auto &c : work.constraints_) {
                if (c == eq)
                    continue;
                std::int64_t b = c.expr.coeff(i);
                if (b == 0) {
                    out.constraints_.push_back(c);
                    continue;
                }
                LinearExpr scaled = c.expr.scaled(abs_a);
                scaled.setCoeff(i, 0);
                // b*|a|*d_i == (b*sign_a)*(a*d_i) == (b*sign_a)*(-rest)
                scaled = scaled + rest.scaled(-b * sign_a);
                out.constraints_.push_back(Constraint{scaled, c.isEq});
            }
        }
        IntegerSet result = out.withDimRemoved(i);
        result.simplify();
        return result;
    }

    // Fourier-Motzkin on inequalities.
    std::vector<Constraint> lowers, uppers, others;
    for (const auto &c : work.constraints_) {
        std::int64_t a = c.expr.coeff(i);
        POM_ASSERT(!c.isEq || a == 0, "equality not eliminated");
        if (a == 0)
            others.push_back(c);
        else if (a > 0)
            lowers.push_back(c);
        else
            uppers.push_back(c);
    }
    IntegerSet out;
    out.dims_ = work.dims_;
    out.constraints_ = others;
    for (const auto &l : lowers) {
        for (const auto &u : uppers) {
            std::int64_t a = l.expr.coeff(i);
            std::int64_t b = -u.expr.coeff(i);
            LinearExpr combined = l.expr.scaled(b) + u.expr.scaled(a);
            POM_ASSERT(combined.coeff(i) == 0, "FM combination failed");
            out.constraints_.push_back(Constraint{combined, false});
        }
    }
    IntegerSet result = out.withDimRemoved(i);
    result.simplify();
    return result;
}

IntegerSet
IntegerSet::projectOntoPrefix(size_t k) const
{
    POM_ASSERT(k <= dims_.size(), "prefix larger than space");
    IntegerSet r = *this;
    while (r.numDims() > k)
        r = r.projectOut(r.numDims() - 1);
    return r;
}

bool
IntegerSet::isEmpty() const
{
    IntegerSet work = *this;
    work.simplify();
    if (work.hasFalseConstraint())
        return true;
    while (work.numDims() > 0) {
        work = work.projectOut(work.numDims() - 1);
        if (work.hasFalseConstraint())
            return true;
    }
    return false;
}

bool
IntegerSet::hasFalseConstraint() const
{
    for (const auto &c : constraints_) {
        if (!c.expr.isConstant())
            continue;
        std::int64_t k = c.expr.constantTerm();
        if (c.isEq ? (k != 0) : (k < 0))
            return true;
    }
    return false;
}

bool
IntegerSet::containsPoint(const std::vector<std::int64_t> &point) const
{
    POM_ASSERT(point.size() == dims_.size(), "point dim mismatch");
    for (const auto &c : constraints_) {
        std::int64_t v = c.expr.evaluate(point);
        if (c.isEq ? (v != 0) : (v < 0))
            return false;
    }
    return true;
}

bool
IntegerSet::implies(const Constraint &c) const
{
    POM_ASSERT(c.expr.numDims() == dims_.size(), "constraint dim mismatch");
    auto impliesIneq = [this](const LinearExpr &expr) {
        // Implied iff (this AND expr <= -1) is empty.
        IntegerSet test = *this;
        LinearExpr neg = -expr;
        neg.setConstantTerm(neg.constantTerm() - 1);
        test.addInequality(neg);
        return test.isEmpty();
    };
    if (c.isEq)
        return impliesIneq(c.expr) && impliesIneq(-c.expr);
    return impliesIneq(c.expr);
}

DimBounds
IntegerSet::boundsForCodegen(size_t i) const
{
    IntegerSet proj = projectOntoPrefix(i + 1);
    proj.simplify();
    DimBounds bounds;
    for (const auto &c : proj.constraints()) {
        std::int64_t a = c.expr.coeff(i);
        if (a == 0)
            continue;
        for (size_t d = i + 1; d < proj.numDims(); ++d) {
            POM_ASSERT(c.expr.coeff(d) == 0,
                       "bound references inner dim after projection");
        }
        LinearExpr rest = c.expr;
        rest.setCoeff(i, 0);
        if (a > 0 || c.isEq) {
            // a*d_i + rest >= 0 (a>0)  =>  d_i >= ceil(-rest / a)
            std::int64_t div = a > 0 ? a : -a;
            LinearExpr num = (a > 0) ? -rest : rest;
            bounds.lower.push_back(Bound{num, div});
        }
        if (a < 0 || c.isEq) {
            // -b*d_i + rest >= 0 (b>0)  =>  d_i <= floor(rest / b)
            std::int64_t div = a < 0 ? -a : a;
            LinearExpr num = (a < 0) ? rest : -rest;
            bounds.upper.push_back(Bound{num, div});
        }
    }
    return bounds;
}

std::vector<std::vector<std::int64_t>>
IntegerSet::enumerate(size_t limit) const
{
    std::vector<std::vector<std::int64_t>> points;
    if (numDims() == 0) {
        if (containsPoint({}))
            points.push_back({});
        return points;
    }

    std::vector<DimBounds> per_dim;
    per_dim.reserve(numDims());
    for (size_t i = 0; i < numDims(); ++i)
        per_dim.push_back(boundsForCodegen(i));

    std::vector<std::int64_t> prefix(numDims(), 0);
    auto evalBounds = [&](size_t level, std::int64_t &lo, std::int64_t &hi) {
        const DimBounds &b = per_dim[level];
        if (b.lower.empty() || b.upper.empty()) {
            support::fatal("enumerate() on unbounded set: " + str());
        }
        std::vector<std::int64_t> pt(prefix.begin(),
                                     prefix.begin() + level + 1);
        pt[level] = 0;
        bool first = true;
        for (const auto &bound : b.lower) {
            std::int64_t v = ceilDiv(bound.expr.evaluate(pt), bound.divisor);
            lo = first ? v : std::max(lo, v);
            first = false;
        }
        first = true;
        for (const auto &bound : b.upper) {
            std::int64_t v = floorDiv(bound.expr.evaluate(pt),
                                      bound.divisor);
            hi = first ? v : std::min(hi, v);
            first = false;
        }
    };

    // Iterative depth-first enumeration.
    struct Frame { std::int64_t cur, hi; };
    std::vector<Frame> stack;
    size_t level = 0;
    std::int64_t lo = 0, hi = 0;
    evalBounds(0, lo, hi);
    stack.push_back(Frame{lo, hi});
    prefix[0] = lo;
    while (!stack.empty()) {
        level = stack.size() - 1;
        if (stack.back().cur > stack.back().hi) {
            stack.pop_back();
            if (!stack.empty()) {
                ++stack.back().cur;
                prefix[stack.size() - 1] = stack.back().cur;
            }
            continue;
        }
        prefix[level] = stack.back().cur;
        if (level + 1 == numDims()) {
            if (containsPoint(prefix)) {
                points.push_back(prefix);
                POM_ASSERT(points.size() <= limit,
                           "enumerate() exceeded point limit");
            }
            ++stack.back().cur;
        } else {
            evalBounds(level + 1, lo, hi);
            stack.push_back(Frame{lo, hi});
            prefix[level + 1] = lo;
        }
    }
    return points;
}

size_t
IntegerSet::countPoints(size_t limit) const
{
    return enumerate(limit).size();
}

std::optional<std::vector<std::int64_t>>
IntegerSet::lexMin() const
{
    auto points = enumerate();
    if (points.empty())
        return std::nullopt;
    return points.front();
}

void
IntegerSet::simplify()
{
    std::vector<Constraint> kept;
    for (auto &c : constraints_) {
        if (!normalizeConstraint(c)) {
            constraints_.clear();
            constraints_.push_back(falseConstraint(dims_.size()));
            return;
        }
        if (isTriviallyTrue(c))
            continue;
        if (std::find(kept.begin(), kept.end(), c) == kept.end())
            kept.push_back(c);
    }
    constraints_ = std::move(kept);
}

std::string
IntegerSet::str() const
{
    std::ostringstream os;
    os << "{ [";
    for (size_t i = 0; i < dims_.size(); ++i) {
        if (i)
            os << ", ";
        os << dims_[i];
    }
    os << "]";
    if (!constraints_.empty()) {
        os << " : ";
        for (size_t i = 0; i < constraints_.size(); ++i) {
            if (i)
                os << " and ";
            os << constraints_[i].expr.str(dims_)
               << (constraints_[i].isEq ? " = 0" : " >= 0");
        }
    }
    os << " }";
    return os.str();
}

} // namespace pom::poly
