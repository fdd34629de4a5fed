#include "poly/integer_set.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <sstream>

#include "support/diagnostics.h"
#include "support/math_util.h"

namespace pom::poly {

namespace {

using support::ceilDiv;
using support::checkedAdd;
using support::checkedMul;
using support::checkedNeg;
using support::floorDiv;
using support::magnitude;

constexpr std::int64_t kInequality = 0;
constexpr std::int64_t kEquality = 1;

/**
 * The matrix an elimination writes into, swapped with the set's own
 * afterwards, so a chain of eliminations reuses two buffers.
 */
thread_local std::vector<std::int64_t> t_scratch;

/** Rows with a non-zero coefficient on the eliminated dim, by sign. */
thread_local std::vector<size_t> t_lowers, t_uppers;

/** The open-addressing table of dedupeRows(): kept row indices. */
thread_local std::vector<std::uint32_t> t_slots;

constexpr std::uint32_t kEmptySlot = std::numeric_limits<std::uint32_t>::max();

enum class RowStatus { Kept, True, False };

/**
 * Normalize one row (@p n coefficients, the constant, the kind) in
 * place: divide by the gcd of the coefficients, rounding an
 * inequality's constant down (integer tightening). Returns False if the
 * row has no integer solution (a false constant, or an equality whose
 * constant the gcd does not divide) and True for a true constant.
 */
RowStatus
normalizeRow(std::int64_t *row, size_t n, bool &overflow)
{
    std::uint64_t g = 0;
    for (size_t d = 0; d < n && g != 1; ++d)
        g = std::gcd(g, magnitude(row[d]));
    std::int64_t &k = row[n];
    const bool eq = row[n + 1] == kEquality;
    if (g == 0)
        return (eq ? k == 0 : k >= 0) ? RowStatus::True : RowStatus::False;
    if (g > static_cast<std::uint64_t>(
                std::numeric_limits<std::int64_t>::max())) {
        overflow = true;
        return RowStatus::Kept;
    }
    const auto div = static_cast<std::int64_t>(g);
    if (eq && k % div != 0)
        return RowStatus::False; // No integer solutions (gcd test).
    if (div > 1) {
        for (size_t d = 0; d < n; ++d)
            row[d] /= div;
        k = eq ? k / div : floorDiv(k, div);
    }
    return RowStatus::Kept;
}

/**
 * A hash of one row: a sum of independent products (no dependency
 * chain between columns), then one mixing step.
 */
inline std::uint64_t
hashRow(const std::int64_t *row, size_t s)
{
    std::uint64_t h = 0;
    for (size_t d = 0; d < s; ++d) {
        h += static_cast<std::uint64_t>(row[d]) *
             (0x9e3779b97f4a7c15ull + 2 * d * 0xbf58476d1ce4e5b9ull);
    }
    h ^= h >> 32;
    h *= 0xd6e8feb86659fd93ull;
    return h ^ (h >> 32);
}

/**
 * Drop every row of @p rows (stride @p s) equal to an earlier one,
 * keeping the first occurrences in order.
 */
void
dedupeRows(std::vector<std::int64_t> &rows, size_t s)
{
    const size_t m = rows.size() / s;
    if (m < 2)
        return;
    size_t cap = 16;
    while (cap < 2 * m)
        cap <<= 1;
    std::vector<std::uint32_t> &slots = t_slots;
    slots.assign(cap, kEmptySlot);
    std::int64_t *base = rows.data();
    size_t kept = 0;
    for (size_t r = 0; r < m; ++r) {
        const std::int64_t *row = base + r * s;
        size_t h = hashRow(row, s) & (cap - 1);
        bool dup = false;
        for (; slots[h] != kEmptySlot; h = (h + 1) & (cap - 1)) {
            if (std::equal(row, row + s, base + slots[h] * s)) {
                dup = true;
                break;
            }
        }
        if (dup)
            continue;
        if (kept != r)
            std::copy(row, row + s, base + kept * s);
        slots[h] = static_cast<std::uint32_t>(kept++);
    }
    rows.resize(kept * s);
}

/**
 * Visit the points of @p set in lexicographic order (depth-first over
 * the codegen bounds of each dim) until @p visit returns false. Fatal
 * if the set is unbounded.
 */
template <typename Visit>
void
forEachPoint(const IntegerSet &set, Visit &&visit)
{
    // A set FM proves empty has no codegen bounds to walk.
    if (set.isEmpty())
        return;
    const size_t n = set.numDims();
    if (n == 0) {
        if (set.containsPoint({}))
            visit(std::vector<std::int64_t>{});
        return;
    }

    std::vector<DimBounds> per_dim;
    per_dim.reserve(n);
    for (size_t i = 0; i < n; ++i)
        per_dim.push_back(set.boundsForCodegen(i));

    std::vector<std::int64_t> prefix(n, 0);
    auto evalBounds = [&](size_t level, std::int64_t &lo, std::int64_t &hi) {
        const DimBounds &b = per_dim[level];
        if (b.lower.empty() || b.upper.empty()) {
            support::fatal("enumerate() on unbounded set: " + set.str());
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
        if (level + 1 == n) {
            if (set.containsPoint(prefix) && !visit(prefix))
                return;
            ++stack.back().cur;
        } else {
            evalBounds(level + 1, lo, hi);
            stack.push_back(Frame{lo, hi});
            prefix[level + 1] = lo;
        }
    }
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

Constraint
IntegerSet::constraint(size_t r) const
{
    const std::int64_t *row = rows_.data() + r * stride();
    const size_t n = numDims();
    return Constraint{
        LinearExpr(std::vector<std::int64_t>(row, row + n), row[n]),
        row[n + 1] == kEquality};
}

void
IntegerSet::appendRow(const LinearExpr &expr, std::int64_t kind)
{
    POM_ASSERT(expr.numDims() == dims_.size(), "constraint dim mismatch");
    rows_.insert(rows_.end(), expr.coeffs().begin(), expr.coeffs().end());
    rows_.push_back(expr.constantTerm());
    rows_.push_back(kind);
    simplified_ = false;
}

void
IntegerSet::addEquality(const LinearExpr &expr)
{
    appendRow(expr, kEquality);
}

void
IntegerSet::addInequality(const LinearExpr &expr)
{
    appendRow(expr, kInequality);
}

void
IntegerSet::addDimBounds(size_t i, std::int64_t low, std::int64_t high)
{
    POM_ASSERT(i < dims_.size(), "dim index out of range");
    const size_t s = stride();
    // dim - low >= 0, then high - dim >= 0
    rows_.resize(rows_.size() + 2 * s, 0);
    std::int64_t *lb = rows_.data() + rows_.size() - 2 * s;
    std::int64_t *ub = lb + s;
    lb[i] = 1;
    lb[numDims()] = -low;
    ub[i] = -1;
    ub[numDims()] = high;
    lb[numDims() + 1] = ub[numDims() + 1] = kInequality;
    simplified_ = false;
}

IntegerSet
IntegerSet::intersect(const IntegerSet &other) const
{
    POM_ASSERT(dims_ == other.dims_, "intersect over different spaces");
    IntegerSet r = *this;
    r.rows_.insert(r.rows_.end(), other.rows_.begin(), other.rows_.end());
    r.simplified_ = false;
    return r;
}

IntegerSet
IntegerSet::withDimsInserted(size_t pos,
                             std::vector<std::string> names) const
{
    POM_ASSERT(pos <= dims_.size(), "insert position out of range");
    IntegerSet r;
    r.dims_ = dims_;
    r.dims_.insert(r.dims_.begin() + pos,
                   std::make_move_iterator(names.begin()),
                   std::make_move_iterator(names.end()));
    const size_t s = stride(), t = r.stride(), m = numConstraints();
    r.rows_.assign(m * t, 0);
    for (size_t k = 0; k < m; ++k) {
        const std::int64_t *src = rows_.data() + k * s;
        std::int64_t *dst = r.rows_.data() + k * t;
        std::copy(src, src + pos, dst);
        std::copy(src + pos, src + s, dst + pos + (t - s));
    }
    // Zero columns keep every row normalized and distinct.
    r.simplified_ = simplified_;
    return r;
}

IntegerSet
IntegerSet::pairedWithCopy(std::vector<std::string> names) const
{
    const size_t n = numDims(), s = stride(), m = numConstraints();
    POM_ASSERT(names.size() == n, "a paired copy names every dim");
    IntegerSet r;
    r.dims_ = dims_;
    r.dims_.insert(r.dims_.end(), std::make_move_iterator(names.begin()),
                   std::make_move_iterator(names.end()));
    const size_t t = r.stride();
    r.rows_.assign(2 * m * t, 0);
    for (size_t k = 0; k < m; ++k) {
        const std::int64_t *src = rows_.data() + k * s;
        std::int64_t *x = r.rows_.data() + k * t;
        std::int64_t *y = r.rows_.data() + (m + k) * t;
        std::copy(src, src + n, x);
        std::copy(src, src + n, y + n);
        x[2 * n] = y[2 * n] = src[n];
        x[2 * n + 1] = y[2 * n + 1] = src[n + 1];
    }
    return r;
}

IntegerSet
IntegerSet::withDimRemoved(size_t i) const
{
    POM_ASSERT(i < dims_.size(), "remove index out of range");
    IntegerSet r;
    r.dims_ = dims_;
    r.dims_.erase(r.dims_.begin() + i);
    const size_t s = stride(), m = numConstraints();
    r.rows_.resize(m * (s - 1));
    for (size_t k = 0; k < m; ++k) {
        const std::int64_t *src = rows_.data() + k * s;
        POM_ASSERT(src[i] == 0, "removing dim with non-zero coefficient");
        std::int64_t *dst = r.rows_.data() + k * (s - 1);
        std::copy(src, src + i, dst);
        std::copy(src + i + 1, src + s, dst + i);
    }
    r.simplified_ = simplified_;
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
    const size_t n = numDims(), s = stride();
    IntegerSet r;
    r.dims_.resize(n);
    for (size_t i = 0; i < n; ++i)
        r.dims_[perm[i]] = dims_[i];
    r.rows_.resize(rows_.size());
    for (size_t k = 0; k < numConstraints(); ++k) {
        const std::int64_t *src = rows_.data() + k * s;
        std::int64_t *dst = r.rows_.data() + k * s;
        for (size_t i = 0; i < n; ++i)
            dst[perm[i]] = src[i];
        dst[n] = src[n];
        dst[n + 1] = src[n + 1];
    }
    r.simplified_ = simplified_;
    return r;
}

IntegerSet
IntegerSet::projectOut(size_t i) const
{
    IntegerSet r = *this;
    r.eliminate(i);
    return r;
}

void
IntegerSet::eliminate(size_t i)
{
    POM_ASSERT(i < dims_.size(), "projectOut index out of range");
    simplify();
    const size_t n = numDims();
    const size_t s = n + 2; // columns per input row
    const size_t t = n + 1; // columns per output row: dim i is gone
    const size_t m = numConstraints();
    const std::int64_t *in = rows_.data();
    auto row = [&](size_t r) { return in + r * s; };

    // Prefer eliminating through an equality that involves the dim: the
    // first one with a unit coefficient, else the first one.
    size_t eq = m;
    for (size_t r = 0; r < m; ++r) {
        const std::int64_t a = row(r)[i];
        if (row(r)[n + 1] != kEquality || a == 0)
            continue;
        if (a == 1 || a == -1) {
            eq = r;
            break;
        }
        if (eq == m)
            eq = r;
    }

    std::vector<std::int64_t> &out = t_scratch;
    bool overflow = false, infeasible = false;
    size_t kept = 0; // rows written to out
    auto copyRow = [&](const std::int64_t *src) {
        std::int64_t *dst = out.data() + kept++ * t;
        std::copy(src, src + i, dst);
        std::copy(src + i + 1, src + s, dst + i);
    };
    // The row just written at out[kept]: keep it unless it normalizes
    // to a true constant; a false one makes the whole set false.
    auto finishRow = [&]() {
        switch (normalizeRow(out.data() + kept * t, n - 1, overflow)) {
          case RowStatus::Kept: ++kept; break;
          case RowStatus::True: break;
          case RowStatus::False: infeasible = true; break;
        }
    };
    // Write x * xs + y * ys without dim i, of kind @p kind, as a row.
    auto combine = [&](const std::int64_t *x, std::int64_t xs,
                       const std::int64_t *y, std::int64_t ys,
                       std::int64_t kind) {
        std::int64_t *dst = out.data() + kept * t;
        for (size_t d = 0; d <= n; ++d) {
            if (d == i)
                continue;
            *dst++ = checkedAdd(checkedMul(x[d], xs, overflow),
                                checkedMul(y[d], ys, overflow), overflow);
        }
        *dst = kind;
        finishRow();
    };

    if (eq < m) {
        out.resize((m - 1) * t);
        const std::int64_t *e = row(eq);
        const std::int64_t a = e[i];
        if (a == 1 || a == -1) {
            // d_i = -a * rest, where rest is the equality without d_i.
            for (size_t r = 0; r < m; ++r) {
                const std::int64_t *c = row(r);
                if (r == eq)
                    continue;
                if (c[i] == 0) {
                    copyRow(c);
                    continue;
                }
                std::int64_t *dst = out.data() + kept * t;
                for (size_t d = 0; d <= n; ++d) {
                    if (d == i)
                        continue;
                    std::int64_t repl = checkedMul(e[d], -a, overflow);
                    *dst++ = checkedAdd(
                        c[d], checkedMul(repl, c[i], overflow), overflow);
                }
                *dst = c[n + 1];
                finishRow();
            }
        } else {
            // a * d_i = -rest with |a| > 1: scale each other row by |a|
            // and replace the scaled term. This preserves the integer
            // solutions of the remaining system but drops the condition
            // that |a| divides rest: a rational relaxation.
            const std::int64_t abs_a = a > 0 ? a : checkedNeg(a, overflow);
            const std::int64_t sign_a = a > 0 ? 1 : -1;
            for (size_t r = 0; r < m; ++r) {
                const std::int64_t *c = row(r);
                if (r == eq)
                    continue;
                if (c[i] == 0) {
                    copyRow(c);
                    continue;
                }
                // b*|a|*d_i == (b*sign_a)*(a*d_i) == (b*sign_a)*(-rest)
                const std::int64_t factor =
                    checkedMul(checkedNeg(c[i], overflow), sign_a, overflow);
                combine(c, abs_a, e, factor, c[n + 1]);
            }
        }
    } else {
        // Fourier-Motzkin on inequalities: the rows without the dim,
        // then every (lower, upper) pair in order.
        std::vector<size_t> &lowers = t_lowers, &uppers = t_uppers;
        lowers.clear();
        uppers.clear();
        size_t others = 0;
        for (size_t r = 0; r < m; ++r) {
            const std::int64_t a = row(r)[i];
            POM_ASSERT(row(r)[n + 1] != kEquality || a == 0,
                       "equality not eliminated");
            if (a == 0)
                ++others;
            else
                (a > 0 ? lowers : uppers).push_back(r);
        }
        out.resize((others + lowers.size() * uppers.size()) * t);
        for (size_t r = 0; r < m; ++r) {
            if (row(r)[i] == 0)
                copyRow(row(r));
        }
        for (size_t l : lowers) {
            for (size_t u : uppers) {
                const std::int64_t b = checkedNeg(row(u)[i], overflow);
                combine(row(l), b, row(u), row(l)[i], kInequality);
            }
        }
    }

    if (overflow) {
        support::fatal("integer overflow in Fourier-Motzkin elimination "
                       "of '" + dims_[i] + "' from " + str());
    }
    dims_.erase(dims_.begin() + i);
    simplified_ = true;
    if (infeasible) {
        setFalse();
        return;
    }
    out.resize(kept * t);
    rows_.swap(out);
    dedupeRows(rows_, t);
}

void
IntegerSet::setFalse()
{
    // The canonical false constraint: -1 >= 0.
    rows_.assign(stride(), 0);
    rows_[numDims()] = -1;
    rows_[numDims() + 1] = kInequality;
    simplified_ = true;
}

IntegerSet
IntegerSet::projectOntoPrefix(size_t k) const
{
    POM_ASSERT(k <= dims_.size(), "prefix larger than space");
    IntegerSet r = *this;
    while (r.numDims() > k)
        r.eliminate(r.numDims() - 1);
    return r;
}

bool
IntegerSet::isEmpty() const
{
    IntegerSet work = *this;
    return work.becomesEmpty();
}

bool
IntegerSet::becomesEmpty()
{
    // A simplified set with a false constraint is that one constraint.
    auto isFalse = [this] {
        return numConstraints() == 1 && hasFalseConstraint();
    };
    simplify();
    if (isFalse())
        return true;
    // Projecting a set without constraints never yields a false one.
    while (numDims() > 0 && numConstraints() > 0) {
        eliminate(numDims() - 1);
        if (isFalse())
            return true;
    }
    return false;
}

bool
IntegerSet::hasFalseConstraint() const
{
    const size_t n = numDims(), s = stride();
    for (size_t r = 0; r < numConstraints(); ++r) {
        const std::int64_t *row = rows_.data() + r * s;
        if (std::any_of(row, row + n,
                        [](std::int64_t c) { return c != 0; }))
            continue;
        if (row[n + 1] == kEquality ? row[n] != 0 : row[n] < 0)
            return true;
    }
    return false;
}

bool
IntegerSet::containsPoint(const std::vector<std::int64_t> &point) const
{
    POM_ASSERT(point.size() == dims_.size(), "point dim mismatch");
    const size_t n = numDims(), s = stride();
    for (size_t r = 0; r < numConstraints(); ++r) {
        const std::int64_t *row = rows_.data() + r * s;
        std::int64_t v = row[n];
        for (size_t d = 0; d < n; ++d)
            v += row[d] * point[d];
        if (row[n + 1] == kEquality ? v != 0 : v < 0)
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
        return test.becomesEmpty();
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
    for (size_t r = 0; r < proj.numConstraints(); ++r) {
        const std::int64_t a = proj.coeff(r, i);
        if (a == 0)
            continue;
        const bool eq = proj.isEquality(r);
        LinearExpr rest = proj.constraint(r).expr;
        rest.setCoeff(i, 0);
        if (a > 0 || eq) {
            // a*d_i + rest >= 0 (a>0)  =>  d_i >= ceil(-rest / a)
            std::int64_t div = a > 0 ? a : -a;
            LinearExpr num = (a > 0) ? -rest : rest;
            bounds.lower.push_back(Bound{num, div});
        }
        if (a < 0 || eq) {
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
    forEachPoint(*this, [&](const std::vector<std::int64_t> &p) {
        points.push_back(p);
        POM_ASSERT(points.size() <= limit,
                   "enumerate() exceeded point limit");
        return true;
    });
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
    std::optional<std::vector<std::int64_t>> first;
    forEachPoint(*this, [&](const std::vector<std::int64_t> &p) {
        first = p;
        return false;
    });
    return first;
}

void
IntegerSet::simplify()
{
    if (simplified_)
        return;
    const size_t n = numDims(), s = stride(), m = numConstraints();
    bool overflow = false;
    size_t kept = 0;
    for (size_t r = 0; r < m; ++r) {
        std::int64_t *row = rows_.data() + r * s;
        RowStatus status = normalizeRow(row, n, overflow);
        if (overflow) {
            support::fatal("integer overflow normalizing a constraint of " +
                           str());
        }
        if (status == RowStatus::False) {
            setFalse();
            return;
        }
        if (status == RowStatus::True)
            continue;
        if (kept != r)
            std::copy(row, row + s, rows_.data() + kept * s);
        ++kept;
    }
    rows_.resize(kept * s);
    dedupeRows(rows_, s);
    simplified_ = true;
}

void
IntegerSet::appendRowsKey(std::string &key) const
{
    const size_t n = numDims(), s = stride(), m = numConstraints();
    const auto rows = static_cast<std::int64_t>(m);
    key.reserve(key.size() + sizeof(rows) +
                m * ((n + 1) * sizeof(std::int64_t) + 1));
    key.append(reinterpret_cast<const char *>(&rows), sizeof(rows));
    for (size_t r = 0; r < m; ++r) {
        // The coefficients and the constant are adjacent in the row.
        const std::int64_t *row = rows_.data() + r * s;
        key.append(reinterpret_cast<const char *>(row),
                   (n + 1) * sizeof(std::int64_t));
        key += row[n + 1] == kEquality ? 'E' : 'I';
    }
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
    const size_t n = numDims(), s = stride();
    for (size_t r = 0; r < numConstraints(); ++r) {
        const std::int64_t *row = rows_.data() + r * s;
        os << (r ? " and " : " : ");
        printAffine(os, row, row[n], dims_);
        os << (row[n + 1] == kEquality ? " = 0" : " >= 0");
    }
    os << " }";
    return os.str();
}

} // namespace pom::poly
