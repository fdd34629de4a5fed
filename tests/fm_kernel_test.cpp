/**
 * @file
 * Tests of IntegerSet's Fourier-Motzkin kernel (the flat constraint
 * matrix) against the algorithm it replaced, kept here as a reference:
 * simplify() and projectOut() over a vector of Constraint values, with
 * every other operation built on them as before.
 *
 *  - Same answers: on seeded sets (|a| > 1 equalities, duplicate rows,
 *    constant-false and constant-true rows) and on every statement
 *    domain and dependence polytope of fuzzed schedules of all
 *    workloads, simplify, projectOut(i) for every i, projectOntoPrefix,
 *    isEmpty and boundsForCodegen print the same as the reference's.
 *  - Overflow: over large sizes x tile factors x skews, an input whose
 *    eliminations need a value outside int64 throws FatalError, and
 *    every other input gets the reference's answer. The reference's
 *    arithmetic is checked in that sweep, so it stops where the kernel
 *    must; its plain int64 form runs only on inputs that provably do
 *    not overflow.
 *  - Conservative: on small domains every answer, the |a| > 1
 *    relaxation included, covers what enumerate() finds.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <limits>
#include <numeric>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "check/fuzzer.h"
#include "lower/lower.h"
#include "poly/dependence.h"
#include "poly/integer_set.h"
#include "support/diagnostics.h"
#include "support/math_util.h"
#include "transform/poly_stmt.h"
#include "workloads/workloads.h"

namespace {

using namespace pom;
using poly::Constraint;
using poly::DimBounds;
using poly::IntegerSet;
using poly::LinearExpr;

// ----- the reference: the Constraint-vector algorithm ----------------------

/** Plain int64 arithmetic, as the replaced code did it. */
struct Plain
{
    static std::int64_t mul(std::int64_t a, std::int64_t b) { return a * b; }
    static std::int64_t add(std::int64_t a, std::int64_t b) { return a + b; }
    static std::int64_t neg(std::int64_t a) { return -a; }
    static void overflow() { ADD_FAILURE() << "plain reference overflowed"; }
};

/** Thrown by Checked at the first result outside int64. */
struct RefOverflow
{};

/** The same operations, checked: they stop where the kernel must. */
struct Checked
{
    static std::int64_t
    mul(std::int64_t a, std::int64_t b)
    {
        std::int64_t r;
        if (__builtin_mul_overflow(a, b, &r))
            throw RefOverflow{};
        return r;
    }
    static std::int64_t
    add(std::int64_t a, std::int64_t b)
    {
        std::int64_t r;
        if (__builtin_add_overflow(a, b, &r))
            throw RefOverflow{};
        return r;
    }
    static std::int64_t neg(std::int64_t a) { return mul(a, -1); }
    static void overflow() { throw RefOverflow{}; }
};

/** A set as the replaced code held it. */
struct RefSet
{
    std::vector<std::string> dims;
    std::vector<Constraint> cs;

    /** The replaced IntegerSet::str(). */
    std::string
    str() const
    {
        std::ostringstream os;
        os << "{ [";
        for (size_t i = 0; i < dims.size(); ++i)
            os << (i ? ", " : "") << dims[i];
        os << "]";
        if (!cs.empty()) {
            os << " : ";
            for (size_t i = 0; i < cs.size(); ++i) {
                if (i)
                    os << " and ";
                os << cs[i].expr.str(dims) << (cs[i].isEq ? " = 0" : " >= 0");
            }
        }
        os << " }";
        return os.str();
    }
};

RefSet
refOf(const IntegerSet &s)
{
    RefSet r{s.dimNames(), {}};
    for (size_t k = 0; k < s.numConstraints(); ++k)
        r.cs.push_back(s.constraint(k));
    return r;
}

std::uint64_t
magnitude(std::int64_t v)
{
    return v < 0 ? std::uint64_t{0} - static_cast<std::uint64_t>(v)
                 : static_cast<std::uint64_t>(v);
}

/**
 * normalizeConstraint: false if the constraint has no integer solution.
 * The gcd is taken over magnitudes so that an exact -2^63 stays
 * defined; a gcd of 2^63 does not fit and counts as an overflow.
 */
template <typename A>
bool
refNormalize(Constraint &c)
{
    std::uint64_t ug = 0;
    for (size_t d = 0; d < c.expr.numDims(); ++d)
        ug = std::gcd(ug, magnitude(c.expr.coeff(d)));
    if (ug > static_cast<std::uint64_t>(
                 std::numeric_limits<std::int64_t>::max()))
        A::overflow();
    const auto g = static_cast<std::int64_t>(ug);
    if (g == 0) {
        std::int64_t k = c.expr.constantTerm();
        return c.isEq ? (k == 0) : (k >= 0);
    }
    if (c.isEq) {
        if (c.expr.constantTerm() % g != 0)
            return false;
        if (g > 1) {
            LinearExpr e(c.expr.numDims());
            for (size_t i = 0; i < c.expr.numDims(); ++i)
                e.setCoeff(i, c.expr.coeff(i) / g);
            e.setConstantTerm(c.expr.constantTerm() / g);
            c.expr = e;
        }
    } else if (g > 1) {
        LinearExpr e(c.expr.numDims());
        for (size_t i = 0; i < c.expr.numDims(); ++i)
            e.setCoeff(i, c.expr.coeff(i) / g);
        e.setConstantTerm(support::floorDiv(c.expr.constantTerm(), g));
        c.expr = e;
    }
    return true;
}

/** isTriviallyTrue. */
bool
refTriviallyTrue(const Constraint &c)
{
    if (!c.expr.isConstant())
        return false;
    std::int64_t k = c.expr.constantTerm();
    return c.isEq ? (k == 0) : (k >= 0);
}

template <typename A>
void
refSimplify(RefSet &s)
{
    std::vector<Constraint> kept;
    for (auto &c : s.cs) {
        if (!refNormalize<A>(c)) {
            s.cs = {Constraint{LinearExpr::constant(s.dims.size(), -1),
                               false}};
            return;
        }
        if (refTriviallyTrue(c))
            continue;
        if (std::find(kept.begin(), kept.end(), c) == kept.end())
            kept.push_back(c);
    }
    s.cs = std::move(kept);
}

/** a*x + b*y over the coefficients and constants, except dim @p skip. */
template <typename A>
LinearExpr
refCombine(const LinearExpr &x, std::int64_t a, const LinearExpr &y,
           std::int64_t b, size_t skip)
{
    LinearExpr r(x.numDims());
    for (size_t d = 0; d < x.numDims(); ++d) {
        if (d != skip)
            r.setCoeff(d, A::add(A::mul(x.coeff(d), a),
                                 A::mul(y.coeff(d), b)));
    }
    r.setConstantTerm(A::add(A::mul(x.constantTerm(), a),
                             A::mul(y.constantTerm(), b)));
    return r;
}

/** The replaced projectOut(). */
template <typename A>
RefSet
refProjectOut(const RefSet &set, size_t i)
{
    RefSet work = set;
    refSimplify<A>(work);

    const Constraint *best_eq = nullptr;
    for (const auto &c : work.cs) {
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

    RefSet out{work.dims, {}};
    if (best_eq) {
        Constraint eq = *best_eq;
        std::int64_t a = eq.expr.coeff(i);
        LinearExpr rest = eq.expr;
        rest.setCoeff(i, 0);
        std::int64_t abs_a = a > 0 ? a : A::neg(a);
        std::int64_t sign_a = a > 0 ? 1 : -1;
        for (const auto &c : work.cs) {
            if (c == eq)
                continue;
            std::int64_t b = c.expr.coeff(i);
            if (b == 0) {
                out.cs.push_back(c);
                continue;
            }
            LinearExpr e(c.expr.numDims());
            if (a == 1 || a == -1) {
                // Substitute d_i = -a * rest: c + (-a * rest) * b.
                for (size_t d = 0; d <= c.expr.numDims(); ++d) {
                    if (d == i)
                        continue;
                    bool k = d == c.expr.numDims();
                    std::int64_t cd = k ? c.expr.constantTerm()
                                        : c.expr.coeff(d);
                    std::int64_t rd = k ? rest.constantTerm()
                                        : rest.coeff(d);
                    std::int64_t v = A::add(cd, A::mul(A::mul(rd, -a), b));
                    if (k)
                        e.setConstantTerm(v);
                    else
                        e.setCoeff(d, v);
                }
            } else {
                // |a| > 1: |a| * c + rest * (-b * sign_a).
                e = refCombine<A>(c.expr, abs_a, rest,
                                  A::mul(A::neg(b), sign_a), i);
            }
            out.cs.push_back(Constraint{e, c.isEq});
        }
    } else {
        std::vector<Constraint> lowers, uppers;
        for (const auto &c : work.cs) {
            std::int64_t a = c.expr.coeff(i);
            if (a == 0)
                out.cs.push_back(c);
            else if (a > 0)
                lowers.push_back(c);
            else
                uppers.push_back(c);
        }
        for (const auto &l : lowers) {
            for (const auto &u : uppers) {
                std::int64_t a = l.expr.coeff(i);
                std::int64_t b = A::neg(u.expr.coeff(i));
                out.cs.push_back(
                    Constraint{refCombine<A>(l.expr, b, u.expr, a, i),
                               false});
            }
        }
    }
    RefSet result{out.dims, {}};
    result.dims.erase(result.dims.begin() + i);
    for (const auto &c : out.cs)
        result.cs.push_back(Constraint{c.expr.withDimRemoved(i), c.isEq});
    refSimplify<A>(result);
    return result;
}

/** prefixes[k] = the projection onto the first k dims (prefixes[n] = s). */
template <typename A>
std::vector<RefSet>
refPrefixes(const RefSet &s)
{
    std::vector<RefSet> prefixes(s.dims.size() + 1);
    prefixes[s.dims.size()] = s;
    for (size_t k = s.dims.size(); k > 0; --k)
        prefixes[k - 1] = refProjectOut<A>(prefixes[k], k - 1);
    return prefixes;
}

bool
refHasFalse(const RefSet &s)
{
    for (const auto &c : s.cs) {
        if (!c.expr.isConstant())
            continue;
        std::int64_t k = c.expr.constantTerm();
        if (c.isEq ? (k != 0) : (k < 0))
            return true;
    }
    return false;
}

/** The replaced isEmpty(). */
template <typename A>
bool
refIsEmpty(const RefSet &s)
{
    RefSet work = s;
    refSimplify<A>(work);
    if (refHasFalse(work))
        return true;
    while (!work.dims.empty()) {
        work = refProjectOut<A>(work, work.dims.size() - 1);
        if (refHasFalse(work))
            return true;
    }
    return false;
}

/** The replaced boundsForCodegen(i), given the prefix of i + 1 dims. */
DimBounds
refBounds(RefSet proj, size_t i)
{
    refSimplify<Plain>(proj);
    DimBounds bounds;
    for (const auto &c : proj.cs) {
        std::int64_t a = c.expr.coeff(i);
        if (a == 0)
            continue;
        LinearExpr rest = c.expr;
        rest.setCoeff(i, 0);
        if (a > 0 || c.isEq)
            bounds.lower.push_back({a > 0 ? -rest : rest, a > 0 ? a : -a});
        if (a < 0 || c.isEq)
            bounds.upper.push_back({a < 0 ? rest : -rest, a < 0 ? -a : a});
    }
    return bounds;
}

std::string
boundsStr(const DimBounds &b, const std::vector<std::string> &dims)
{
    std::ostringstream os;
    for (const auto *list : {&b.lower, &b.upper}) {
        os << (list == &b.lower ? "lower:" : " upper:");
        for (const auto &bound : *list) {
            std::vector<std::string> n(dims.begin(),
                                       dims.begin() + bound.expr.numDims());
            os << " (" << bound.expr.str(n) << ")/" << bound.divisor;
        }
    }
    return os.str();
}

// ----- the differential -----------------------------------------------------

/**
 * Every answer of the kernel on @p s prints the same as the
 * reference's (plain int64; only for inputs that do not overflow).
 */
void
expectSameAsReference(const IntegerSet &s)
{
    SCOPED_TRACE(s.str());
    const RefSet ref = refOf(s);
    ASSERT_EQ(s.str(), ref.str());
    const size_t n = s.numDims();

    IntegerSet simplified = s;
    simplified.simplify();
    RefSet ref_simplified = ref;
    refSimplify<Plain>(ref_simplified);
    EXPECT_EQ(simplified.str(), ref_simplified.str()) << "simplify";

    for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(s.projectOut(i).str(), refProjectOut<Plain>(ref, i).str())
            << "projectOut(" << i << ")";
    }
    const std::vector<RefSet> prefixes = refPrefixes<Plain>(ref);
    for (size_t k = 0; k <= n; ++k) {
        EXPECT_EQ(s.projectOntoPrefix(k).str(), prefixes[k].str())
            << "projectOntoPrefix(" << k << ")";
    }
    EXPECT_EQ(s.isEmpty(), refIsEmpty<Plain>(ref)) << "isEmpty";
    for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(boundsStr(s.boundsForCodegen(i), s.dimNames()),
                  boundsStr(refBounds(prefixes[i + 1], i), s.dimNames()))
            << "boundsForCodegen(" << i << ")";
    }
}

/**
 * One seeded set of up to @p maxDims dims: a box (every dim bounded if
 * @p bounded) plus rows of every kind the kernel treats apart.
 */
IntegerSet
seededSet(std::mt19937_64 &rng, std::int64_t maxDims, bool bounded)
{
    auto pick = [&](std::int64_t lo, std::int64_t hi) {
        return std::uniform_int_distribution<std::int64_t>(lo, hi)(rng);
    };
    const size_t n = static_cast<size_t>(pick(1, maxDims));
    std::vector<std::string> names;
    for (size_t i = 0; i < n; ++i)
        names.push_back("d" + std::to_string(i));
    IntegerSet s(names);
    auto randomExpr = [&](std::int64_t range) {
        LinearExpr e(n);
        for (size_t d = 0; d < n; ++d)
            e.setCoeff(d, pick(-range, range));
        e.setConstantTerm(pick(-12, 12));
        return e;
    };
    for (size_t i = 0; i < n; ++i) {
        if (bounded || pick(0, 5) > 0)
            s.addDimBounds(i, pick(-4, 2), pick(3, 9));
    }
    if (pick(0, 1))
        s.simplify(); // rows added to a simplified set are simplified too
    const int extras = static_cast<int>(pick(0, 6));
    for (int k = 0; k < extras; ++k) {
        switch (pick(0, 7)) {
          case 0: { // an equality with a non-unit coefficient: |a| > 1
            LinearExpr e = randomExpr(1);
            e.setCoeff(static_cast<size_t>(pick(0, n - 1)), pick(2, 4) *
                       (pick(0, 1) ? 1 : -1));
            s.addEquality(e);
            break;
          }
          case 1: { // a unit-coefficient equality
            LinearExpr e = randomExpr(2);
            e.setCoeff(static_cast<size_t>(pick(0, n - 1)),
                       pick(0, 1) ? 1 : -1);
            s.addEquality(e);
            break;
          }
          case 2: // a duplicate of an earlier row
            if (s.numConstraints() > 0) {
                Constraint c = s.constraint(
                    static_cast<size_t>(pick(0, s.numConstraints() - 1)));
                if (c.isEq)
                    s.addEquality(c.expr);
                else
                    s.addInequality(c.expr);
            }
            break;
          case 3: // a constant-false row
            if (pick(0, 1))
                s.addInequality(LinearExpr::constant(n, -pick(1, 3)));
            else
                s.addEquality(LinearExpr::constant(n, pick(1, 3)));
            break;
          case 4: // a constant-true row
            s.addInequality(LinearExpr::constant(n, pick(0, 3)));
            break;
          case 5: // a row the gcd tightens
            s.addInequality(randomExpr(2).scaled(pick(2, 3)));
            break;
          default:
            s.addInequality(randomExpr(3));
            break;
        }
    }
    return s;
}

TEST(FmKernel, MatchesReferenceOnSeededSets)
{
    std::mt19937_64 rng(20261018);
    for (int k = 0; k < 600; ++k) {
        SCOPED_TRACE("seeded set " + std::to_string(k));
        expectSameAsReference(seededSet(rng, 5, false));
    }
}

/** The dependence polytope of dependence.cpp, before its emptiness test. */
IntegerSet
dependencePolytope(const IntegerSet &domain, const poly::Access &src,
                   const poly::Access &dst, size_t level)
{
    size_t n = domain.numDims();
    std::vector<std::string> t_names;
    for (size_t i = 0; i < n; ++i)
        t_names.push_back("t_" + domain.dimName(i));
    IntegerSet dep = domain.withDimsInserted(n, t_names);
    IntegerSet tgt = domain.withDimsInserted(0, domain.dimNames());
    for (size_t i = 0; i < n; ++i)
        tgt = tgt.withDimRenamed(n + i, t_names[i]);
    dep = dep.intersect(tgt);
    for (size_t j = 0; j < src.map.numResults(); ++j) {
        dep.addEquality(src.map.result(j).withDimsInserted(n, n) -
                        dst.map.result(j).withDimsInserted(0, n));
    }
    for (size_t k = 0; k < level; ++k) {
        dep.addEquality(LinearExpr::dim(2 * n, n + k) -
                        LinearExpr::dim(2 * n, k));
    }
    LinearExpr strict = LinearExpr::dim(2 * n, n + level) -
                        LinearExpr::dim(2 * n, level);
    strict.setConstantTerm(-1);
    dep.addInequality(strict);
    return dep;
}

TEST(FmKernel, MatchesReferenceOnFuzzedSchedules)
{
    // Every statement domain, and every dependence polytope the
    // analyses build, of fuzzed schedules of all workloads.
    std::size_t domains = 0, polytopes = 0;
    for (const auto &name : workloads::allNames()) {
        const std::int64_t size = check::defaultFuzzSize(name);
        for (unsigned seed = 1; seed <= 2; ++seed) {
            SCOPED_TRACE(name + " seed " + std::to_string(seed));
            auto gen = workloads::makeByName(name, size);
            auto ops = check::generateSchedule(*gen, seed);
            auto w = workloads::makeByName(name, size);
            ASSERT_TRUE(check::applyScheduleOps(*w, ops));
            auto stmts = lower::extractStmts(w->func());
            lower::applyDirectives(w->func(), stmts);
            for (const auto &stmt : stmts) {
                const IntegerSet &dom = stmt.sched.domain;
                expectSameAsReference(dom);
                ++domains;
                const auto accesses = stmt.transformedAccesses();
                for (const auto &a : accesses) {
                    for (const auto &b : accesses) {
                        if (a.array != b.array || (!a.isWrite && !b.isWrite))
                            continue;
                        for (size_t level = 0; level < dom.numDims();
                             ++level) {
                            expectSameAsReference(
                                dependencePolytope(dom, a, b, level));
                            ++polytopes;
                        }
                    }
                }
            }
        }
    }
    EXPECT_GT(domains, workloads::allNames().size() * 2);
    EXPECT_GT(polytopes, domains);
}

// ----- overflow -------------------------------------------------------------

/**
 * A tiled and skewed 2-D domain: 0 <= i, j < size, i split by factor
 * into (i0, i1) with 0 <= i1 < factor, and j skewed by skew * i. With
 * @p explicitTile the dims are [i, i0, i1, j] and i = factor*i0 + i1 is
 * an equality (|a| > 1 on i0); otherwise they are [i0, i1, j] and
 * factor*i0 + i1 replaces i, as transform::split writes it. Nullopt if
 * a coefficient of the input itself does not fit in int64.
 */
std::optional<IntegerSet>
tiledSkewed(std::int64_t size, std::int64_t factor, std::int64_t skew,
            bool explicitTile)
{
    std::int64_t skewed_high, skew_factor;
    if (__builtin_mul_overflow(skew, size - 1, &skewed_high) ||
        __builtin_add_overflow(skewed_high, size - 1, &skewed_high) ||
        __builtin_mul_overflow(skew, factor, &skew_factor))
        return std::nullopt;
    if (explicitTile) {
        IntegerSet s({"i", "i0", "i1", "j"});
        s.addDimBounds(0, 0, size - 1);
        s.addDimBounds(2, 0, factor - 1);
        s.addEquality(LinearExpr({1, -factor, -1, 0}, 0));
        // 0 <= j - skew * i <= size - 1, within the skewed box.
        s.addInequality(LinearExpr({-skew, 0, 0, 1}, 0));
        s.addInequality(LinearExpr({skew, 0, 0, -1}, size - 1));
        s.addDimBounds(3, 0, skewed_high);
        return s;
    }
    IntegerSet s({"i0", "i1", "j"});
    s.addInequality(LinearExpr({factor, 1, 0}, 0));
    s.addInequality(LinearExpr({-factor, -1, 0}, size - 1));
    s.addDimBounds(1, 0, factor - 1);
    s.addInequality(LinearExpr({-skew_factor, -skew, 1}, 0));
    s.addInequality(LinearExpr({skew_factor, skew, -1}, size - 1));
    s.addDimBounds(2, 0, skewed_high);
    return s;
}

/**
 * A seeded set of 2-4 dims whose coefficients reach 2^40 and whose
 * constants reach 2^62, with |a| > 1 and unit equalities among its rows.
 */
IntegerSet
largeSet(std::mt19937_64 &rng)
{
    auto pick = [&](std::int64_t lo, std::int64_t hi) {
        return std::uniform_int_distribution<std::int64_t>(lo, hi)(rng);
    };
    auto big = [&](int maxLog) {
        std::int64_t v = std::int64_t{1} << pick(0, maxLog);
        v += pick(0, 1) ? pick(0, 5) : 0;
        return pick(0, 1) ? v : -v;
    };
    const size_t n = static_cast<size_t>(pick(2, 4));
    std::vector<std::string> names;
    for (size_t i = 0; i < n; ++i)
        names.push_back("d" + std::to_string(i));
    IntegerSet s(names);
    for (size_t i = 0; i < n; ++i)
        s.addDimBounds(i, 0, std::abs(big(62)) - 1);
    const int rows = static_cast<int>(pick(1, 4));
    for (int k = 0; k < rows; ++k) {
        LinearExpr e(n);
        for (size_t d = 0; d < n; ++d)
            e.setCoeff(d, pick(0, 2) ? big(40) : 0);
        e.setConstantTerm(big(62));
        switch (pick(0, 3)) {
          case 0:
            s.addEquality(e);
            break;
          case 1:
            e.setCoeff(static_cast<size_t>(pick(0, n - 1)), 1);
            s.addEquality(e);
            break;
          default:
            s.addInequality(e);
            break;
        }
    }
    return s;
}

/** Every FM answer of the kernel on @p s, or nullopt if it threw. */
std::optional<std::vector<std::string>>
kernelAnswers(const IntegerSet &s)
{
    try {
        std::vector<std::string> out;
        for (size_t i = 0; i < s.numDims(); ++i)
            out.push_back(s.projectOut(i).str());
        for (size_t k = 0; k <= s.numDims(); ++k)
            out.push_back(s.projectOntoPrefix(k).str());
        out.push_back(s.isEmpty() ? "empty" : "non-empty");
        return out;
    } catch (const support::FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("overflow"), std::string::npos)
            << e.what();
        return std::nullopt;
    }
}

/** The same answers from the reference under arithmetic @p A. */
template <typename A>
std::optional<std::vector<std::string>>
referenceAnswers(const IntegerSet &s)
{
    try {
        const RefSet ref = refOf(s);
        std::vector<std::string> out;
        for (size_t i = 0; i < s.numDims(); ++i)
            out.push_back(refProjectOut<A>(ref, i).str());
        for (const auto &prefix : refPrefixes<A>(ref))
            out.push_back(prefix.str());
        out.push_back(refIsEmpty<A>(ref) ? "empty" : "non-empty");
        return out;
    } catch (const RefOverflow &) {
        return std::nullopt;
    }
}

/**
 * The kernel throws on @p input exactly when the checked reference
 * overflows, and otherwise answers as the plain reference does.
 */
void
expectThrowsExactlyOnOverflow(const IntegerSet &input, std::size_t &threw,
                              std::size_t &answered)
{
    SCOPED_TRACE(input.str());
    auto got = kernelAnswers(input);
    auto checked = referenceAnswers<Checked>(input);
    EXPECT_EQ(got.has_value(), checked.has_value())
        << (got ? "the kernel answered an input whose eliminations "
                  "overflow int64"
                : "the kernel threw on an input that fits");
    if (!got) {
        ++threw;
        return;
    }
    ++answered;
    if (checked) {
        // Provably no overflow: the plain reference is defined here.
        EXPECT_EQ(*got, *referenceAnswers<Plain>(input));
    }
}

TEST(FmKernel, OverflowThrowsAndNeverAnswers)
{
    const std::int64_t kBig = std::int64_t{1} << 62;
    std::size_t threw = 0, answered = 0;
    for (std::int64_t size : {std::int64_t{64}, std::int64_t{1} << 20,
                              std::int64_t{1} << 31, std::int64_t{1} << 40,
                              std::int64_t{1} << 52, kBig}) {
        for (std::int64_t factor : {std::int64_t{2}, std::int64_t{7},
                                    std::int64_t{1} << 10,
                                    std::int64_t{1} << 21,
                                    std::int64_t{1} << 31,
                                    std::int64_t{1} << 40}) {
            for (std::int64_t skew : {std::int64_t{0}, std::int64_t{1},
                                      std::int64_t{3},
                                      std::int64_t{1} << 16,
                                      std::int64_t{1} << 30}) {
                for (bool explicitTile : {true, false}) {
                    auto s = tiledSkewed(size, factor, skew, explicitTile);
                    if (!s)
                        continue;
                    // Every rotation of the dims: other elimination orders.
                    for (size_t r = 0; r < s->numDims(); ++r) {
                        std::vector<size_t> perm(s->numDims());
                        for (size_t d = 0; d < perm.size(); ++d)
                            perm[d] = (d + r) % perm.size();
                        expectThrowsExactlyOnOverflow(s->permuted(perm),
                                                      threw, answered);
                    }
                }
            }
        }
    }
    std::mt19937_64 rng(5);
    for (int k = 0; k < 400; ++k)
        expectThrowsExactlyOnOverflow(largeSet(rng), threw, answered);
    EXPECT_GT(threw, 100u) << "too few inputs reached the overflow path";
    EXPECT_GT(answered, 100u);
}

TEST(FmKernel, OverflowNamesTheSet)
{
    const std::int64_t kBig = std::int64_t{1} << 62;
    IntegerSet s({"x", "y"});
    s.addInequality(LinearExpr({kBig, 1}, 0));
    s.addInequality(LinearExpr({-3, 1}, kBig));
    try {
        s.projectOut(0);
        ADD_FAILURE() << "no overflow reported";
    } catch (const support::FatalError &e) {
        std::string what = e.what();
        EXPECT_NE(what.find("overflow"), std::string::npos) << what;
        EXPECT_NE(what.find(s.str()), std::string::npos) << what;
    }
}

// ----- conservative on small domains ----------------------------------------

TEST(FmKernel, AnswersCoverEnumerationOnSmallDomains)
{
    // Tiled and skewed domains with non-dividing factors, plus seeded
    // sets: projections contain every projected point, bounds admit
    // every point, and an empty answer means there are no points.
    std::vector<IntegerSet> sets;
    for (std::int64_t size : {5, 9, 12})
        for (std::int64_t factor : {2, 3, 4})
            for (std::int64_t skew : {0, 1, 2})
                for (bool explicitTile : {true, false})
                    sets.push_back(
                        *tiledSkewed(size, factor, skew, explicitTile));
    std::mt19937_64 rng(7);
    for (int k = 0; k < 300; ++k)
        sets.push_back(seededSet(rng, 3, true));

    std::size_t nonEmpty = 0;
    for (const auto &s : sets) {
        SCOPED_TRACE(s.str());
        if (s.isEmpty())
            continue; // enumerate() needs the bounds of a non-empty set
        const auto points = s.enumerate();
        if (points.empty())
            continue;
        ++nonEmpty;
        const size_t n = s.numDims();
        for (size_t i = 0; i < n; ++i) {
            IntegerSet proj = s.projectOut(i);
            IntegerSet prefix = s.projectOntoPrefix(i + 1);
            DimBounds bounds = s.boundsForCodegen(i);
            for (const auto &p : points) {
                std::vector<std::int64_t> q = p;
                q.erase(q.begin() + i);
                EXPECT_TRUE(proj.containsPoint(q)) << "projectOut(" << i
                                                   << ") lost a point";
                std::vector<std::int64_t> head(p.begin(),
                                               p.begin() + i + 1);
                EXPECT_TRUE(prefix.containsPoint(head))
                    << "projectOntoPrefix(" << i + 1 << ") lost a point";
                head[i] = 0;
                for (const auto &b : bounds.lower) {
                    EXPECT_GE(p[i], support::ceilDiv(b.expr.evaluate(head),
                                                     b.divisor));
                }
                for (const auto &b : bounds.upper) {
                    EXPECT_LE(p[i], support::floorDiv(b.expr.evaluate(head),
                                                      b.divisor));
                }
            }
        }
    }
    EXPECT_GT(nonEmpty, sets.size() / 4);
}

} // namespace
