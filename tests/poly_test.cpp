/**
 * @file
 * Unit tests for the polyhedral substrate: linear expressions, integer
 * sets (Fourier-Motzkin projection, emptiness, bounds, enumeration),
 * affine maps, and dependence analysis.
 */

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "poly/affine_map.h"
#include "poly/dependence.h"
#include "poly/integer_set.h"
#include "poly/linear_expr.h"
#include "support/diagnostics.h"
#include "support/math_util.h"
#include "support/splitmix64.h"

namespace {

using namespace pom::poly;

LinearExpr
expr(std::vector<std::int64_t> coeffs, std::int64_t c)
{
    return LinearExpr(std::move(coeffs), c);
}

/** The full view of the dependences the carried analysis finds. */
std::vector<Dependence>
fullDependences(const IntegerSet &dom, const std::vector<Access> &acc)
{
    return analyzeSelfDependences(dom, acc,
                                  analyzeCarriedDependences(dom, acc));
}

// ---------------------------------------------------------------- math

TEST(MathUtil, FloorCeilDiv)
{
    EXPECT_EQ(pom::support::floorDiv(7, 8), 0);
    EXPECT_EQ(pom::support::floorDiv(-1, 8), -1);
    EXPECT_EQ(pom::support::floorDiv(-8, 8), -1);
    EXPECT_EQ(pom::support::floorDiv(8, 8), 1);
    EXPECT_EQ(pom::support::ceilDiv(7, 8), 1);
    EXPECT_EQ(pom::support::ceilDiv(-7, 8), 0);
    EXPECT_EQ(pom::support::ceilDiv(8, 8), 1);
}

// ---------------------------------------------------------- LinearExpr

TEST(LinearExpr, BasicArithmetic)
{
    auto e = LinearExpr::dim(3, 0).scaled(2) + LinearExpr::dim(3, 2) -
             LinearExpr::constant(3, 5);
    EXPECT_EQ(e.coeff(0), 2);
    EXPECT_EQ(e.coeff(1), 0);
    EXPECT_EQ(e.coeff(2), 1);
    EXPECT_EQ(e.constantTerm(), -5);
    EXPECT_EQ(e.evaluate({1, 9, 3}), 0);
}

TEST(LinearExpr, Substitution)
{
    // e = 2i + j; substitute i := 3k + 1 (k is dim 2)
    auto e = expr({2, 1, 0}, 0);
    auto repl = expr({0, 0, 3}, 1);
    auto sub = e.substituted(0, repl);
    EXPECT_EQ(sub, expr({0, 1, 6}, 2));
}

TEST(LinearExpr, PermuteInsertRemove)
{
    auto e = expr({1, 2, 3}, 4);
    auto p = e.permuted({2, 0, 1}); // dim0->2, dim1->0, dim2->1
    EXPECT_EQ(p, expr({2, 3, 1}, 4));
    auto ins = e.withDimsInserted(1, 2);
    EXPECT_EQ(ins, expr({1, 0, 0, 2, 3}, 4));
    auto rem = expr({1, 0, 3}, 4).withDimRemoved(1);
    EXPECT_EQ(rem, expr({1, 3}, 4));
}

TEST(LinearExpr, Printing)
{
    auto e = expr({2, -1, 0}, -3);
    EXPECT_EQ(e.str({"i", "j", "k"}), "2*i - j - 3");
    EXPECT_EQ(LinearExpr::constant(2, 7).str({"a", "b"}), "7");
    EXPECT_EQ(expr({-1, 0}, 0).str({"a", "b"}), "-a");
}

TEST(LinearExpr, SingleDim)
{
    size_t idx = 99;
    EXPECT_TRUE(expr({0, 1, 0}, 0).isSingleDim(&idx));
    EXPECT_EQ(idx, 1u);
    EXPECT_FALSE(expr({0, 2, 0}, 0).isSingleDim());
    EXPECT_FALSE(expr({0, 1, 0}, 1).isSingleDim());
    EXPECT_FALSE(expr({1, 1, 0}, 0).isSingleDim());
}

TEST(LinearExpr, OverflowIsFatal)
{
    // Seeded operands that put one term of each operation just past
    // int64, and the same operands at the last value that still fits:
    // the first must stop with a FatalError naming the expression, the
    // second give the exact result.
    using pom::support::FatalError;
    constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
    constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
    pom::support::SplitMix64 rng(35);
    auto small = [&rng] {
        return static_cast<std::int64_t>(rng.range(19)) - 9;
    };
    auto randomExpr = [&](size_t n) {
        std::vector<std::int64_t> coeffs(n);
        for (auto &c : coeffs)
            c = small();
        return LinearExpr(std::move(coeffs), small());
    };
    for (int round = 0; round < 64; ++round) {
        SCOPED_TRACE("round " + std::to_string(round));
        const size_t n = 2 + rng.range(3);
        const size_t at = rng.range(n);
        const size_t other = (at + 1 + rng.range(n - 1)) % n;
        const std::int64_t c = 2 + static_cast<std::int64_t>(rng.range(999));
        const std::int64_t near = static_cast<std::int64_t>(rng.range(999));

        // a + b and a - b.
        LinearExpr a = randomExpr(n), b = randomExpr(n);
        a.setCoeff(at, kMax - near);
        b.setCoeff(at, near + 1);
        EXPECT_THROW(a + b, FatalError);
        b.setCoeff(at, near);
        EXPECT_EQ((a + b).coeff(at), kMax);
        a.setCoeff(at, kMin + near);
        b.setCoeff(at, near + 1);
        EXPECT_THROW(a - b, FatalError);
        b.setCoeff(at, near);
        EXPECT_EQ((a - b).coeff(at), kMin);

        // -a, on a coefficient and on the constant.
        a.setCoeff(at, kMin);
        EXPECT_THROW(-a, FatalError);
        a.setCoeff(at, kMin + 1);
        EXPECT_EQ((-a).coeff(at), kMax);
        a.setConstantTerm(kMin);
        EXPECT_THROW(-a, FatalError);

        // a.scaled(f).
        LinearExpr e = randomExpr(n);
        e.setCoeff(at, c);
        EXPECT_THROW(e.scaled(kMax / c + 1), FatalError);
        EXPECT_EQ(e.scaled(kMax / c).coeff(at), kMax / c * c);

        // e.substituted(at, r): c times r's coefficient, and r's
        // constant, past int64.
        LinearExpr r = randomExpr(n);
        r.setCoeff(at, 0);
        r.setCoeff(other, kMax / c + 1);
        EXPECT_THROW(e.substituted(at, r), FatalError);
        r.setCoeff(other, 1);
        r.setConstantTerm(kMin / c - 1);
        EXPECT_THROW(e.substituted(at, r), FatalError);
        r.setConstantTerm(0);
        EXPECT_EQ(e.substituted(at, r).coeff(other), e.coeff(other) + c);

        // e.evaluate(p): one product past int64, then the sum.
        std::vector<std::int64_t> point(n, 0);
        point[at] = kMax / c + 1;
        EXPECT_THROW(e.evaluate(point), FatalError);
        point[at] = kMax / c;
        LinearExpr unit(n);
        unit.setCoeff(at, 1);
        unit.setConstantTerm(1 + static_cast<std::int64_t>(rng.range(9)));
        point[at] = kMax;
        EXPECT_THROW(unit.evaluate(point), FatalError);
        point[at] = kMax - unit.constantTerm();
        EXPECT_EQ(unit.evaluate(point), kMax);

        // outer.compose(inner): c times an inner coefficient past
        // int64, and the constant terms' sum.
        std::vector<std::string> names;
        for (size_t i = 0; i < n; ++i)
            names.push_back(std::string("d").append(std::to_string(i)));
        std::vector<LinearExpr> inner_rows;
        for (size_t i = 0; i < n; ++i)
            inner_rows.push_back(LinearExpr::dim(n, i));
        inner_rows[at].setCoeff(other, kMax / c + 1);
        AffineMap outer(names, {e});
        EXPECT_THROW(outer.compose(AffineMap(names, inner_rows)),
                     FatalError);
        inner_rows[at] = LinearExpr::dim(n, at);
        AffineMap fits = outer.compose(AffineMap(names, inner_rows));
        EXPECT_EQ(fits.result(0), e);
        inner_rows[at].setConstantTerm(kMax / c + 1);
        EXPECT_THROW(outer.compose(AffineMap(names, inner_rows)),
                     FatalError);
    }
}

TEST(LinearExpr, OverflowMessageNamesTheExpression)
{
    LinearExpr e = expr({3, -1}, 2);
    try {
        (void)e.scaled(std::numeric_limits<std::int64_t>::max());
        FAIL() << "no overflow reported";
    } catch (const pom::support::FatalError &err) {
        EXPECT_NE(std::string(err.what()).find("(3*d0 - d1 + 2)"),
                  std::string::npos)
            << err.what();
    }
}

// ----------------------------------------------------------- IntegerSet

TEST(IntegerSet, BoxEnumerationAndCount)
{
    auto s = IntegerSet::box({"i", "j"}, {0, 0}, {3, 2});
    EXPECT_EQ(s.countPoints(), 12u);
    auto pts = s.enumerate();
    EXPECT_EQ(pts.front(), (std::vector<std::int64_t>{0, 0}));
    EXPECT_EQ(pts.back(), (std::vector<std::int64_t>{3, 2}));
}

TEST(IntegerSet, EmptyByContradiction)
{
    auto s = IntegerSet::box({"i"}, {0}, {10});
    // i >= 20
    auto e = LinearExpr::dim(1, 0);
    e.setConstantTerm(-20);
    s.addInequality(e);
    EXPECT_TRUE(s.isEmpty());
}

TEST(IntegerSet, EmptyByGcdTest)
{
    // 2i = 1 has no integer solution although rationally satisfiable.
    IntegerSet s({"i"});
    s.addEquality(expr({2}, -1));
    EXPECT_TRUE(s.isEmpty());
}

TEST(IntegerSet, NonEmptyWithEquality)
{
    // { (i, j) : j = 2i, 0 <= i <= 4 }
    auto s = IntegerSet::box({"i", "j"}, {0, 0}, {4, 8});
    s.addEquality(expr({2, -1}, 0));
    EXPECT_FALSE(s.isEmpty());
    EXPECT_EQ(s.countPoints(), 5u);
}

TEST(IntegerSet, ProjectOutTilingDecomposition)
{
    // { (i, i0, i1) : i = 8*i0 + i1, 0 <= i1 < 8, 0 <= i < 32 }
    IntegerSet s({"i", "i0", "i1"});
    s.addDimBounds(0, 0, 31);
    s.addDimBounds(2, 0, 7);
    s.addEquality(expr({1, -8, -1}, 0));
    // Projecting out i leaves the tile-space box 0<=i0<=3, 0<=i1<=7.
    auto proj = s.projectOut(0);
    EXPECT_EQ(proj.numDims(), 2u);
    EXPECT_EQ(proj.countPoints(), 32u);
    auto bounds = proj.boundsForCodegen(0);
    ASSERT_FALSE(bounds.lower.empty());
    ASSERT_FALSE(bounds.upper.empty());
}

TEST(IntegerSet, BoundsForCodegenSkewed)
{
    // { (t, i) : 0 <= i <= 9, t = i + 2k for k in [0, 4] } modelled as a
    // skewed triangle: 0 <= i <= 9, i <= t <= i + 8.
    IntegerSet s({"t", "i"});
    s.addDimBounds(1, 0, 9);
    // t - i >= 0
    s.addInequality(expr({1, -1}, 0));
    // i + 8 - t >= 0
    s.addInequality(expr({-1, 1}, 8));
    auto b0 = s.boundsForCodegen(0);
    // t ranges over [0, 17] once i is projected away.
    std::int64_t lo = 1 << 30, hi = -(1 << 30);
    for (const auto &bound : b0.lower)
        lo = std::min(lo, pom::support::ceilDiv(
                              bound.expr.evaluate({0}), bound.divisor));
    for (const auto &bound : b0.upper)
        hi = std::max(hi, pom::support::floorDiv(
                              bound.expr.evaluate({0}), bound.divisor));
    EXPECT_EQ(lo, 0);
    EXPECT_EQ(hi, 17);
    // Inner bounds of i depend on t.
    auto b1 = s.boundsForCodegen(1);
    EXPECT_FALSE(b1.lower.empty());
    EXPECT_FALSE(b1.upper.empty());
    EXPECT_EQ(s.countPoints(), 90u);
}

TEST(IntegerSet, Implies)
{
    auto s = IntegerSet::box({"i"}, {0}, {10});
    // i + 5 >= 0 is implied.
    auto c1 = Constraint{expr({1}, 5), false};
    EXPECT_TRUE(s.implies(c1));
    // i - 5 >= 0 is not.
    auto c2 = Constraint{expr({1}, -5), false};
    EXPECT_FALSE(s.implies(c2));
}

TEST(IntegerSet, IntersectAndSimplify)
{
    auto a = IntegerSet::box({"i"}, {0}, {10});
    auto b = IntegerSet::box({"i"}, {5}, {20});
    auto s = a.intersect(b);
    EXPECT_EQ(s.countPoints(), 6u);
    s.simplify();
    EXPECT_FALSE(s.isEmpty());
}

TEST(IntegerSet, PermuteAndRename)
{
    auto s = IntegerSet::box({"i", "j"}, {0, 0}, {2, 5});
    auto p = s.permuted({1, 0});
    EXPECT_EQ(p.dimName(0), "j");
    EXPECT_EQ(p.dimName(1), "i");
    EXPECT_EQ(p.countPoints(), 18u);
    auto pts = p.enumerate();
    // Now the first coordinate is j in [0, 5].
    EXPECT_EQ(pts.back()[0], 5);
    EXPECT_EQ(pts.back()[1], 2);
    auto r = s.withDimRenamed(0, "x");
    EXPECT_EQ(r.dimIndex("x"), 0u);
}

TEST(IntegerSet, PairedWithCopyEqualsBothCopiesIntersected)
{
    // The dependence polytopes' space: the set over its own dims, then
    // over the copy's, rows in the same order as intersecting the two
    // copies built dim by dim.
    IntegerSet s = IntegerSet::box({"i", "j"}, {0, 1}, {7, 9});
    s.addInequality(LinearExpr::dim(2, 1) - LinearExpr::dim(2, 0));
    s.addEquality(LinearExpr::dim(2, 0) + LinearExpr::dim(2, 1) -
                  LinearExpr::constant(2, 8));
    IntegerSet both = s.withDimsInserted(2, {"t_i", "t_j"});
    IntegerSet tgt = s.withDimsInserted(0, s.dimNames());
    tgt = tgt.withDimRenamed(2, "t_i").withDimRenamed(3, "t_j");
    both = both.intersect(tgt);
    IntegerSet paired = s.pairedWithCopy({"t_i", "t_j"});
    EXPECT_EQ(paired.str(), both.str());
    EXPECT_EQ(paired.dimNames(), both.dimNames());
    EXPECT_EQ(paired.countPoints(), s.countPoints() * s.countPoints());
}

TEST(IntegerSet, LexMin)
{
    IntegerSet s({"i", "j"});
    s.addDimBounds(0, 3, 10);
    s.addDimBounds(1, -2, 4);
    auto m = s.lexMin();
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(*m, (std::vector<std::int64_t>{3, -2}));
    s.addInequality(expr({1, 0}, -100)); // i >= 100 -> empty
    EXPECT_FALSE(s.lexMin().has_value());
}

TEST(IntegerSet, ContainsPoint)
{
    auto s = IntegerSet::box({"i", "j"}, {0, 0}, {4, 4});
    s.addInequality(expr({1, 1}, -4)); // i + j >= 4
    EXPECT_TRUE(s.containsPoint({2, 2}));
    EXPECT_FALSE(s.containsPoint({1, 1}));
}

// ------------------------------------------------------------ AffineMap

TEST(AffineMap, IdentityAndApply)
{
    auto m = AffineMap::identity({"i", "j"});
    EXPECT_EQ(m.apply({3, 4}), (std::vector<std::int64_t>{3, 4}));
}

TEST(AffineMap, Compose)
{
    // f(i, j) = (i + j, 2j); g(x, y) = (y, x + 1). g o f = (2j, i+j+1).
    AffineMap f({"i", "j"}, {expr({1, 1}, 0), expr({0, 2}, 0)});
    AffineMap g({"x", "y"}, {expr({0, 1}, 0), expr({1, 0}, 1)});
    auto gf = g.compose(f);
    EXPECT_EQ(gf.apply({3, 5}), (std::vector<std::int64_t>{10, 9}));
}

TEST(AffineMap, Image)
{
    // Image of box [0,3]x[0,3] under (i, j) -> (i + j) is [0, 6].
    AffineMap m({"i", "j"}, {expr({1, 1}, 0)});
    auto dom = IntegerSet::box({"i", "j"}, {0, 0}, {3, 3});
    auto img = m.image(dom, {"s"});
    EXPECT_EQ(img.numDims(), 1u);
    EXPECT_EQ(img.countPoints(), 7u);
}

TEST(AffineMap, DomainManipulation)
{
    AffineMap m({"i", "j"}, {expr({1, 2}, 3)});
    auto ins = m.withDomainDimsInserted(1, {"k"});
    EXPECT_EQ(ins.numDomainDims(), 3u);
    EXPECT_EQ(ins.result(0), expr({1, 0, 2}, 3));
    auto perm = m.withDomainPermuted({1, 0});
    EXPECT_EQ(perm.result(0), expr({2, 1}, 3));
    EXPECT_EQ(perm.domainDims(),
              (std::vector<std::string>{"j", "i"}));
}

// ----------------------------------------------------------- Dependence

TEST(Dependence, GemmReduction)
{
    // for i, j, k: A[i][j] += B[i][k] * C[k][j]
    auto dom = IntegerSet::box({"i", "j", "k"}, {0, 0, 0}, {31, 31, 31});
    size_t n = 3;
    std::vector<Access> acc;
    AffineMap a_map({"i", "j", "k"},
                    {LinearExpr::dim(n, 0), LinearExpr::dim(n, 1)});
    acc.push_back(Access{"A", a_map, true});
    acc.push_back(Access{"A", a_map, false});
    AffineMap b_map({"i", "j", "k"},
                    {LinearExpr::dim(n, 0), LinearExpr::dim(n, 2)});
    acc.push_back(Access{"B", b_map, false});
    AffineMap c_map({"i", "j", "k"},
                    {LinearExpr::dim(n, 2), LinearExpr::dim(n, 1)});
    acc.push_back(Access{"C", c_map, false});

    auto deps = fullDependences(dom, acc);
    // All dependences flow through A and are carried at level 2 (k) with
    // exact distance (0, 0, d) -- the reduction of Fig. 8.
    ASSERT_FALSE(deps.empty());
    bool found_unit = false;
    for (const auto &d : deps) {
        EXPECT_EQ(d.array, "A");
        EXPECT_EQ(d.level, 2u);
        ASSERT_TRUE(d.distLo[0] && d.distHi[0]);
        EXPECT_EQ(*d.distLo[0], 0);
        EXPECT_EQ(*d.distHi[0], 0);
        EXPECT_EQ(*d.distLo[1], 0);
        EXPECT_EQ(*d.distHi[1], 0);
        if (d.carriedDistance == 1)
            found_unit = true;
    }
    EXPECT_TRUE(found_unit);
}

TEST(Dependence, BicgInnerCarried)
{
    // for i, j: q[i] += A[i][j] * p[j]  (write q(i), read q(i))
    auto dom = IntegerSet::box({"i", "j"}, {0, 0}, {63, 63});
    AffineMap q_map({"i", "j"}, {LinearExpr::dim(2, 0)});
    std::vector<Access> acc = {
        Access{"q", q_map, true},
        Access{"q", q_map, false},
    };
    auto deps = fullDependences(dom, acc);
    ASSERT_FALSE(deps.empty());
    for (const auto &d : deps) {
        // Carried at level 1 (the j loop); i distance is exactly 0.
        EXPECT_EQ(d.level, 1u);
        EXPECT_EQ(*d.distLo[0], 0);
        EXPECT_EQ(*d.distHi[0], 0);
        EXPECT_GE(d.carriedDistance, 1);
    }
}

TEST(Dependence, Fig1DiagonalStencil)
{
    // for i, j in [1, 4]: A[i][j] = A[i-1][j-1] * 2 + 3 (Fig. 1)
    auto dom = IntegerSet::box({"i", "j"}, {1, 1}, {4, 4});
    AffineMap w({"i", "j"}, {LinearExpr::dim(2, 0), LinearExpr::dim(2, 1)});
    AffineMap r({"i", "j"},
                {expr({1, 0}, -1), expr({0, 1}, -1)});
    std::vector<Access> acc = {
        Access{"A", w, true},
        Access{"A", r, false},
    };
    auto deps = fullDependences(dom, acc);
    // Expect a dependence carried at level 0 with distance (1, 1),
    // direction (<, <).
    bool found = false;
    for (const auto &d : deps) {
        if (d.level != 0)
            continue;
        if (d.distLo[0] && d.distHi[0] && *d.distLo[0] == 1 &&
            *d.distHi[0] == 1 && d.distLo[1] && *d.distLo[1] == 1 &&
            *d.distHi[1] == 1) {
            EXPECT_EQ(d.direction(0), Direction::Lt);
            EXPECT_EQ(d.direction(1), Direction::Lt);
            found = true;
        }
    }
    EXPECT_TRUE(found);
}

TEST(Dependence, NoFalseDependence)
{
    // for i: B[i] = A[i] -- no self dependence at all.
    auto dom = IntegerSet::box({"i"}, {0}, {99});
    AffineMap id1({"i"}, {LinearExpr::dim(1, 0)});
    std::vector<Access> acc = {
        Access{"B", id1, true},
        Access{"A", id1, false},
    };
    EXPECT_TRUE(fullDependences(dom, acc).empty());
}

TEST(Dependence, ExprRange)
{
    auto s = IntegerSet::box({"i", "j"}, {0, 2}, {10, 5});
    auto [lo, hi] = exprRange(s, expr({1, -1}, 0));
    ASSERT_TRUE(lo && hi);
    EXPECT_EQ(*lo, -5);
    EXPECT_EQ(*hi, 8);
}

TEST(Dependence, ProducesFor)
{
    AffineMap id1({"i"}, {LinearExpr::dim(1, 0)});
    std::vector<Access> p = {Access{"A", id1, true},
                             Access{"X", id1, false}};
    std::vector<Access> c1 = {Access{"A", id1, false},
                              Access{"B", id1, true}};
    std::vector<Access> c2 = {Access{"C", id1, false},
                              Access{"B", id1, true}};
    EXPECT_TRUE(producesFor(p, c1));
    EXPECT_FALSE(producesFor(p, c2));
}

TEST(Dependence, DirectionStrings)
{
    EXPECT_STREQ(directionStr(Direction::Lt), "<");
    EXPECT_STREQ(directionStr(Direction::Eq), "=");
    EXPECT_STREQ(directionStr(Direction::Gt), ">");
    EXPECT_STREQ(directionStr(Direction::Star), "*");
}

} // namespace
