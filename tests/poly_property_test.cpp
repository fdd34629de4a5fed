/**
 * @file
 * Property tests for the polyhedral substrate, checked against brute
 * force on small domains:
 *  - Fourier-Motzkin projection preserves the projected point set.
 *  - AffineMap::image equals the brute-force image.
 *  - analyzeSelfDependences covers exactly the dependences found by
 *    enumerating all statement-instance pairs.
 *  - Tiling/skewing decompositions count and enumerate consistently.
 */

#include <algorithm>
#include <set>
#include <tuple>

#include <gtest/gtest.h>

#include "hls/count.h"
#include "poly/dependence.h"
#include "poly/integer_set.h"

namespace {

using namespace pom::poly;

// ---------------------------------------------------------------- FM

struct ProjCase
{
    std::vector<std::int64_t> lows, highs;
    // extra constraint: sum coeffs * dims + c >= 0
    std::vector<std::int64_t> coeffs;
    std::int64_t c;
    size_t drop; ///< dimension to project out
};

// Print a case by its values, not gtest's byte dump of the vectors'
// heap pointers, so its test name is the same in every build.
void PrintTo(const ProjCase &tc, std::ostream *os)
{
    *os << ::testing::PrintToString(
        std::make_tuple(tc.lows, tc.highs, tc.coeffs, tc.c, tc.drop));
}

class ProjectionSweep : public ::testing::TestWithParam<ProjCase>
{};

TEST_P(ProjectionSweep, MatchesBruteForce)
{
    const auto &tc = GetParam();
    size_t n = tc.lows.size();
    std::vector<std::string> names;
    for (size_t i = 0; i < n; ++i)
        names.push_back("d" + std::to_string(i));
    auto set = IntegerSet::box(names, tc.lows, tc.highs);
    set.addInequality(LinearExpr(tc.coeffs, tc.c));

    // Brute-force projection.
    std::set<std::vector<std::int64_t>> expected;
    for (const auto &p : set.enumerate()) {
        std::vector<std::int64_t> q;
        for (size_t i = 0; i < n; ++i) {
            if (i != tc.drop)
                q.push_back(p[i]);
        }
        expected.insert(q);
    }

    auto proj = set.projectOut(tc.drop);
    std::set<std::vector<std::int64_t>> got;
    for (const auto &p : proj.enumerate())
        got.insert(p);

    // FM with integer tightening is exact on these systems.
    EXPECT_EQ(got, expected);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ProjectionSweep,
    ::testing::Values(
        ProjCase{{0, 0}, {7, 7}, {1, 1}, -5, 0},      // i + j >= 5
        ProjCase{{0, 0}, {7, 7}, {1, -1}, 0, 1},      // i >= j
        ProjCase{{0, 0}, {9, 9}, {2, -1}, -3, 0},     // 2i - j >= 3
        ProjCase{{-3, 0}, {3, 5}, {1, 2}, 1, 0},      // i + 2j + 1 >= 0
        ProjCase{{0, 0, 0}, {4, 4, 4}, {1, 1, 1}, -6, 1},
        ProjCase{{0, 0, 0}, {5, 3, 4}, {1, -2, 1}, 0, 2},
        ProjCase{{0, 1}, {6, 6}, {3, -2}, 1, 0},
        ProjCase{{0, 0}, {11, 5}, {-1, 3}, -2, 1}));

TEST(PolyProperty, CountMatchesEnumerateOnConstrainedSets)
{
    for (std::int64_t c = -10; c <= 10; c += 3) {
        IntegerSet s({"i", "j", "k"});
        s.addDimBounds(0, 0, 6);
        s.addDimBounds(1, -2, 4);
        s.addDimBounds(2, 0, 5);
        s.addInequality(LinearExpr({1, 2, -1}, c));
        EXPECT_EQ(pom::hls::countPoints(s), (std::int64_t)s.enumerate().size())
            << "c=" << c;
    }
}

TEST(PolyProperty, TilingDecompositionIsExact)
{
    for (std::int64_t size : {8, 13, 16, 29, 31}) {
        for (std::int64_t factor : {2, 3, 4, 8}) {
            IntegerSet s({"i0", "i1"});
            s.addDimBounds(1, 0, factor - 1);
            // 0 <= factor*i0 + i1 <= size-1
            s.addInequality(LinearExpr({factor, 1}, 0));
            s.addInequality(LinearExpr({-factor, -1}, size - 1));
            EXPECT_EQ(s.countPoints(), static_cast<size_t>(size))
                << "size=" << size << " factor=" << factor;
        }
    }
}

// ------------------------------------------------------------- image

TEST(PolyProperty, ImageMatchesBruteForce)
{
    struct MapCase
    {
        std::vector<LinearExpr> results;
    };
    std::vector<MapCase> cases = {
        {{LinearExpr({1, 1}, 0)}},                      // i + j
        {{LinearExpr({2, -1}, 3)}},                     // 2i - j + 3
        {{LinearExpr({1, 0}, 0), LinearExpr({1, 1}, 0)}}, // (i, i + j)
    };
    auto dom = IntegerSet::box({"i", "j"}, {0, 0}, {4, 5});
    for (const auto &mc : cases) {
        AffineMap map({"i", "j"}, mc.results);
        std::vector<std::string> out_names;
        for (size_t r = 0; r < mc.results.size(); ++r)
            out_names.push_back("o" + std::to_string(r));
        auto img = map.image(dom, out_names);

        std::set<std::vector<std::int64_t>> expected;
        for (const auto &p : dom.enumerate())
            expected.insert(map.apply(p));
        std::set<std::vector<std::int64_t>> got;
        for (const auto &p : img.enumerate())
            got.insert(p);
        EXPECT_EQ(got, expected);
    }
}

// -------------------------------------------------- dependence vs brute

/** Brute-force dependences of a statement over a small domain. */
struct BruteDep
{
    size_t level;
    std::vector<std::int64_t> dist;
};

std::vector<BruteDep>
bruteForceDeps(const IntegerSet &domain, const std::vector<Access> &accs)
{
    std::vector<BruteDep> out;
    auto points = domain.enumerate();
    for (size_t a = 0; a < accs.size(); ++a) {
        for (size_t b = 0; b < accs.size(); ++b) {
            if (accs[a].array != accs[b].array)
                continue;
            if (!accs[a].isWrite && !accs[b].isWrite)
                continue;
            for (const auto &p : points) {
                for (const auto &q : points) {
                    if (p == q || !(p < q))
                        continue; // need p lexicographically before q
                    if (accs[a].map.apply(p) != accs[b].map.apply(q))
                        continue;
                    size_t level = 0;
                    while (p[level] == q[level])
                        ++level;
                    std::vector<std::int64_t> dist;
                    for (size_t k = 0; k < p.size(); ++k)
                        dist.push_back(q[k] - p[k]);
                    out.push_back(BruteDep{level, dist});
                }
            }
        }
    }
    return out;
}

/** The analysis must cover every brute-force dependence. */
void
expectCovers(const IntegerSet &domain, const std::vector<Access> &accs)
{
    auto analyzed = analyzeSelfDependences(
        domain, accs, analyzeCarriedDependences(domain, accs));
    auto brute = bruteForceDeps(domain, accs);
    ASSERT_EQ(brute.empty(), analyzed.empty());
    for (const auto &bd : brute) {
        bool covered = false;
        for (const auto &ad : analyzed) {
            if (ad.level != bd.level)
                continue;
            bool fits = true;
            for (size_t k = 0; k < bd.dist.size(); ++k) {
                if (ad.distLo[k] && bd.dist[k] < *ad.distLo[k])
                    fits = false;
                if (ad.distHi[k] && bd.dist[k] > *ad.distHi[k])
                    fits = false;
            }
            if (fits) {
                covered = true;
                break;
            }
        }
        EXPECT_TRUE(covered) << "uncovered dependence at level "
                             << bd.level;
    }
}

TEST(PolyProperty, DependenceCoversBruteForceDiagonal)
{
    auto dom = IntegerSet::box({"i", "j"}, {1, 1}, {5, 5});
    AffineMap w({"i", "j"}, {LinearExpr::dim(2, 0), LinearExpr::dim(2, 1)});
    AffineMap r({"i", "j"}, {LinearExpr({1, 0}, -1), LinearExpr({0, 1}, -1)});
    expectCovers(dom, {Access{"A", w, true}, Access{"A", r, false}});
}

TEST(PolyProperty, DependenceCoversBruteForceAntiDiagonal)
{
    auto dom = IntegerSet::box({"i", "j"}, {1, 1}, {5, 4});
    AffineMap w({"i", "j"}, {LinearExpr::dim(2, 0), LinearExpr::dim(2, 1)});
    AffineMap r({"i", "j"}, {LinearExpr({1, 0}, -1), LinearExpr({0, 1}, 1)});
    expectCovers(dom, {Access{"B", w, true}, Access{"B", r, false}});
}

TEST(PolyProperty, DependenceCoversBruteForceReduction)
{
    auto dom = IntegerSet::box({"i", "k"}, {0, 0}, {4, 4});
    AffineMap acc({"i", "k"}, {LinearExpr::dim(2, 0)});
    expectCovers(dom, {Access{"q", acc, true}, Access{"q", acc, false}});
}

TEST(PolyProperty, DependenceCoversBruteForceStrided)
{
    auto dom = IntegerSet::box({"i"}, {0}, {12});
    AffineMap w({"i"}, {LinearExpr({2}, 0)});  // writes A[2i]
    AffineMap r({"i"}, {LinearExpr({1}, 0)});  // reads A[i]
    expectCovers(dom, {Access{"A", w, true}, Access{"A", r, false}});
}

TEST(PolyProperty, DependenceCoversBruteForceInPlaceStencil)
{
    auto dom = IntegerSet::box({"i", "j"}, {1, 1}, {4, 4});
    AffineMap w({"i", "j"}, {LinearExpr::dim(2, 0), LinearExpr::dim(2, 1)});
    AffineMap r1({"i", "j"},
                 {LinearExpr({1, 0}, -1), LinearExpr::dim(2, 1)});
    AffineMap r2({"i", "j"},
                 {LinearExpr::dim(2, 0), LinearExpr({0, 1}, 1)});
    expectCovers(dom, {Access{"A", w, true}, Access{"A", r1, false},
                       Access{"A", r2, false}});
}

TEST(PolyProperty, NoSpuriousDependenceOnDisjointAccesses)
{
    // Writes even elements, reads odd elements: never conflict.
    auto dom = IntegerSet::box({"i"}, {0}, {8});
    AffineMap w({"i"}, {LinearExpr({2}, 0)});
    AffineMap r({"i"}, {LinearExpr({2}, 1)});
    const std::vector<Access> accs = {Access{"A", w, true},
                                      Access{"A", r, false}};
    auto deps = analyzeSelfDependences(dom, accs,
                                       analyzeCarriedDependences(dom, accs));
    EXPECT_TRUE(deps.empty());
}

// ----------------------------------------------------------- lexmin

TEST(PolyProperty, LexMinMatchesEnumeration)
{
    IntegerSet s({"i", "j"});
    s.addDimBounds(0, 2, 9);
    s.addDimBounds(1, 0, 9);
    s.addInequality(LinearExpr({1, 1}, -8)); // i + j >= 8
    auto m = s.lexMin();
    ASSERT_TRUE(m.has_value());
    auto pts = s.enumerate();
    EXPECT_EQ(*m, pts.front());
    EXPECT_EQ(*m, (std::vector<std::int64_t>{2, 6}));
}

TEST(PolyProperty, LexMinStopsAtTheFirstPoint)
{
    // 2^26 points, far past enumerate()'s limit of 2^22.
    IntegerSet s({"i", "j"});
    s.addDimBounds(0, 0, (1 << 13) - 1);
    s.addDimBounds(1, 0, (1 << 13) - 1);
    s.addInequality(LinearExpr({1, 1}, -100)); // i + j >= 100
    auto m = s.lexMin();
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(*m, (std::vector<std::int64_t>{0, 100}));

    s.addInequality(LinearExpr({-1, -1}, 99)); // and i + j <= 99
    EXPECT_FALSE(s.lexMin().has_value());
    EXPECT_TRUE(s.enumerate().empty());
}

} // namespace
