/**
 * @file
 * Tests for the HLS synthesis estimator substrate: symbolic point
 * counting at paper-scale problem sizes and its process-wide trip-count
 * memo (exact keys, concurrent callers), II computation (recurrence and
 * resource MII), resource accounting, and sharing modes.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "check/fuzzer.h"
#include "hls/count.h"
#include "hls/estimator.h"
#include "lower/lower.h"
#include "obs/obs.h"
#include "transform/poly_stmt.h"
#include "workloads/workloads.h"

namespace {

using namespace pom;
using hls::countPoints;
using workloads::makeByName;

TEST(HlsCount, RectangularHuge)
{
    // 4096^3 GEMM domain counts in O(dims), no enumeration.
    auto set = poly::IntegerSet::box({"i", "j", "k"}, {0, 0, 0},
                                     {4095, 4095, 4095});
    EXPECT_EQ(countPoints(set), 4096LL * 4096 * 4096);
    auto trips = hls::avgTrips(set);
    EXPECT_EQ(trips, (std::vector<std::int64_t>{4096, 4096, 4096}));
}

TEST(HlsCount, SkewedTriangle)
{
    // { (t, i) : 0 <= i <= 9, i <= t <= i + 8 } has 90 points.
    poly::IntegerSet s({"t", "i"});
    s.addDimBounds(1, 0, 9);
    s.addInequality(poly::LinearExpr({1, -1}, 0));
    s.addInequality(poly::LinearExpr({-1, 1}, 8));
    EXPECT_EQ(countPoints(s), 90);
    auto trips = hls::avgTrips(s);
    EXPECT_EQ(trips[0], 18); // t spans 0..17
    EXPECT_EQ(trips[1], 5);  // average width 90/18
}

TEST(HlsCount, EmptySet)
{
    auto s = poly::IntegerSet::box({"i"}, {0}, {5});
    s.addInequality(poly::LinearExpr({1}, -100)); // i >= 100
    EXPECT_EQ(countPoints(s), 0);
}

TEST(HlsCount, TiledDomain)
{
    // Split i in [0, 29] by 8: 30 points across (i0, i1).
    poly::IntegerSet s({"i0", "i1"});
    s.addDimBounds(0, 0, 3);
    s.addDimBounds(1, 0, 7);
    s.addInequality(poly::LinearExpr({-8, -1}, 29));
    EXPECT_EQ(countPoints(s), 30);
}

/** gemm's (i, j, k) statement at @p size, as the search starts it. */
transform::PolyStmt
gemmStmt(std::int64_t size)
{
    auto w = makeByName("gemm", size);
    return lower::extractStmts(w->func()).at(0);
}

TEST(HlsCount, SplitHugeWithPartialTile)
{
    // i split by 3 at 4096: 1366 tiles, the last one partial (1 of 3
    // points), so the tile level is walked; the count stays 4096^3.
    transform::PolyStmt s = gemmStmt(4096);
    transform::split(s, "i", 3, "i0", "i1");
    EXPECT_EQ(countPoints(s.sched.domain), 4096LL * 4096 * 4096);
    // round(4096 / 1366) = 3.
    EXPECT_EQ(hls::avgTrips(s.sched.domain),
              (std::vector<std::int64_t>{1366, 3, 4096, 4096}));
}

TEST(HlsCount, TiledHugeWithPartialTiles)
{
    // (i, j) tiled by (3, 5) at 4096: ceil(4096/3) = 1366 and
    // ceil(4096/5) = 820 tiles, both with a partial last tile. Prefix
    // counts: 1366, 1366*820, 4096*820, 4096^2, 4096^3.
    transform::PolyStmt s = gemmStmt(4096);
    transform::tile(s, "i", "j", 3, 5, "i0", "j0", "i1", "j1");
    EXPECT_EQ(countPoints(s.sched.domain), 4096LL * 4096 * 4096);
    // Rounded ratios: 4096*820/(1366*820) = 2.998 -> 3 and
    // 4096^2/(4096*820) = 4.995 -> 5.
    EXPECT_EQ(hls::avgTrips(s.sched.domain),
              (std::vector<std::int64_t>{1366, 820, 3, 5, 4096}));
}

TEST(HlsCount, SkewedHuge)
{
    // j skewed by f*i at 4096 for f = 1, 2: f*i <= j' <= f*i + 4095, a
    // parallelogram whose every row keeps 4096 points.
    for (std::int64_t f : {1, 2}) {
        SCOPED_TRACE(f);
        transform::PolyStmt s = gemmStmt(4096);
        transform::skew(s, "i", "j", f, "i", "jp");
        EXPECT_EQ(countPoints(s.sched.domain), 4096LL * 4096 * 4096);
        EXPECT_EQ(hls::avgTrips(s.sched.domain),
                  (std::vector<std::int64_t>{4096, 4096, 4096}));
    }
}

TEST(HlsCount, TriangleHuge)
{
    // 0 <= j <= i <= 4095: 4096*4097/2 points; the mean row width
    // 4097/2 rounds to 2049.
    poly::IntegerSet s({"i", "j"});
    s.addDimBounds(0, 0, 4095);
    s.addInequality(poly::LinearExpr({0, 1}, 0));  // j >= 0
    s.addInequality(poly::LinearExpr({1, -1}, 0)); // i - j >= 0
    EXPECT_EQ(countPoints(s), 4096LL * 4097 / 2);
    EXPECT_EQ(hls::avgTrips(s), (std::vector<std::int64_t>{4096, 2049}));
}

/**
 * The reference for avgTrips(): the per-prefix formula it implements,
 * counting each prefix projection on its own.
 */
std::vector<std::int64_t>
tripsByPrefix(const poly::IntegerSet &set)
{
    std::vector<std::int64_t> trips(set.numDims(), 1);
    std::int64_t prev = 1;
    for (size_t l = 0; l < set.numDims(); ++l) {
        std::int64_t count = countPoints(set.projectOntoPrefix(l + 1));
        std::int64_t trip = prev > 0 ? (count + prev / 2) / prev : 1;
        trips[l] = std::max<std::int64_t>(1, trip);
        prev = count;
    }
    return trips;
}

/** The trip-count memo's miss and hit counters, in that order. */
std::vector<std::int64_t>
tripCounters()
{
    return {obs::counterValue("trips.counts"),
            obs::counterValue("trips.memo.hits")};
}

/**
 * @p set's constraints added one by one to a fresh set: the same rows,
 * never marked simplified.
 */
poly::IntegerSet
sameRowsUnsimplified(const poly::IntegerSet &set)
{
    poly::IntegerSet out(set.dimNames());
    for (size_t r = 0; r < set.numConstraints(); ++r) {
        poly::Constraint c = set.constraint(r);
        if (c.isEq)
            out.addEquality(c.expr);
        else
            out.addInequality(c.expr);
    }
    return out;
}

TEST(HlsCount, AvgTripsMatchesPerPrefixFormulaOnFuzzedDomains)
{
    // Every statement domain of fuzzer-generated schedules (tiles with
    // partial tiles, splits, skews, interchanges) of all workloads, at
    // the fuzzer's size. Small domains are also counted by enumeration.
    // Each domain is asked twice, on an empty memo: the first call
    // counts it, the second -- the same rows rebuilt, so a domain a
    // projection left marked simplified comes back unmarked -- must
    // hit that entry and still be its own set's answer, which is what
    // keeps the simplified flag out of the key.
    std::size_t checked = 0, enumerated = 0, skews = 0;
    for (const auto &name : workloads::allNames()) {
        const std::int64_t size = check::defaultFuzzSize(name);
        for (unsigned seed = 1; seed <= 8; ++seed) {
            SCOPED_TRACE(name + " seed " + std::to_string(seed));
            auto gen = makeByName(name, size);
            auto ops = check::generateSchedule(*gen, seed);
            for (const auto &op : ops)
                skews += op.kind == check::ScheduleOp::Kind::Skew;
            auto w = makeByName(name, size);
            ASSERT_TRUE(check::applyScheduleOps(*w, ops));
            auto stmts = lower::extractStmts(w->func());
            lower::applyDirectives(w->func(), stmts);
            for (const auto &stmt : stmts) {
                const poly::IntegerSet &dom = stmt.sched.domain;
                SCOPED_TRACE(dom.str());
                hls::clearTripMemo();
                const std::vector<std::int64_t> before = tripCounters();
                EXPECT_EQ(hls::avgTrips(dom), tripsByPrefix(dom));
                const poly::IntegerSet rebuilt = sameRowsUnsimplified(dom);
                EXPECT_EQ(hls::avgTrips(rebuilt), tripsByPrefix(rebuilt));
                EXPECT_EQ(tripCounters(),
                          (std::vector<std::int64_t>{before[0] + 1,
                                                     before[1] + 1}));
                std::int64_t count = countPoints(dom);
                if (count <= (1 << 16)) {
                    EXPECT_EQ(count,
                              static_cast<std::int64_t>(dom.countPoints()));
                    ++enumerated;
                }
                ++checked;
            }
        }
    }
    EXPECT_GT(checked, workloads::allNames().size() * 8);
    EXPECT_GT(enumerated, 0u);
    EXPECT_GT(skews, 0u) << "no skewed domain was checked";
}

TEST(HlsCount, NearlyEqualSetsNeverShareATripEntry)
{
    // A triangle, so every variant below changes some level's trips.
    poly::IntegerSet base({"i", "j"});
    base.addDimBounds(0, 0, 9);
    base.addInequality(poly::LinearExpr({0, 1}, 0));  // j >= 0
    base.addInequality(poly::LinearExpr({1, -1}, 2)); // i - j + 2 >= 0
    auto triangle = [](const poly::LinearExpr &diagonal, bool isEq) {
        poly::IntegerSet s({"i", "j"});
        s.addDimBounds(0, 0, 9);
        s.addInequality(poly::LinearExpr({0, 1}, 0));
        if (isEq)
            s.addEquality(diagonal);
        else
            s.addInequality(diagonal);
        return s;
    };
    std::vector<std::pair<std::string, poly::IntegerSet>> variants;
    variants.emplace_back("coefficient",
                          triangle(poly::LinearExpr({1, -2}, 2), false));
    variants.emplace_back("constant",
                          triangle(poly::LinearExpr({1, -1}, 3), false));
    variants.emplace_back("row kind",
                          triangle(poly::LinearExpr({1, -1}, 2), true));
    // One more loop of a single trip.
    poly::IntegerSet wider = base.withDimsInserted(2, {"k"});
    wider.addDimBounds(2, 0, 0);
    variants.emplace_back("dim count", wider);

    hls::clearTripMemo();
    const std::vector<std::int64_t> want = hls::countTrips(base);
    EXPECT_EQ(hls::avgTrips(base), want);
    for (const auto &[what, set] : variants) {
        SCOPED_TRACE(what);
        // Every earlier set is still memoized; this one must miss.
        const std::vector<std::int64_t> before = tripCounters();
        EXPECT_NE(hls::countTrips(set), want);
        EXPECT_EQ(hls::avgTrips(set), hls::countTrips(set));
        EXPECT_EQ(tripCounters()[0], before[0] + 1);
    }
    // The base entry was not overwritten, and dim names are not part
    // of the key: a renamed copy is answered from it.
    const std::vector<std::int64_t> before = tripCounters();
    EXPECT_EQ(hls::avgTrips(base), want);
    EXPECT_EQ(hls::avgTrips(base.withDimRenamed(1, "jj")), want);
    EXPECT_EQ(tripCounters(),
              (std::vector<std::int64_t>{before[0], before[1] + 2}));
}

TEST(HlsCount, ConcurrentCallersAgree)
{
    // Every statement domain of one fuzzed schedule per workload, asked
    // by 4 threads at once in different orders on an empty memo.
    std::vector<poly::IntegerSet> domains;
    for (const auto &name : workloads::allNames()) {
        auto gen = makeByName(name, check::defaultFuzzSize(name));
        auto ops = check::generateSchedule(*gen, 1);
        auto w = makeByName(name, check::defaultFuzzSize(name));
        ASSERT_TRUE(check::applyScheduleOps(*w, ops));
        auto stmts = lower::extractStmts(w->func());
        lower::applyDirectives(w->func(), stmts);
        for (const auto &stmt : stmts)
            domains.push_back(stmt.sched.domain);
    }
    std::vector<std::vector<std::int64_t>> expected;
    for (const auto &dom : domains)
        expected.push_back(hls::countTrips(dom));

    hls::clearTripMemo();
    const std::vector<std::int64_t> before = tripCounters();
    constexpr std::size_t kThreads = 4, kRounds = 3;
    std::atomic<std::size_t> wrong{0};
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t]() {
            for (std::size_t r = 0; r < kRounds; ++r) {
                for (std::size_t k = 0; k < domains.size(); ++k) {
                    // Thread t starts a quarter of the list further on.
                    std::size_t i =
                        (k + t * domains.size() / kThreads) % domains.size();
                    if (hls::avgTrips(domains[i]) != expected[i])
                        ++wrong;
                }
            }
        });
    }
    for (auto &th : threads)
        th.join();
    EXPECT_EQ(wrong.load(), 0u);
    const std::vector<std::int64_t> after = tripCounters();
    const auto calls =
        static_cast<std::int64_t>(kThreads * kRounds * domains.size());
    // Every call is a count or a hit; a domain is counted at least once
    // and at most once per thread that missed on it concurrently.
    EXPECT_EQ((after[0] - before[0]) + (after[1] - before[1]), calls);
    EXPECT_LE(after[0] - before[0],
              static_cast<std::int64_t>(kThreads * domains.size()));
    EXPECT_GT(after[1] - before[1], 0);
}

TEST(HlsEstimator, UnoptimizedGemmLatency)
{
    auto w = makeByName("gemm", 64);
    auto lowered = lower::lowerStmts(w->func(),
                                     lower::extractStmts(w->func()));
    auto report = hls::estimate(w->func(), lowered);
    // Sequential: latency ~ n^3 * (body + loop overhead).
    std::uint64_t iters = 64ULL * 64 * 64;
    EXPECT_GT(report.latencyCycles, iters * 5);
    EXPECT_LT(report.latencyCycles, iters * 40);
    // One multiplier + one adder worth of DSPs.
    EXPECT_GE(report.resources.dsp, 5);
    EXPECT_LE(report.resources.dsp, 12);
    EXPECT_GT(report.powerW, 0.0);
    EXPECT_TRUE(report.loops.empty()); // nothing pipelined
}

TEST(HlsEstimator, PipelinedGemmGetsIIOne)
{
    auto w = makeByName("gemm", 64);
    auto stmts = lower::extractStmts(w->func());
    // Move the reduction outermost, pipeline the innermost loop.
    transform::interchange(stmts[0], "i", "k"); // (k, j, i)
    transform::setPipeline(stmts[0], "i", 1);
    auto lowered = lower::lowerStmts(w->func(), std::move(stmts));
    auto report = hls::estimate(w->func(), lowered);
    ASSERT_EQ(report.loops.size(), 1u);
    EXPECT_EQ(report.loops[0].achievedII, 1);
    // Latency ~ n^3 cycles.
    EXPECT_LT(report.latencyCycles, 64ULL * 64 * 64 * 3);
}

TEST(HlsEstimator, ReductionPipelineHasRecurrenceII)
{
    auto w = makeByName("gemm", 64);
    auto stmts = lower::extractStmts(w->func());
    // Pipelining the reduction loop k directly: the loop-carried
    // dependence (distance 1) forces II >= dependence latency.
    transform::setPipeline(stmts[0], "k", 1);
    auto lowered = lower::lowerStmts(w->func(), std::move(stmts));
    auto report = hls::estimate(w->func(), lowered);
    ASSERT_EQ(report.loops.size(), 1u);
    EXPECT_GT(report.loops[0].achievedII, 1);
    EXPECT_GE(report.loops[0].recMII, report.loops[0].achievedII / 2);
}

TEST(HlsEstimator, UnrollWithoutPartitionHitsPortLimit)
{
    auto w = makeByName("gemm", 64);
    auto base = lower::extractStmts(w->func());
    transform::interchange(base[0], "i", "k"); // (k, j, i)

    auto unrolled = base;
    transform::split(unrolled[0], "i", 16, "i_o", "i_i");
    transform::setUnroll(unrolled[0], "i_i", 0);
    transform::setPipeline(unrolled[0], "i_o", 1);
    auto lowered = lower::lowerStmts(w->func(), std::move(unrolled));
    auto no_part = hls::estimate(w->func(), lowered);
    ASSERT_EQ(no_part.loops.size(), 1u);
    // 16 copies x several accesses through 2 ports -> resource MII.
    EXPECT_GT(no_part.loops[0].resMII, 4);

    // Partitioning the arrays removes the bottleneck.
    for (const auto *p : w->func().placeholders()) {
        std::vector<std::int64_t> factors(p->shape().size(), 16);
        w->func().findPlaceholderMut(p->name())->partition(factors,
                                                           "cyclic");
    }
    auto part = base;
    transform::split(part[0], "i", 16, "i_o", "i_i");
    transform::setUnroll(part[0], "i_i", 0);
    transform::setPipeline(part[0], "i_o", 1);
    auto lowered2 = lower::lowerStmts(w->func(), std::move(part));
    auto with_part = hls::estimate(w->func(), lowered2);
    EXPECT_LT(with_part.loops[0].achievedII,
              no_part.loops[0].achievedII);
    EXPECT_LT(with_part.latencyCycles, no_part.latencyCycles);
}

TEST(HlsEstimator, UnrollScalesResources)
{
    auto w = makeByName("gemm", 64);
    for (const auto *p : w->func().placeholders()) {
        w->func().findPlaceholderMut(p->name())->partition({16, 16},
                                                           "cyclic");
    }
    auto base = lower::extractStmts(w->func());
    transform::interchange(base[0], "i", "k");

    auto small = base;
    transform::split(small[0], "i", 4, "i_o", "i_i");
    transform::setUnroll(small[0], "i_i", 0);
    transform::setPipeline(small[0], "i_o", 1);
    auto r4 = hls::estimate(w->func(),
                            lower::lowerStmts(w->func(), std::move(small)));

    auto big = base;
    transform::split(big[0], "i", 16, "i_o", "i_i");
    transform::setUnroll(big[0], "i_i", 0);
    transform::setPipeline(big[0], "i_o", 1);
    auto r16 = hls::estimate(w->func(),
                             lower::lowerStmts(w->func(), std::move(big)));

    EXPECT_GT(r16.resources.dsp, r4.resources.dsp * 2);
    EXPECT_LT(r16.latencyCycles, r4.latencyCycles);
}

TEST(HlsEstimator, SharingModesDiffer)
{
    auto w = makeByName("2mm", 32);
    auto lowered = lower::lowerStmts(w->func(),
                                     lower::extractStmts(w->func()));
    hls::EstimatorOptions reuse;
    reuse.sharing = hls::SharingMode::Reuse;
    hls::EstimatorOptions dataflow;
    dataflow.sharing = hls::SharingMode::Dataflow;
    auto r = hls::estimate(w->func(), lowered, reuse);
    auto d = hls::estimate(w->func(), lowered, dataflow);
    // Reuse: sequential latency, shared (max) resources. Dataflow:
    // overlapped latency, accumulated resources.
    EXPECT_GE(r.latencyCycles, d.latencyCycles);
    EXPECT_LE(r.resources.dsp, d.resources.dsp);
}

TEST(HlsEstimator, ReportPrinting)
{
    auto w = makeByName("gemm", 32);
    auto lowered = lower::lowerStmts(w->func(),
                                     lower::extractStmts(w->func()));
    auto report = hls::estimate(w->func(), lowered);
    std::string s = report.str(hls::Device::xc7z020());
    EXPECT_NE(s.find("latency="), std::string::npos);
    EXPECT_NE(s.find("DSP="), std::string::npos);
    EXPECT_EQ(report.worstII(), 1);
    EXPECT_DOUBLE_EQ(report.speedupOver(report), 1.0);
}

TEST(HlsEstimator, DeviceScaling)
{
    auto device = hls::Device::xc7z020();
    auto half = device.scaled(0.5);
    EXPECT_EQ(half.dsp, device.dsp / 2);
    hls::Resources r;
    r.dsp = device.dsp;
    EXPECT_TRUE(r.fitsIn(device));
    EXPECT_FALSE(r.fitsIn(half));
    auto m = hls::Resources::max(hls::Resources{10, 5, 3, 100},
                                 hls::Resources{4, 9, 3, 50});
    EXPECT_EQ(m.dsp, 10);
    EXPECT_EQ(m.lut, 9);
    EXPECT_EQ(m.bramBits, 100);
}

TEST(HlsEstimator, DnnWorkloadEstimates)
{
    auto w = makeByName("resnet18", 64);
    auto lowered = lower::lowerStmts(w->func(),
                                     lower::extractStmts(w->func()));
    auto report = hls::estimate(w->func(), lowered);
    EXPECT_GT(report.latencyCycles, 0u);
    // 17 convs + residual adds as top-level nests.
    EXPECT_EQ(report.nestLatencies.size(), 20u);
}

} // namespace
