/**
 * @file
 * Google-benchmark microbenchmarks of the POM toolchain itself: the
 * cost of each compilation layer (dependence analysis, polyhedral
 * transformations, AST generation, lowering, estimation, full DSE).
 * The paper treats DSE time as the toolchain's runtime (Table III's
 * last column); these benchmarks break that time down per layer.
 */

#include <benchmark/benchmark.h>

#include "baselines/baselines.h"
#include "dse/dse.h"
#include "hls/count.h"
#include "hls/estimator.h"
#include "lower/lower.h"
#include "poly/dependence.h"
#include "transform/poly_stmt.h"
#include "workloads/workloads.h"

using namespace pom;

static void
BM_DependenceAnalysisGemm(benchmark::State &state)
{
    auto w = workloads::makeGemm(state.range(0));
    auto stmts = lower::extractStmts(w->func());
    const auto accesses = stmts[0].transformedAccesses();
    for (auto _ : state) {
        // The analysis itself, carried view then full vectors, as a
        // cold transform::selfDependences runs it: it would answer
        // every iteration after the first from its memo.
        const auto &domain = stmts[0].sched.domain;
        auto deps = poly::analyzeSelfDependences(
            domain, accesses,
            poly::analyzeCarriedDependences(domain, accesses));
        benchmark::DoNotOptimize(deps);
    }
}
BENCHMARK(BM_DependenceAnalysisGemm)->Arg(64)->Arg(4096);

static void
BM_DependenceAnalysisConv(benchmark::State &state)
{
    // The shape the DNN searches pay for: the carried analysis of a
    // vgg16 conv statement after one split of its channel loop, so 7
    // loops and 14-dimension dependence polytopes.
    auto w = workloads::makeVgg16(state.range(0));
    transform::PolyStmt stmt = lower::extractStmts(w->func())[1];
    const std::string c = stmt.sched.domain.dimName(3);
    transform::split(stmt, c, 4, c + "_o", c + "_i");
    const auto accesses = stmt.transformedAccesses();
    for (auto _ : state) {
        auto deps = poly::analyzeCarriedDependences(stmt.sched.domain,
                                                    accesses);
        benchmark::DoNotOptimize(deps);
    }
}
BENCHMARK(BM_DependenceAnalysisConv)->Arg(64);

static void
BM_TileTransformation(benchmark::State &state)
{
    auto w = workloads::makeGemm(state.range(0));
    auto base = lower::extractStmts(w->func());
    for (auto _ : state) {
        auto stmts = base;
        transform::tile(stmts[0], "i", "j", 4, 16, "i0", "j0", "i1",
                        "j1");
        benchmark::DoNotOptimize(stmts);
    }
}
BENCHMARK(BM_TileTransformation)->Arg(4096);

static void
BM_AstGeneration(benchmark::State &state)
{
    auto w = workloads::make3mm(state.range(0));
    auto stmts = lower::extractStmts(w->func());
    std::vector<ast::ScheduledStmt> sched;
    for (const auto &s : stmts)
        sched.push_back(s.sched);
    for (auto _ : state) {
        auto root = ast::buildAst(sched);
        benchmark::DoNotOptimize(root);
    }
}
BENCHMARK(BM_AstGeneration)->Arg(4096);

static void
BM_FullLowering(benchmark::State &state)
{
    for (auto _ : state) {
        state.PauseTiming();
        auto w = workloads::make2mm(state.range(0));
        state.ResumeTiming();
        auto lowered = lower::lower(w->func());
        benchmark::DoNotOptimize(lowered);
    }
}
BENCHMARK(BM_FullLowering)->Arg(4096);

static void
BM_SynthesisEstimate(benchmark::State &state)
{
    auto w = workloads::make2mm(state.range(0));
    auto lowered = lower::lowerStmts(w->func(),
                                     lower::extractStmts(w->func()));
    for (auto _ : state) {
        auto report = hls::estimate(w->func(), lowered);
        benchmark::DoNotOptimize(report);
    }
}
BENCHMARK(BM_SynthesisEstimate)->Arg(4096);

static void
BM_PointCounting(benchmark::State &state)
{
    auto set = poly::IntegerSet::box({"i", "j", "k"}, {0, 0, 0},
                                     {state.range(0) - 1,
                                      state.range(0) - 1,
                                      state.range(0) - 1});
    for (auto _ : state)
        benchmark::DoNotOptimize(hls::countPoints(set));
}
BENCHMARK(BM_PointCounting)->Arg(4096)->Arg(8192);

static void
BM_AvgTripsTiled(benchmark::State &state)
{
    // The trip counts the search asks of a split loop: gemm with i
    // split by 3, so the last tile is partial and the tile level is
    // walked value by value. The walk itself: hls::avgTrips would
    // answer every iteration after the first from its memo.
    auto w = workloads::makeGemm(state.range(0));
    transform::PolyStmt stmt = lower::extractStmts(w->func())[0];
    transform::split(stmt, "i", 3, "i0", "i1");
    for (auto _ : state)
        benchmark::DoNotOptimize(hls::countTrips(stmt.sched.domain));
}
BENCHMARK(BM_AvgTripsTiled)->Arg(128)->Arg(4096);

// BM_AutoDse*: one whole search per iteration in a warm process. From
// the second iteration on, every dependence, trip count and node report
// comes from the process-wide fact and node memos, so this times stage
// 1, building each unit schedule the search uses, the node-key
// lookups, and lowering the selected design whole.
static void
BM_AutoDseGemm(benchmark::State &state)
{
    for (auto _ : state) {
        state.PauseTiming();
        auto w = workloads::makeGemm(state.range(0));
        state.ResumeTiming();
        auto result = dse::autoDSE(w->func());
        benchmark::DoNotOptimize(result);
    }
}
BENCHMARK(BM_AutoDseGemm)->Arg(4096)->Unit(benchmark::kMillisecond);

static void
BM_AutoDseBicg(benchmark::State &state)
{
    for (auto _ : state) {
        state.PauseTiming();
        auto w = workloads::makeBicg(state.range(0));
        state.ResumeTiming();
        auto result = dse::autoDSE(w->func());
        benchmark::DoNotOptimize(result);
    }
}
BENCHMARK(BM_AutoDseBicg)->Arg(4096)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
