/**
 * @file
 * Differential tests for incremental per-node estimation
 * (hls/node_cache.h, the composed path of the DSE engine's evaluatePoint):
 *
 *  - The headline invariant: journals (v1 AND v2) of the default
 *    memoized, incremental path are byte-identical to the uncached
 *    monolithic reference (memoize off), for every workload and every
 *    stage-2 strategy. Worker-count identity is the ParallelDse and
 *    StrategyDeterminism tests' job.
 *  - The same sweeps pin every trajectory and its output: the v2
 *    journal digest, the HLS C digest and the report-line digest of
 *    each (strategy, workload) run must match
 *    golden/dse_journal_digests.txt, so a changed greedy, beam or
 *    anneal search, a changed lowering of the selected design, or a
 *    changed estimate of it (power and II included), fails here even
 *    when both paths change alike.
 *    Regenerate (only for an intended search or codegen change) with
 *      POM_UPDATE_EXPECTED=1 ./incremental_dse_test \
 *          --gtest_filter='IncrementalDse.*JournalsByteIdentical'
 *  - The same sweeps hold the baseline composed from node reports to
 *    the monolithic estimate of the whole unscheduled design, and a
 *    second identical search counts no trips, estimates no node and
 *    runs no monolithic estimate.
 *  - A search lowers each unit schedule once, however often its node
 *    key misses.
 *  - Concurrent searches that share the process-wide memos agree.
 *  - The node key tells apart functions that differ only in the order
 *    of a compute's iterators or in a constant past six digits.
 *  - The NodeReportCache entry codec (its store and spill mechanics
 *    are covered by content_cache_test).
 *  - combineNodeReports(estimateNodes(f)) equals estimate(f).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "check/oracle.h"
#include "cold_memos.h"
#include "dse/dse.h"
#include "golden_digests.h"
#include "hls/node_cache.h"
#include "lower/lower.h"
#include "obs/journal.h"
#include "obs/obs.h"
#include "workloads/workloads.h"

namespace {

using namespace pom;
using golden::digestOf;
using workloads::makeByName;

/** The sweep configuration of one workload (DNNs get a bounded depth). */
dse::DseOptions
sweepOptions(const std::string &name, dse::StrategyKind kind)
{
    dse::DseOptions opt;
    opt.strategy = kind;
    if (name == "vgg16" || name == "resnet18")
        opt.maxParallelism = 2;
    return opt;
}

/**
 * The golden table: (strategy, workload) -> digests of its v2 journal,
 * HLS C and report line.
 */
const std::string &
digestPath()
{
    static const std::string path =
        golden::goldenPath("dse_journal_digests.txt");
    return path;
}

/** Rewrite the golden file in (strategy, workload list) order. */
void
writeDigests(const golden::DigestTable &digests)
{
    EXPECT_TRUE(golden::writeDigestTable(
        digestPath(),
        "strategy workload fnv1a64(v2 journal) fnv1a64(HLS C) "
        "fnv1a64(report line) of the IncrementalDse sweeps",
        {"greedy", "beam", "anneal"}, workloads::allNames(), digests))
        << "cannot write " << digestPath();
}

/**
 * The headline differential: for every workload, the default path
 * (memoized, incremental) must produce v1 AND v2 journals
 * byte-identical to the uncached monolithic reference's. The node
 * cache is dropped before every run so the incremental side estimates
 * its nodes within the run instead of reading another run's. The
 * reference's v2 journal and the default path's HLS C and report line
 * (`pomc`'s `report:` line) must also hash to their golden digests.
 */
void
differentialSweep(dse::StrategyKind kind)
{
    const std::string strategy = dse::strategyName(kind);
    golden::DigestTable table = golden::readDigestTable(digestPath());
    const bool update = golden::updatingGoldens();
    for (const auto &name : workloads::allNames()) {
        dse::DseOptions opt = sweepOptions(name, kind);
        const std::int64_t size = 64;

        opt.memoize = false;
        hls::NodeReportCache::global().clear();
        auto w = makeByName(name, size);
        dse::DseResult mono = dse::autoDSE(w->func(), opt);
        std::string mono_v1 = obs::journalJson(mono.journal);
        std::string mono_v2 =
            obs::journalJsonV2(mono.journal, mono.frontierRounds);

        opt.memoize = true;
        hls::NodeReportCache::global().clear();
        auto wi = makeByName(name, size);
        dse::DseResult inc = dse::autoDSE(wi->func(), opt);
        EXPECT_EQ(mono_v1, obs::journalJson(inc.journal)) << name;
        EXPECT_EQ(mono_v2,
                  obs::journalJsonV2(inc.journal, inc.frontierRounds))
            << name;
        EXPECT_EQ(mono.report.latencyCycles, inc.report.latencyCycles)
            << name;
        EXPECT_EQ(mono.report.resources.dsp, inc.report.resources.dsp)
            << name;
        // The baseline composed from node reports against the whole
        // unscheduled design's monolithic estimate.
        EXPECT_EQ(mono.baseline.str(opt.budget()),
                  inc.baseline.str(opt.budget()))
            << name;
        EXPECT_EQ(mono.baseline.nestLatencies, inc.baseline.nestLatencies)
            << name;

        std::string digest = digestOf(mono_v2);
        std::string hls_digest = digestOf(inc.design->hlsC());
        std::string report_digest = digestOf(inc.report.str(opt.budget()));
        if (update) {
            table[{strategy, name}] = {digest, hls_digest, report_digest};
            continue;
        }
        auto it = table.find({strategy, name});
        if (it == table.end() || it->second.size() != 3) {
            ADD_FAILURE() << strategy << " " << name << " has no digest in "
                          << digestPath()
                          << " (regenerate with POM_UPDATE_EXPECTED=1)";
            continue;
        }
        EXPECT_EQ(it->second[0], digest)
            << strategy << " " << name
            << ": the v2 journal changed; regenerate with "
               "POM_UPDATE_EXPECTED=1 only if the search change is "
               "intended";
        EXPECT_EQ(it->second[1], hls_digest)
            << strategy << " " << name
            << ": the HLS C of the selected design changed; regenerate "
               "with POM_UPDATE_EXPECTED=1 only if the codegen change is "
               "intended";
        EXPECT_EQ(it->second[2], report_digest)
            << strategy << " " << name
            << ": the report line of the selected design changed; "
               "regenerate with POM_UPDATE_EXPECTED=1 only if the "
               "estimate change is intended";
    }
    if (update)
        writeDigests(table);
}

TEST(IncrementalDse, GreedyJournalsByteIdentical)
{
    differentialSweep(dse::StrategyKind::Greedy);
}

TEST(IncrementalDse, BeamJournalsByteIdentical)
{
    differentialSweep(dse::StrategyKind::Beam);
}

TEST(IncrementalDse, AnnealJournalsByteIdentical)
{
    differentialSweep(dse::StrategyKind::Anneal);
}

TEST(IncrementalDse, NodeCacheIsActuallyUsed)
{
    // A real search must compose at least some candidates from cached
    // nodes: after the initial design, mostly the changed unit should
    // miss the node cache.
    hls::NodeReportCache::global().clear();
    auto w = makeByName("2mm", 64);
    dse::autoDSE(w->func());
    auto &nodes = hls::NodeReportCache::global();
    EXPECT_GT(nodes.hits(), 0u);
    EXPECT_GT(nodes.misses(), 0u);
    // Hits do not necessarily dominate on small designs: the node key
    // includes the banking of every accessed array under the *merged*
    // plan, so doubling one unit re-keys neighbours that share arrays.
}

TEST(IncrementalDse, EachUnitScheduleLowersOnce)
{
    // A unit's AST depends on its statements alone. A node-cache miss
    // on a schedule the search already lowered -- the same schedule
    // under bankings that another unit's degree changed -- estimates
    // against the AST it kept, so 3mm's three units lower fewer ASTs
    // than they miss, and the design is still the reference path's.
    obs::setMetricsEnabled(true);
    cold::clearProcessMemos();
    const std::int64_t asts = obs::counterValue("dse.node_asts");
    const std::int64_t misses = obs::counterValue("dse.node_cache.misses");
    auto w = makeByName("3mm", 128);
    dse::DseResult inc = dse::autoDSE(w->func());
    const std::int64_t lowered = obs::counterValue("dse.node_asts") - asts;
    EXPECT_GT(lowered, 0);
    EXPECT_LT(lowered, obs::counterValue("dse.node_cache.misses") - misses);

    dse::DseOptions reference;
    reference.memoize = false;
    auto wr = makeByName("3mm", 128);
    dse::DseResult mono = dse::autoDSE(wr->func(), reference);
    const hls::Device device = hls::Device::xc7z020();
    EXPECT_EQ(inc.report.str(device), mono.report.str(device));
    EXPECT_EQ(inc.design->hlsC(), mono.design->hlsC());
    obs::setMetricsEnabled(false);
}

TEST(IncrementalDse, RepeatedSearchCountsAndEstimatesNothing)
{
    // What a repeated search costs: a second identical search finds
    // every trip count, node report and dependence the first one
    // stored, its baseline included, and never runs the monolithic
    // estimator. The reference path (memoize off) still does, for the
    // baseline too.
    obs::setMetricsEnabled(true);
    const char *counters[] = {"trips.counts", "dse.node_cache.misses",
                              "hls.estimates", "dep.analyses",
                              "dep.carried.analyses", "dse.cache.misses"};
    auto snapshot = [&counters]() {
        std::vector<std::int64_t> values;
        for (const char *c : counters)
            values.push_back(obs::counterValue(c));
        return values;
    };
    for (const char *name : {"gemm", "2mm", "jacobi2d", "seidel", "blur"}) {
        SCOPED_TRACE(name);
        auto search = [name]() {
            auto w = makeByName(name, 32);
            return dse::autoDSE(w->func());
        };
        cold::clearProcessMemos();
        const std::vector<std::int64_t> cold = snapshot();
        dse::DseResult first = search();
        const std::vector<std::int64_t> warm = snapshot();
        EXPECT_EQ(warm[2], cold[2]) << "the first search ran hls::estimate";
        EXPECT_GT(warm[0], cold[0]);
        EXPECT_GT(warm[1], cold[1]);
        // The baseline is no design point of the cache counts.
        EXPECT_EQ(first.pointCacheHits + first.pointCacheMisses,
                  first.pointsExplored);
        const std::int64_t hits = obs::counterValue("trips.memo.hits");
        const std::int64_t pointHits = obs::counterValue("dse.cache.hits");
        dse::DseResult second = search();
        EXPECT_EQ(snapshot(), warm);
        EXPECT_GT(obs::counterValue("trips.memo.hits"), hits);
        EXPECT_EQ(second.pointCacheMisses, 0);
        EXPECT_EQ(second.pointCacheHits, second.pointsExplored);
        EXPECT_EQ(obs::counterValue("dse.cache.hits") - pointHits,
                  second.pointsExplored);
        const hls::Device device = hls::Device::xc7z020();
        EXPECT_EQ(first.baseline.str(device), second.baseline.str(device));
        EXPECT_EQ(first.report.str(device), second.report.str(device));
        EXPECT_EQ(second.design->hlsC(), first.design->hlsC());

        // The reference path estimates every point and the baseline
        // whole.
        dse::DseOptions reference;
        reference.memoize = false;
        const std::int64_t estimates = obs::counterValue("hls.estimates");
        auto w = makeByName(name, 32);
        dse::DseResult mono = dse::autoDSE(w->func(), reference);
        EXPECT_EQ(obs::counterValue("hls.estimates") - estimates,
                  mono.pointsExplored + 1);
        EXPECT_EQ(mono.baseline.str(device), first.baseline.str(device));
    }
    obs::setMetricsEnabled(false);
}

TEST(IncrementalDse, ConcurrentSearchesAgree)
{
    // Four threads search one workload at once on cold memos, so they
    // race to analyse, count and estimate, and to store, the same
    // dependences, trip counts and node reports.
    cold::clearProcessMemos();
    auto solo = makeByName("3mm", 32);
    dse::DseResult cold_res = dse::autoDSE(solo->func());
    const std::string cold_journal =
        obs::journalJsonV2(cold_res.journal, cold_res.frontierRounds);

    cold::clearProcessMemos();
    std::vector<std::string> journals(4);
    std::vector<std::thread> threads;
    for (size_t t = 0; t < journals.size(); ++t) {
        threads.emplace_back([&journals, t]() {
            auto w = makeByName("3mm", 32);
            dse::DseResult res = dse::autoDSE(w->func());
            journals[t] = obs::journalJsonV2(res.journal, res.frontierRounds);
        });
    }
    for (std::thread &t : threads)
        t.join();
    for (const std::string &journal : journals)
        EXPECT_EQ(journal, cold_journal);
}

// ----- the node key --------------------------------------------------------

/** What one search printed, and how many node reports it estimated. */
struct SearchRun
{
    std::string journal; ///< the v2 journal
    std::string hlsC;
    std::int64_t nodeMisses = 0; ///< `dse.node_cache.misses` delta
    std::shared_ptr<const dse::SelectedDesign> design;
};

SearchRun
searchOf(dsl::Function &func)
{
    const std::int64_t missed = obs::counterValue("dse.node_cache.misses");
    dse::DseResult res = dse::autoDSE(func);
    SearchRun run;
    run.journal = obs::journalJsonV2(res.journal, res.frontierRounds);
    run.hlsC = res.design->hlsC();
    run.nodeMisses = obs::counterValue("dse.node_cache.misses") - missed;
    run.design = res.design;
    return run;
}

/**
 * A 16 x 16 transpose-and-scale whose compute lists its iterators as
 * (i, j), or as (j, i) when @p swapped, and splits both by 4 into
 * loops (a, b, c, d), the first iterator's into (a, b). The two
 * functions print the same digest and the same base schedule, but the
 * loops (a, b) walk B's first dimension in one and its second in the
 * other: only the order of the iterators tells them apart.
 */
SearchRun
transposeSearch(bool swapped)
{
    dsl::Function f("transpose");
    dsl::Var i("i", 0, 16), j("j", 0, 16);
    dsl::Placeholder A(f, "A", {16, 16});
    dsl::Placeholder B(f, "B", {16, 16});
    dsl::Compute s(f, "s", swapped ? std::vector{j, i} : std::vector{i, j},
                   A(j, i) * 2.0, B(i, j));
    dsl::Var a("a"), b("b"), c("c"), d("d");
    s.split(swapped ? j : i, 4, a, b);
    s.split(swapped ? i : j, 4, c, d);
    SearchRun run = searchOf(f);
    check::OracleResult res =
        check::checkLowered(f, run.design->lowered, /*seed=*/1);
    EXPECT_TRUE(res.equivalent) << res.message;
    return run;
}

TEST(NodeKeys, IteratorOrderIsPartOfTheKey)
{
    // The node key folds each compute's iterator line too, so the
    // (j, i) transpose searched after the (i, j) one estimates every
    // node a cold search of it estimates instead of taking the other
    // function's reports.
    std::vector<std::int64_t> cold_misses;
    for (bool swapped : {false, true}) {
        cold::clearProcessMemos();
        cold_misses.push_back(transposeSearch(swapped).nodeMisses);
    }
    EXPECT_GT(cold_misses[1], 1);
    cold::clearProcessMemos();
    transposeSearch(false);
    EXPECT_EQ(transposeSearch(true).nodeMisses, cold_misses[1]);
}

TEST(NodeKeys, ConstantsPastSixDigitsDoNotShare)
{
    // 1/9 and 0.111111 print alike at six significant digits; the
    // function digest at the head of the node key prints both exactly,
    // so the 0.111111 function searched after the 1/9 one estimates
    // every node a cold search of it estimates, and each design gets
    // its own IR and HLS C and computes its own function.
    auto search = [](double scale) {
        dsl::Function f("scale");
        dsl::Var i("i", 0, 16);
        dsl::Placeholder A(f, "A", {16});
        dsl::Placeholder B(f, "B", {16});
        dsl::Compute s(f, "s", {i}, scale * A(i), B(i));
        SearchRun run = searchOf(f);
        check::OracleResult ok =
            check::checkLowered(f, run.design->lowered, /*seed=*/1);
        EXPECT_TRUE(ok.equivalent) << ok.message;
        return run;
    };
    cold::clearProcessMemos();
    const SearchRun cold_run = search(0.111111);
    EXPECT_GT(cold_run.nodeMisses, 0);

    cold::clearProcessMemos();
    const SearchRun ninth = search(1.0 / 9.0);
    const SearchRun rounded = search(0.111111);
    EXPECT_EQ(rounded.nodeMisses, cold_run.nodeMisses);
    EXPECT_EQ(rounded.hlsC, cold_run.hlsC);
    EXPECT_NE(ninth.design->lowered.func->str(),
              rounded.design->lowered.func->str());
    EXPECT_NE(ninth.hlsC, rounded.hlsC);
}

// ----- NodeReportCache entry codec ---------------------------------------

hls::NodeReport
sampleNode(const std::string &nest, std::uint64_t latency)
{
    hls::NodeReport n;
    n.nest = nest;
    n.latencyCycles = latency;
    n.resources.dsp = 5;
    n.resources.lut = 123;
    n.resources.ff = 77;
    n.resources.bramBits = 4096;
    hls::LoopReport loop;
    loop.iterName = "i_P";
    loop.trip = 16;
    loop.targetII = 1;
    loop.achievedII = 2;
    loop.latency = latency / 2;
    loop.recMII = 2;
    loop.resMII = 1;
    n.loops.push_back(loop);
    return n;
}

TEST(NodeReportCache, CodecRoundTrips)
{
    std::vector<hls::NodeReport> nodes = {sampleNode("s0 tricky:name", 7),
                                          sampleNode("s1", 99)};
    nodes[1].loops.clear(); // a node with no pipelined loop
    std::string text = hls::encodeNodeCacheEntry("some-key", nodes);

    std::string key;
    std::vector<hls::NodeReport> parsed;
    std::string error;
    ASSERT_TRUE(hls::decodeNodeCacheEntry(text, key, parsed, error))
        << error;
    EXPECT_EQ(key, "some-key");
    ASSERT_EQ(parsed.size(), nodes.size());
    for (size_t i = 0; i < nodes.size(); ++i) {
        EXPECT_EQ(parsed[i].nest, nodes[i].nest);
        EXPECT_EQ(parsed[i].latencyCycles, nodes[i].latencyCycles);
        EXPECT_EQ(parsed[i].resources.dsp, nodes[i].resources.dsp);
        EXPECT_EQ(parsed[i].resources.lut, nodes[i].resources.lut);
        EXPECT_EQ(parsed[i].resources.ff, nodes[i].resources.ff);
        EXPECT_EQ(parsed[i].resources.bramBits,
                  nodes[i].resources.bramBits);
        ASSERT_EQ(parsed[i].loops.size(), nodes[i].loops.size());
        for (size_t j = 0; j < nodes[i].loops.size(); ++j) {
            EXPECT_EQ(parsed[i].loops[j].iterName,
                      nodes[i].loops[j].iterName);
            EXPECT_EQ(parsed[i].loops[j].trip, nodes[i].loops[j].trip);
            EXPECT_EQ(parsed[i].loops[j].targetII,
                      nodes[i].loops[j].targetII);
            EXPECT_EQ(parsed[i].loops[j].achievedII,
                      nodes[i].loops[j].achievedII);
            EXPECT_EQ(parsed[i].loops[j].latency,
                      nodes[i].loops[j].latency);
            EXPECT_EQ(parsed[i].loops[j].recMII,
                      nodes[i].loops[j].recMII);
            EXPECT_EQ(parsed[i].loops[j].resMII,
                      nodes[i].loops[j].resMII);
        }
    }

    EXPECT_FALSE(hls::decodeNodeCacheEntry("garbage", key, parsed,
                                           error));
    EXPECT_FALSE(error.empty());
}

// ----- node-report composition -------------------------------------------

TEST(NodeReports, CombineMatchesMonolithicEstimate)
{
    // combineNodeReports(estimateNodes(f)) == estimate(f), bit for
    // bit, on every workload and under both sharing modes -- the
    // foundation the whole incremental path rests on.
    for (const auto &name : workloads::allNames()) {
        auto w = makeByName(name, 64);
        lower::LoweredFunction lowered = lower::lower(w->func());
        for (hls::SharingMode sharing :
             {hls::SharingMode::Reuse, hls::SharingMode::Dataflow}) {
            hls::EstimatorOptions eo;
            eo.sharing = sharing;
            hls::SynthesisReport mono =
                hls::estimate(w->func(), lowered, eo);
            hls::SynthesisReport composed = hls::combineNodeReports(
                w->func(), hls::estimateNodes(w->func(), lowered, eo),
                eo);
            EXPECT_EQ(mono.latencyCycles, composed.latencyCycles)
                << name;
            EXPECT_EQ(mono.resources.dsp, composed.resources.dsp)
                << name;
            EXPECT_EQ(mono.resources.bramBits,
                      composed.resources.bramBits)
                << name;
            EXPECT_EQ(mono.resources.lut, composed.resources.lut)
                << name;
            EXPECT_EQ(mono.resources.ff, composed.resources.ff) << name;
            EXPECT_EQ(mono.powerW, composed.powerW) << name;
            EXPECT_EQ(mono.nestLatencies, composed.nestLatencies)
                << name;
            ASSERT_EQ(mono.loops.size(), composed.loops.size()) << name;
            for (size_t i = 0; i < mono.loops.size(); ++i) {
                EXPECT_EQ(mono.loops[i].iterName,
                          composed.loops[i].iterName);
                EXPECT_EQ(mono.loops[i].latency,
                          composed.loops[i].latency);
                EXPECT_EQ(mono.loops[i].achievedII,
                          composed.loops[i].achievedII);
            }
        }
    }
}

} // namespace
