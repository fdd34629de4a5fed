/**
 * @file
 * Tests for the memoized DSE: node-cache behaviour during a search,
 * journal replay (pomc --replay-journal), the journal JSON parser, and
 * the all-workload sweep golden that gates final latency and explored
 * point count per workload.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cold_memos.h"
#include "dse/dse.h"
#include "hls/node_cache.h"
#include "mutation.h"
#include "obs/journal.h"
#include "obs/obs.h"
#include "support/diagnostics.h"
#include "workloads/workloads.h"

namespace {

using namespace pom;
using workloads::makeByName;

dse::DseResult
runDse(const std::string &name, std::int64_t size, bool memoize = true)
{
    auto w = makeByName(name, size);
    dse::DseOptions opt;
    opt.memoize = memoize;
    return dse::autoDSE(w->func(), opt);
}

/** One search on cold process memos, so that it does all of its own work. */
dse::DseResult
runCold(const std::string &name, std::int64_t size)
{
    cold::clearProcessMemos();
    return runDse(name, size);
}

TEST(ParallelDse, MemoizationDoesNotChangeTheSearch)
{
    std::string cold = obs::journalJson(
        runDse("gesummv", 64, /*memoize=*/false).journal);
    std::string warm = obs::journalJson(runDse("gesummv", 64).journal);
    // Run again with every estimate already cached.
    std::string hot = obs::journalJson(runDse("gesummv", 64).journal);
    EXPECT_EQ(cold, warm);
    EXPECT_EQ(cold, hot);
}

TEST(ParallelDse, FinalMaterializationHitsTheCache)
{
    hls::NodeReportCache &nodes = hls::NodeReportCache::global();
    for (auto [name, size] :
         {std::pair<const char *, std::int64_t>{"atax", 96},
          {"2mm", 64},
          {"3mm", 64}}) {
        SCOPED_TRACE(name);
        std::int64_t hits0 = obs::counterValue("dse.cache.hits");
        std::int64_t carried0 = obs::counterValue("dep.carried.analyses");

        dse::DseResult res = runCold(name, size);
        EXPECT_GT(res.pointsExplored, 2);
        // Stage 2's carried levels come from the carried view.
        EXPECT_GT(obs::counterValue("dep.carried.analyses"), carried0);

        // Every unit of the winning configuration was estimated during
        // the search, so the final materialization composes from cached
        // nodes and counts as a point hit -- on every run, even the
        // first, which is what makes dse.cache.hits nonzero per
        // workload.
        EXPECT_GT(obs::counterValue("dse.cache.hits"), hits0);
        EXPECT_GT(nodes.hits(), 0u);

        // A warm identical search: every point is served from the cache.
        std::int64_t misses1 = obs::counterValue("dse.cache.misses");
        std::uint64_t node_misses1 = nodes.misses();
        dse::DseResult warm = runDse(name, size);
        EXPECT_EQ(obs::counterValue("dse.cache.misses"), misses1);
        EXPECT_EQ(nodes.misses(), node_misses1);
        EXPECT_EQ(warm.report.latencyCycles, res.report.latencyCycles);
        EXPECT_EQ(warm.pointsExplored, res.pointsExplored);
    }
}

TEST(JournalParser, RoundTripsTheEmitter)
{
    dse::DseResult res = runDse("gemm", 64);
    std::string json = obs::journalJson(res.journal);

    std::vector<obs::JournalEntry> parsed;
    std::string error;
    ASSERT_TRUE(obs::parseJournalJson(json, parsed, error)) << error;
    ASSERT_EQ(parsed.size(), res.journal.size());
    for (size_t i = 0; i < parsed.size(); ++i) {
        EXPECT_EQ(parsed[i].kind, res.journal[i].kind);
        EXPECT_EQ(parsed[i].phase, res.journal[i].phase);
        EXPECT_EQ(parsed[i].point, res.journal[i].point);
        EXPECT_EQ(parsed[i].detail, res.journal[i].detail);
        EXPECT_EQ(parsed[i].primitives, res.journal[i].primitives);
        EXPECT_EQ(parsed[i].latencyCycles, res.journal[i].latencyCycles);
        EXPECT_EQ(parsed[i].dsp, res.journal[i].dsp);
        EXPECT_EQ(parsed[i].bramBits, res.journal[i].bramBits);
        EXPECT_EQ(parsed[i].lut, res.journal[i].lut);
        EXPECT_EQ(parsed[i].ff, res.journal[i].ff);
        EXPECT_EQ(parsed[i].verdict, res.journal[i].verdict);
        EXPECT_EQ(parsed[i].reason, res.journal[i].reason);
    }

    // Escaped content survives the round trip.
    obs::JournalEntry tricky;
    tricky.kind = "stage1";
    tricky.detail = "a \"quoted\"\nbackslash \\ tab\t";
    std::string doc = obs::journalJson({tricky});
    ASSERT_TRUE(obs::parseJournalJson(doc, parsed, error)) << error;
    ASSERT_EQ(parsed.size(), 1u);
    EXPECT_EQ(parsed[0].detail, tricky.detail);
}

TEST(JournalParser, RejectsMalformedDocuments)
{
    std::vector<obs::JournalEntry> parsed;
    std::string error;
    EXPECT_FALSE(obs::parseJournalJson("", parsed, error));
    EXPECT_FALSE(obs::parseJournalJson("{}", parsed, error));
    EXPECT_FALSE(obs::parseJournalJson(
        "{\"schema\": \"other/v9\", \"events\": []}", parsed, error));
    EXPECT_NE(error.find("schema"), std::string::npos);
    EXPECT_FALSE(obs::parseJournalJson(
        "{\"schema\": \"pom-dse-journal/v1\", \"events\": [{\"kind\": ",
        parsed, error));
    EXPECT_TRUE(obs::parseJournalJson(
        "{\"schema\": \"pom-dse-journal/v1\", \"events\": []}", parsed,
        error))
        << error;
    EXPECT_TRUE(parsed.empty());
}

TEST(JournalParser, IntegerFieldsTakeExactIntegralValues)
{
    // One codec reads journals, frames and spills: an integer field
    // takes any exact integral value, and nothing else.
    std::vector<obs::JournalEntry> parsed;
    std::string error;
    const std::string head =
        "{\"schema\": \"pom-dse-journal/v1\", \"events\": [{\"point\": ";
    ASSERT_TRUE(obs::parseJournalJson(head + "2.0}]}", parsed, error))
        << error;
    ASSERT_EQ(parsed.size(), 1u);
    EXPECT_EQ(parsed[0].point, 2);
    for (const char *bad : {"2.5", "\"2\"", "1e400", "null"}) {
        EXPECT_FALSE(obs::parseJournalJson(head + bad + "}]}", parsed,
                                           error))
            << bad;
        EXPECT_NE(error.find("'point'"), std::string::npos) << error;
    }
}

TEST(JournalParser, SurvivesSeededMutations)
{
    // `pomc --replay-journal` reads files from anywhere: a damaged
    // journal must come back as an error, or as records that re-emit
    // to a fixed point -- never a crash, a hang or a wrapped integer.
    dse::DseResult res = runDse("gemm", 32);
    // This seed's edit 655 of the v2 document makes a latency_cycles
    // value negative: the mutant must be rejected, not wrapped.
    support::SplitMix64 rng(9);
    for (bool v2 : {false, true}) {
        auto emit = [v2](const std::vector<obs::JournalEntry> &entries,
                         const std::vector<obs::FrontierRound> &rounds) {
            return v2 ? obs::journalJsonV2(entries, rounds)
                      : obs::journalJson(entries);
        };
        const std::string doc = emit(res.journal, res.frontierRounds);
        std::vector<obs::JournalEntry> entries;
        std::vector<obs::FrontierRound> rounds;
        std::string error;

        // Any cut before the closing brace leaves the document open.
        for (size_t cut = 0; cut < doc.rfind('}'); ++cut) {
            ASSERT_FALSE(obs::parseJournalJson(doc.substr(0, cut), entries,
                                               rounds, error))
                << "v2=" << v2 << " cut at " << cut;
        }

        for (int edit = 0; edit < 1000; ++edit) {
            const std::string mutant = mutation::mutateOnce(doc, rng);
            if (!obs::parseJournalJson(mutant, entries, rounds, error))
                continue;
            std::string once = emit(entries, rounds);
            ASSERT_TRUE(obs::parseJournalJson(once, entries, rounds, error))
                << "v2=" << v2 << " edit " << edit << ": " << error;
            ASSERT_EQ(emit(entries, rounds), once)
                << "v2=" << v2 << " edit " << edit;
        }
    }
}

TEST(Replay, ReproducesJournaledPoints)
{
    auto w = makeByName("gemm", 64);
    dse::DseResult res = dse::autoDSE(w->func());

    for (const auto &e : res.journal) {
        if (e.kind != "point")
            continue;
        auto fresh = makeByName("gemm", 64);
        dse::ReplayResult rr =
            dse::replayPoint(fresh->func(), res.journal, e.point);
        EXPECT_EQ(rr.report.latencyCycles, e.latencyCycles)
            << "point " << e.point << " (" << e.phase << ")";
        EXPECT_EQ(rr.report.resources.dsp, e.dsp) << "point " << e.point;
        EXPECT_EQ(rr.primitives, e.primitives);
        EXPECT_NE(rr.design->lowered.func, nullptr);
    }
}

TEST(Replay, RejectsMismatchedWorkloadAndMissingPoint)
{
    auto w = makeByName("gemm", 64);
    dse::DseResult res = dse::autoDSE(w->func());

    auto other = makeByName("bicg", 64);
    EXPECT_THROW(dse::replayPoint(other->func(), res.journal,
                                  res.pointsExplored),
                 support::FatalError);
    auto fresh = makeByName("gemm", 64);
    EXPECT_THROW(dse::replayPoint(fresh->func(), res.journal, 99999),
                 support::FatalError);
}

// ----- the all-workload sweep golden ------------------------------------

struct SweepRow
{
    std::string workload;
    std::int64_t size = 0;
    int points = 0;
    std::uint64_t latency = 0;

    /** Final Pareto frontier (objectives only; ids/primitives vary
     *  freely without being a regression). */
    std::vector<dse::FrontierPoint> frontier;
};

/** Pinned sweep configuration: every registered workload. The DNNs get
 *  a reduced stage-2 bound to keep the tier-1 suite fast; their full
 *  search depth runs in the cold `pomc --dse --emit` sweep that
 *  pom-trend folds. */
std::vector<std::pair<std::string, dse::DseOptions>>
sweepPlan(std::vector<std::int64_t> &sizes)
{
    std::vector<std::pair<std::string, dse::DseOptions>> plan;
    sizes.clear();
    for (const auto &name : workloads::allNames()) {
        dse::DseOptions opt;
        bool dnn = name == "vgg16" || name == "resnet18";
        if (dnn)
            opt.maxParallelism = 2;
        plan.emplace_back(name, opt);
        sizes.push_back(dnn ? 64 : 128);
    }
    return plan;
}

TEST(DseSweepGolden, NoWorkloadRegresses)
{
    std::vector<std::int64_t> sizes;
    auto plan = sweepPlan(sizes);

    std::vector<SweepRow> got;
    for (size_t i = 0; i < plan.size(); ++i) {
        auto w = makeByName(plan[i].first, sizes[i]);
        dse::DseResult res = dse::autoDSE(w->func(), plan[i].second);
        SweepRow row;
        row.workload = plan[i].first;
        row.size = sizes[i];
        row.points = res.pointsExplored;
        row.latency = res.report.latencyCycles;
        row.frontier = res.frontierRounds.back().points;
        got.push_back(std::move(row));
    }

    const std::string path =
        std::string(POM_GOLDEN_DIR) + "/dse_sweep_expected.txt";
    if (std::getenv("POM_UPDATE_EXPECTED") != nullptr) {
        std::ofstream out(path);
        ASSERT_TRUE(out.good()) << "cannot write " << path;
        out << "# workload size points_explored latency_cycles\n"
            << "# frontier workload size latency_cycles dsp bram_bits "
               "lut\n";
        for (const auto &r : got) {
            out << r.workload << " " << r.size << " " << r.points << " "
                << r.latency << "\n";
            for (const auto &p : r.frontier) {
                out << "frontier " << r.workload << " " << r.size << " "
                    << p.latencyCycles << " " << p.dsp << " "
                    << p.bramBits << " " << p.lut << "\n";
            }
        }
        GTEST_SKIP() << "updated " << path;
    }

    std::ifstream in(path);
    ASSERT_TRUE(in.good())
        << "missing golden file " << path
        << " (regenerate with POM_UPDATE_EXPECTED=1)";
    std::vector<SweepRow> expected;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string first;
        ls >> first;
        if (first == "frontier") {
            // A committed frontier point of the preceding workload row.
            std::string workload;
            std::int64_t size = 0;
            dse::FrontierPoint p;
            ASSERT_TRUE(static_cast<bool>(ls >> workload >> size >>
                                          p.latencyCycles >> p.dsp >>
                                          p.bramBits >> p.lut))
                << "malformed golden line: " << line;
            SweepRow *owner = nullptr;
            for (auto &row : expected) {
                if (row.workload == workload && row.size == size)
                    owner = &row;
            }
            ASSERT_NE(owner, nullptr)
                << "frontier line before its workload row: " << line;
            owner->frontier.push_back(std::move(p));
            continue;
        }
        SweepRow r;
        r.workload = first;
        ASSERT_TRUE(
            static_cast<bool>(ls >> r.size >> r.points >> r.latency))
            << "malformed golden line: " << line;
        expected.push_back(std::move(r));
    }

    for (const auto &g : got) {
        const SweepRow *e = nullptr;
        for (const auto &row : expected) {
            if (row.workload == g.workload && row.size == g.size)
                e = &row;
        }
        if (e == nullptr) {
            ADD_FAILURE() << g.workload << " (size " << g.size
                          << ") has no golden row; regenerate with "
                             "POM_UPDATE_EXPECTED=1";
            continue;
        }
        // One-sided gates: the search may only get better.
        EXPECT_LE(g.latency, e->latency)
            << g.workload << ": final latency regressed from "
            << e->latency << " to " << g.latency;
        EXPECT_LE(g.points, e->points)
            << g.workload << ": explored points inflated from "
            << e->points << " to " << g.points;
        if (g.latency < e->latency || g.points < e->points) {
            std::printf("note: %s improved (latency %llu -> %llu, "
                        "points %d -> %d); consider regenerating the "
                        "golden with POM_UPDATE_EXPECTED=1\n",
                        g.workload.c_str(),
                        static_cast<unsigned long long>(e->latency),
                        static_cast<unsigned long long>(g.latency),
                        e->points, g.points);
        }

        // The frontier-dominance gate: no committed frontier point may
        // become dominated by the new output. A trade-off the search
        // once discovered must never silently get strictly worse.
        for (const auto &want : e->frontier) {
            for (const auto &have : g.frontier) {
                EXPECT_FALSE(dse::dominates(have, want))
                    << g.workload << ": committed frontier point ("
                    << want.latencyCycles << ", " << want.dsp << ", "
                    << want.bramBits << ", " << want.lut
                    << ") is dominated by new point ("
                    << have.latencyCycles << ", " << have.dsp << ", "
                    << have.bramBits << ", " << have.lut
                    << "); regenerate with POM_UPDATE_EXPECTED=1 only "
                       "if this trade-off is intentional";
            }
        }
    }
}

} // namespace
