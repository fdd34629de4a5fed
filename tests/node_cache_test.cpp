/**
 * @file
 * Tests for the one estimate cache key, hls::NodeKey: canonicality
 * (same node -> same key), sensitivity to everything a NodeReport
 * depends on, insensitivity to what the combiner applies afterwards
 * (device budget, sharing mode), the keys a cold greedy search stores
 * on every workload against golden/node_key_digests.txt, and a
 * concurrent first-writer-wins stress case for the sanitizer CI job.
 * Hit/miss accounting is covered by content_cache_test.
 *
 * The staged key is held to the one-shot key it replaced, kept here as
 * the reference (referenceFingerprint()): print the whole key text,
 * then hash it with both FNV-1a-64 states. Every Fingerprint.* variant
 * computes both and requires them equal.
 *
 * Regenerate the golden table (only for an intended key change, which
 * also invalidates every `--cache-dir` spill) with
 *   POM_UPDATE_EXPECTED=1 ./node_cache_test \
 *       --gtest_filter='NodeKeys.ColdGreedySearchStoresTheGoldenKeys'
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <thread>
#include <vector>

#include "dse/dse.h"
#include "golden_digests.h"
#include "hls/node_cache.h"
#include "lower/lower.h"
#include "support/version.h"
#include "transform/poly_stmt.h"
#include "workloads/workloads.h"

namespace {

using namespace pom;

std::vector<transform::PolyStmt>
gemmStmts(std::int64_t size)
{
    auto w = workloads::makeByName("gemm", size);
    return lower::extractStmts(w->func());
}

// ----- the reference: the one-shot text-then-hash key -------------------

/** One array's banking as seen by a node: name, banks, complete. */
struct NodeArrayBanking
{
    std::string array;
    std::int64_t banks = 1;
    bool complete = false;
};

void
opCostsFingerprintTo(std::ostream &os, const hls::OpCosts &c)
{
    os << "costs " << c.faddLat << " " << c.fmulLat << " " << c.fdivLat
       << " " << c.fcmpLat << " " << c.iaddLat << " " << c.imulLat << " "
       << c.loadLat << " " << c.storeLat << " " << c.faddDsp << " "
       << c.faddLut << " " << c.faddFf << " " << c.fmulDsp << " "
       << c.fmulLut << " " << c.fmulFf << " " << c.fdivDsp << " "
       << c.fdivLut << " " << c.fdivFf << " " << c.fcmpDsp << " "
       << c.fcmpLut << " " << c.fcmpFf << " " << c.iaddDsp << " "
       << c.iaddLut << " " << c.iaddFf << " " << c.imulDsp << " "
       << c.imulLut << " " << c.imulFf << " " << c.loopCtrlLut << " "
       << c.loopCtrlFf << " " << c.bankMuxLut << " "
       << c.pipelineRegFfPerCopy << "\n";
}

/**
 * The key text -- format stamp, @p funcDigest, the member schedule
 * fragments, the bankings (sorted by array name) and the cost table --
 * hashed whole with FNV-1a-64 from two offset bases.
 */
std::string
referenceFingerprint(const std::string &funcDigest,
                     const std::vector<const std::string *> &memberFragments,
                     const std::vector<NodeArrayBanking> &arrays,
                     const hls::OpCosts &costs)
{
    std::ostringstream os;
    os << support::kNodeCacheFormatName << " " << support::kVersionString
       << "\n";
    os << "func\n" << funcDigest << "\n";
    for (const std::string *fragment : memberFragments)
        os << *fragment;
    for (const auto &a : arrays) {
        os << "arr " << a.array << " banks=" << a.banks
           << " complete=" << (a.complete ? 1 : 0) << "\n";
    }
    opCostsFingerprintTo(os, costs);
    const std::string text = os.str();
    return support::hex16(support::fnv1a64(text.data(), text.size())) +
           support::hex16(support::fnv1a64(text.data(), text.size(),
                                           0x6c62272e07bb0142ull));
}

// ----- tests --------------------------------------------------------------

/**
 * Node key of all of @p stmts as one unit, built in stages as the DSE
 * engine builds it; must equal the reference's.
 */
std::string
keyOf(const std::string &funcDigest,
      const std::vector<transform::PolyStmt> &stmts,
      const std::vector<NodeArrayBanking> &arrays,
      const hls::OpCosts &costs = {})
{
    std::vector<std::string> fragments;
    for (const auto &s : stmts)
        fragments.push_back(hls::stmtScheduleFragment(s));
    std::vector<const std::string *> members;
    for (const auto &f : fragments)
        members.push_back(&f);
    const std::string reference =
        referenceFingerprint(funcDigest, members, arrays, costs);

    hls::NodeKey key = hls::NodeKey::ofFunction(funcDigest);
    for (const auto &s : stmts)
        key.addSchedule(s);
    for (const auto &a : arrays)
        key.addBanking(a.array, {a.banks, a.complete});
    const std::string staged = key.finish(hls::opCostsLine(costs));
    EXPECT_EQ(staged, reference) << "the staged key left the reference";
    return staged;
}

const std::vector<NodeArrayBanking> kPlain = {
    {"A", 1, false}, {"B", 1, false}, {"C", 1, false}};

TEST(Fingerprint, DeterministicAcrossExtractions)
{
    EXPECT_EQ(keyOf("f", gemmStmts(64), kPlain),
              keyOf("f", gemmStmts(64), kPlain));
}

TEST(Fingerprint, SensitiveToEveryObservableInput)
{
    auto base = gemmStmts(64);
    std::string ref = keyOf("f", base, kPlain);

    // Problem size changes the iteration domains.
    EXPECT_NE(keyOf("f", gemmStmts(32), kPlain), ref);

    // A schedule transformation changes the schedule fragments.
    auto piped = gemmStmts(64);
    transform::setPipeline(piped[0],
                           piped[0].sched.domain.dimName(
                               piped[0].numDims() - 1),
                           1);
    EXPECT_NE(keyOf("f", piped, kPlain), ref);

    // One array's banks.
    auto banked = kPlain;
    banked[2].banks = 4;
    std::string cyclic = keyOf("f", base, banked);
    EXPECT_NE(cyclic, ref);

    // Cyclic vs complete partitioning at the same bank count.
    banked[2].complete = true;
    EXPECT_NE(keyOf("f", base, banked), cyclic);

    // A bank count of several digits.
    auto wide = kPlain;
    wide[0].banks = 4096;
    EXPECT_NE(keyOf("f", base, wide), ref);

    // The function digest distinguishes different programs.
    EXPECT_NE(keyOf("g", base, kPlain), ref);

    // One operator cost.
    hls::OpCosts costs;
    costs.fmulDsp += 1;
    EXPECT_NE(keyOf("f", base, kPlain, costs), ref);
}

TEST(Fingerprint, DeviceBudgetAndSharingModeAreNotInTheKey)
{
    // A search capped at degree 1 evaluates only the pipeline-only
    // design. Re-running it under another device budget must find
    // every node already cached: the search checks each composed
    // report against the budget. The sharing mode is applied by the
    // combiner alone; NodeReports.CombineMatchesMonolithicEstimate
    // composes the same node reports under both modes.
    auto &nodes = hls::NodeReportCache::global();
    nodes.clear();
    auto search = [](const dse::DseOptions &opt) {
        auto w = workloads::makeByName("2mm", 32);
        return dse::autoDSE(w->func(), opt);
    };
    dse::DseOptions opt;
    opt.maxParallelism = 1;
    search(opt);
    ASSERT_GT(nodes.misses(), 0u);
    const std::size_t entries = nodes.size();

    dse::DseOptions smaller = opt;
    smaller.resourceFraction = 0.25;
    std::uint64_t misses0 = nodes.misses();
    std::uint64_t hits0 = nodes.hits();
    search(smaller);
    EXPECT_EQ(nodes.misses(), misses0);
    EXPECT_GT(nodes.hits(), hits0);
    EXPECT_EQ(nodes.size(), entries);
    nodes.clear();
}

TEST(NodeKeys, ColdGreedySearchStoresTheGoldenKeys)
{
    // Every key a cold default (greedy) search stores, per workload at
    // size 64: a changed key spelling or hashing fails here even when
    // every report stays the same.
    const std::string path = golden::goldenPath("node_key_digests.txt");
    golden::DigestTable table = golden::readDigestTable(path);
    const bool update = golden::updatingGoldens();
    auto &nodes = hls::NodeReportCache::global();
    for (const auto &name : workloads::allNames()) {
        nodes.clear();
        auto w = workloads::makeByName(name, 64);
        dse::autoDSE(w->func());
        std::vector<std::string> keys;
        for (const auto &entry : nodes.snapshot())
            keys.push_back(entry.first);
        ASSERT_FALSE(keys.empty()) << name;
        std::sort(keys.begin(), keys.end());
        std::string text;
        for (const auto &key : keys)
            text += key + "\n";
        const std::string digest = golden::digestOf(text);
        if (update) {
            table[{"greedy", name}] = {digest};
            continue;
        }
        auto it = table.find({"greedy", name});
        if (it == table.end() || it->second.size() != 1) {
            ADD_FAILURE() << name << " has no digest in " << path
                          << " (regenerate with POM_UPDATE_EXPECTED=1)";
            continue;
        }
        EXPECT_EQ(it->second[0], digest)
            << name << ": the stored node keys changed";
    }
    nodes.clear();
    if (update) {
        EXPECT_TRUE(golden::writeDigestTable(
            path,
            "strategy workload fnv1a64(sorted node-cache keys of a cold "
            "search) at size 64",
            {"greedy"}, workloads::allNames(), table))
            << "cannot write " << path;
    }
}

TEST(NodeReportCache, ConcurrentStress)
{
    hls::NodeReportCache cache;
    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t) {
        threads.emplace_back([&cache]() {
            for (int i = 0; i < 500; ++i) {
                std::string key = "key" + std::to_string(i % 37);
                auto tag = static_cast<std::uint64_t>(i % 37);
                if (auto hit = cache.lookup(key)) {
                    // A hit must carry the first writer's value.
                    EXPECT_EQ(hit->at(0).latencyCycles, tag);
                } else {
                    hls::NodeReport n;
                    n.latencyCycles = tag;
                    cache.store(key, {n});
                }
            }
        });
    }
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(cache.size(), 37u);
    EXPECT_EQ(cache.hits() + cache.misses(), 8u * 500u);
}

} // namespace
