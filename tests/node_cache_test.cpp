/**
 * @file
 * Tests for the one estimate cache key, hls::nodeFingerprint():
 * canonicality (same node -> same key), sensitivity to everything a
 * NodeReport depends on, insensitivity to what the combiner applies
 * afterwards (device budget, sharing mode), and a concurrent
 * first-writer-wins stress case for the sanitizer CI job. Hit/miss
 * accounting is covered by content_cache_test.
 */

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "dse/dse.h"
#include "hls/node_cache.h"
#include "lower/lower.h"
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

/** Node key of all of @p stmts as one unit. */
std::string
keyOf(const std::string &funcDigest,
      const std::vector<transform::PolyStmt> &stmts,
      const std::vector<hls::NodeArrayBanking> &arrays,
      const hls::OpCosts &costs = {})
{
    std::vector<std::string> fragments;
    for (const auto &s : stmts)
        fragments.push_back(hls::stmtScheduleFragment(s));
    std::vector<const std::string *> members;
    for (const auto &f : fragments)
        members.push_back(&f);
    return hls::nodeFingerprint(funcDigest, members, arrays, costs);
}

const std::vector<hls::NodeArrayBanking> kPlain = {
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
    // design. Re-running it under another device budget or sharing
    // mode must find every node already cached: the combiner applies
    // both after the node reports are composed.
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
    dse::DseOptions dataflow = opt;
    dataflow.sharing = hls::SharingMode::Dataflow;
    for (const auto &variant : {smaller, dataflow}) {
        std::uint64_t misses0 = nodes.misses();
        std::uint64_t hits0 = nodes.hits();
        search(variant);
        EXPECT_EQ(nodes.misses(), misses0);
        EXPECT_GT(nodes.hits(), hits0);
        EXPECT_EQ(nodes.size(), entries);
    }
    nodes.clear();
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
