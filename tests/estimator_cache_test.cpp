/**
 * @file
 * Tests for the estimator memoization layer: fingerprint canonicality
 * (same design -> same key, any observable difference -> different
 * key) and a concurrent first-writer-wins stress case for the
 * sanitizer CI job. Hit/miss accounting is covered for every cache by
 * content_cache_test.
 */

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "hls/estimator_cache.h"
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

TEST(Fingerprint, DeterministicAcrossExtractions)
{
    auto a = gemmStmts(64);
    auto b = gemmStmts(64);
    EXPECT_EQ(hls::scheduleFingerprint(a), hls::scheduleFingerprint(b));
    hls::EstimatorOptions opt;
    EXPECT_EQ(hls::designFingerprint("f", a, {}, opt),
              hls::designFingerprint("f", b, {}, opt));
}

TEST(Fingerprint, SensitiveToEveryObservableInput)
{
    auto base = gemmStmts(64);
    hls::EstimatorOptions opt;
    std::string ref = hls::designFingerprint("f", base, {}, opt);

    // Problem size changes the iteration domains.
    EXPECT_NE(hls::designFingerprint("f", gemmStmts(32), {}, opt), ref);

    // A schedule transformation changes the schedule part.
    auto piped = gemmStmts(64);
    transform::setPipeline(piped[0],
                           piped[0].sched.domain.dimName(
                               piped[0].numDims() - 1),
                           1);
    EXPECT_NE(hls::designFingerprint("f", piped, {}, opt), ref);

    // The partition plan is part of the key.
    hls::PartitionPlan plan;
    plan["C"] = {1, 4};
    EXPECT_NE(hls::designFingerprint("f", base, plan, opt), ref);

    // ... but an all-ones plan equals an absent one only if the caller
    // says so; the fingerprint is strictly textual, so it differs.
    hls::PartitionPlan ones;
    ones["C"] = {1, 1};
    EXPECT_NE(hls::designFingerprint("f", base, ones, opt), ref);

    // Device and sharing mode matter to the estimate, so to the key.
    hls::EstimatorOptions small = opt;
    small.device = small.device.scaled(0.5);
    EXPECT_NE(hls::designFingerprint("f", base, {}, small), ref);
    hls::EstimatorOptions dataflow = opt;
    dataflow.sharing = hls::SharingMode::Dataflow;
    EXPECT_NE(hls::designFingerprint("f", base, {}, dataflow), ref);

    // The function digest distinguishes different programs.
    EXPECT_NE(hls::designFingerprint("g", base, {}, opt), ref);
}

TEST(EstimatorCache, ConcurrentStress)
{
    hls::EstimatorCache cache;
    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t) {
        threads.emplace_back([&cache, t]() {
            for (int i = 0; i < 500; ++i) {
                std::string key = "key" + std::to_string(i % 37);
                if (auto hit = cache.lookup(key)) {
                    // A hit must carry the first writer's value.
                    EXPECT_EQ(hit->latencyCycles,
                              static_cast<std::uint64_t>(i % 37));
                } else {
                    hls::SynthesisReport r;
                    r.latencyCycles =
                        static_cast<std::uint64_t>(i % 37);
                    cache.store(key, r);
                }
            }
            (void)t;
        });
    }
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(cache.size(), 37u);
    EXPECT_EQ(cache.hits() + cache.misses(), 8u * 500u);
}

} // namespace
