/**
 * @file
 * Tests for the estimator cache's disk persistence: bit-exact entry
 * encode/decode (hexfloat doubles, optional IIs), version-stamp
 * rejection, checksum-based corruption detection, concurrent stores
 * during a spill, and a real DSE run that warm-starts from disk. The
 * container mechanics shared by every cache (directory round trip,
 * skip-and-warn, index merging) are covered by content_cache_test.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <thread>
#include <vector>

#include "baselines/baselines.h"
#include "hls/estimator_cache.h"
#include "support/version.h"
#include "workloads/workloads.h"

namespace {

using namespace pom;
namespace fs = std::filesystem;

/** A fresh per-test scratch directory under the gtest temp root. */
std::string
scratchDir(const std::string &name)
{
    std::string dir = ::testing::TempDir() + "pom_persist_" + name;
    fs::remove_all(dir);
    return dir;
}

hls::SynthesisReport
sampleReport()
{
    hls::SynthesisReport r;
    r.latencyCycles = 918274;
    r.resources.dsp = 160;
    r.resources.lut = 12068;
    r.resources.ff = 25890;
    r.resources.bramBits = 1 << 20;
    r.powerW = 0.51492123456789; // exercises the hexfloat round-trip
    hls::LoopReport with_target;
    with_target.iterName = "i0";
    with_target.trip = 256;
    with_target.targetII = 2;
    with_target.achievedII = 2;
    with_target.latency = 520;
    with_target.recMII = 2;
    with_target.resMII = 1;
    hls::LoopReport no_target;
    no_target.iterName = "j \"quoted\" x"; // names are length-prefixed
    no_target.trip = 64;
    r.loops = {with_target, no_target};
    r.nestLatencies = {{"S0", 1234}, {"S1", 99}};
    return r;
}

void
expectReportsEqual(const hls::SynthesisReport &a,
                   const hls::SynthesisReport &b)
{
    EXPECT_EQ(a.latencyCycles, b.latencyCycles);
    EXPECT_EQ(a.resources.dsp, b.resources.dsp);
    EXPECT_EQ(a.resources.lut, b.resources.lut);
    EXPECT_EQ(a.resources.ff, b.resources.ff);
    EXPECT_EQ(a.resources.bramBits, b.resources.bramBits);
    EXPECT_EQ(a.powerW, b.powerW); // bit-exact, not approximate
    ASSERT_EQ(a.loops.size(), b.loops.size());
    for (size_t i = 0; i < a.loops.size(); ++i) {
        EXPECT_EQ(a.loops[i].iterName, b.loops[i].iterName);
        EXPECT_EQ(a.loops[i].trip, b.loops[i].trip);
        EXPECT_EQ(a.loops[i].targetII, b.loops[i].targetII);
        EXPECT_EQ(a.loops[i].achievedII, b.loops[i].achievedII);
        EXPECT_EQ(a.loops[i].latency, b.loops[i].latency);
        EXPECT_EQ(a.loops[i].recMII, b.loops[i].recMII);
        EXPECT_EQ(a.loops[i].resMII, b.loops[i].resMII);
    }
    EXPECT_EQ(a.nestLatencies, b.nestLatencies);
}

TEST(CacheEntry, EncodeDecodeRoundTripIsExact)
{
    const std::string key = "fingerprint with\nnewlines and spaces";
    auto report = sampleReport();
    std::string text = hls::encodeCacheEntry(key, report);

    std::string decoded_key, error;
    hls::SynthesisReport decoded;
    ASSERT_TRUE(hls::decodeCacheEntry(text, decoded_key, decoded, error))
        << error;
    EXPECT_EQ(decoded_key, key);
    expectReportsEqual(report, decoded);
}

TEST(CacheEntry, HashIsStableAndKeyDependent)
{
    EXPECT_EQ(hls::cacheEntryHash("k"), hls::cacheEntryHash("k"));
    EXPECT_NE(hls::cacheEntryHash("k"), hls::cacheEntryHash("K"));
    EXPECT_EQ(hls::cacheEntryHash("k").size(), 16u);
}

TEST(CacheEntry, VersionMismatchIsCleanError)
{
    std::string text = hls::encodeCacheEntry("key", sampleReport());
    // A future-version entry: rewrite the stamp and its checksum would
    // no longer match, so corrupt the header the way an old/new POM
    // would really produce it -- re-encode with a doctored first line.
    auto nl = text.find('\n');
    ASSERT_NE(nl, std::string::npos);
    std::string doctored =
        std::string(support::kCacheFormatName) + " 99.0.0" +
        text.substr(nl);

    std::string key, error;
    hls::SynthesisReport report;
    EXPECT_FALSE(hls::decodeCacheEntry(doctored, key, report, error));
    EXPECT_NE(error.find("mismatch"), std::string::npos) << error;
}

TEST(CacheEntry, CorruptByteFailsChecksum)
{
    std::string text = hls::encodeCacheEntry("key", sampleReport());
    text[text.size() / 2] ^= 0x20;

    std::string key, error;
    hls::SynthesisReport report;
    EXPECT_FALSE(hls::decodeCacheEntry(text, key, report, error));
    EXPECT_FALSE(error.empty());
}

TEST(CachePersist, ConcurrentStoreAndSpillIsSafe)
{
    // Writers insert while a saver snapshots and spills: exercises
    // snapshot()'s locking under TSan/ASan.
    std::string dir = scratchDir("stress");
    hls::EstimatorCache cache;
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&cache, t]() {
            for (int i = 0; i < 50; ++i) {
                cache.store("key-" + std::to_string(t) + "-" +
                                std::to_string(i),
                            sampleReport());
            }
        });
    }
    for (int round = 0; round < 5; ++round) {
        support::CacheSpillStats stats;
        std::string error;
        ASSERT_TRUE(cache.saveDir(dir, stats, error)) << error;
    }
    for (auto &t : threads)
        t.join();
    support::CacheSpillStats stats;
    std::string error;
    ASSERT_TRUE(cache.saveDir(dir, stats, error)) << error;

    hls::EstimatorCache reader;
    support::CacheSpillStats load_stats;
    ASSERT_TRUE(reader.loadDir(dir, load_stats, error)) << error;
    EXPECT_EQ(load_stats.loaded, 200u);
}

TEST(CachePersist, RealDseWarmStartsFromDisk)
{
    std::string dir = scratchDir("dse");
    auto &cache = hls::EstimatorCache::global();
    cache.clear();

    auto cold = workloads::makeByName("gemm", 64);
    baselines::BaselineOptions opt;
    auto cold_result = baselines::runPom(cold->func(), opt);

    support::CacheSpillStats save_stats;
    std::string error;
    ASSERT_TRUE(cache.saveDir(dir, save_stats, error)) << error;
    EXPECT_GT(save_stats.written, 0u);

    // Simulate a fresh process: drop the in-memory cache, reload the
    // spill, and re-run the identical search.
    cache.clear();
    support::CacheSpillStats load_stats;
    ASSERT_TRUE(cache.loadDir(dir, load_stats, error)) << error;
    EXPECT_EQ(load_stats.loaded, save_stats.written);

    auto warm = workloads::makeByName("gemm", 64);
    auto warm_result = baselines::runPom(warm->func(), opt);
    EXPECT_GT(cache.hits(), 0u);
    EXPECT_EQ(cache.misses(), 0u);

    // The warm run lands on the same design.
    EXPECT_EQ(cold_result.report.latencyCycles,
              warm_result.report.latencyCycles);
    EXPECT_EQ(cold_result.report.resources.dsp,
              warm_result.report.resources.dsp);
    cache.clear();
}

} // namespace
