/**
 * @file
 * Tests for the node cache's disk persistence: exact entry
 * encode/decode, version-stamp rejection, checksum-based corruption
 * detection, concurrent stores during a spill, and a real DSE run that
 * warm-starts from disk. The container mechanics (directory round
 * trip, skip-and-warn, index merging) are covered by
 * content_cache_test.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "baselines/baselines.h"
#include "hls/node_cache.h"
#include "mutation.h"
#include "obs/obs.h"
#include "support/diagnostics.h"
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

std::vector<hls::NodeReport>
sampleNodes()
{
    hls::NodeReport n;
    n.nest = "S0 \"quoted\" x"; // names are length-prefixed
    n.latencyCycles = 918274;
    n.resources.dsp = 160;
    n.resources.lut = 12068;
    n.resources.ff = 25890;
    n.resources.bramBits = 1 << 20;
    hls::LoopReport with_target;
    with_target.iterName = "i0";
    with_target.trip = 256;
    with_target.targetII = 2;
    with_target.achievedII = 2;
    with_target.latency = 520;
    with_target.recMII = 2;
    with_target.resMII = 1;
    hls::LoopReport no_target;
    no_target.iterName = "j:k";
    no_target.trip = 64;
    n.loops = {with_target, no_target};
    hls::NodeReport empty;
    empty.nest = "S1";
    empty.latencyCycles = 99;
    return {n, empty};
}

/** @p body (an entry up to its checksum line) sealed with a valid sum. */
std::string
reseal(const std::string &body)
{
    return body + "sum " +
           support::hex16(support::fnv1a64(body.data(), body.size())) + "\n";
}

/**
 * @p entry with the first value of @p key replaced by @p value and the
 * checksum recomputed: damage only the record reader can see.
 */
std::string
withField(const std::string &entry, const std::string &key,
          const std::string &value)
{
    std::string body = entry.substr(0, entry.rfind("sum "));
    const std::string at = "\"" + key + "\": ";
    std::size_t start = body.find(at);
    EXPECT_NE(start, std::string::npos) << key;
    start += at.size();
    std::size_t end = body.find_first_of(",}", start);
    return reseal(body.replace(start, end - start, value));
}

TEST(CacheEntry, EncodeDecodeRoundTripIsExact)
{
    const std::string key = "fingerprint with\nnewlines and spaces";
    auto nodes = sampleNodes();
    std::string text = hls::encodeNodeCacheEntry(key, nodes);

    std::string decoded_key, error;
    std::vector<hls::NodeReport> decoded;
    ASSERT_TRUE(hls::decodeNodeCacheEntry(text, decoded_key, decoded,
                                          error))
        << error;
    EXPECT_EQ(decoded_key, key);
    ASSERT_EQ(decoded.size(), nodes.size());
    ASSERT_EQ(decoded[0].loops.size(), 2u);
    EXPECT_EQ(decoded[0].loops[0].targetII, 2);
    EXPECT_FALSE(decoded[0].loops[1].targetII.has_value());
    // Every field survives: re-encoding gives the same bytes.
    EXPECT_EQ(hls::encodeNodeCacheEntry(decoded_key, decoded), text);
}

TEST(CacheEntry, HashIsStableAndKeyDependent)
{
    EXPECT_EQ(support::cacheContentHash("k"),
              support::cacheContentHash("k"));
    EXPECT_NE(support::cacheContentHash("k"),
              support::cacheContentHash("K"));
    EXPECT_TRUE(support::isContentHash(support::cacheContentHash("k")));
    EXPECT_FALSE(support::isContentHash("../0123456789abc"));
    EXPECT_FALSE(support::isContentHash("0123456789ABCDEF"));
}

TEST(CacheEntry, VersionMismatchIsCleanError)
{
    std::string text = hls::encodeNodeCacheEntry("key", sampleNodes());
    // A future-version entry: the header an old/new POM would really
    // write, with the rest of the entry unchanged.
    auto nl = text.find('\n');
    ASSERT_NE(nl, std::string::npos);
    std::string doctored =
        std::string(support::kNodeCacheFormatName) + " 99.0.0" +
        text.substr(nl);

    std::string key, error;
    std::vector<hls::NodeReport> nodes;
    EXPECT_FALSE(hls::decodeNodeCacheEntry(doctored, key, nodes, error));
    EXPECT_NE(error.find("mismatch"), std::string::npos) << error;
}

TEST(CacheEntry, CorruptByteFailsChecksum)
{
    std::string text = hls::encodeNodeCacheEntry("key", sampleNodes());
    text[text.size() / 2] ^= 0x20;

    std::string key, error;
    std::vector<hls::NodeReport> nodes;
    EXPECT_FALSE(hls::decodeNodeCacheEntry(text, key, nodes, error));
    EXPECT_FALSE(error.empty());
}

TEST(CacheEntry, OutOfRangeFieldsAreErrorsThatNameThem)
{
    // Under a valid checksum these used to load as 2^64 - 5 cycles and
    // as a DSP count wrapped to 10.
    const std::string text = hls::encodeNodeCacheEntry("key", sampleNodes());
    const std::pair<const char *, const char *> fields[] = {
        {"latency_cycles", "-5"}, {"dsp", "4294967306"},
        {"target_ii", "\"2\""}, {"trip", "2.5"},
        {"key", "7"},
    };
    for (const auto &[key, value] : fields) {
        std::string decoded_key, error;
        std::vector<hls::NodeReport> nodes;
        EXPECT_FALSE(hls::decodeNodeCacheEntry(withField(text, key, value),
                                               decoded_key, nodes, error))
            << key;
        EXPECT_NE(error.find(std::string("'") + key + "'"),
                  std::string::npos)
            << key << ": " << error;
    }
}

TEST(CacheEntry, SurvivesSeededMutations)
{
    // A spill is read from disk: an edited entry, resealed so the
    // checksum passes, must decode to an error or to reports that
    // re-encode to a fixed point.
    const std::string text = hls::encodeNodeCacheEntry("key", sampleNodes());
    const std::string body = text.substr(0, text.rfind("sum "));
    support::SplitMix64 rng(11);
    int decoded = 0;
    for (int edit = 0; edit < 2000; ++edit) {
        const std::string mutant =
            reseal(mutation::mutateOnce(body, rng));
        std::string key, error;
        std::vector<hls::NodeReport> nodes;
        if (!hls::decodeNodeCacheEntry(mutant, key, nodes, error))
            continue;
        ++decoded;
        const std::string once = hls::encodeNodeCacheEntry(key, nodes);
        ASSERT_TRUE(hls::decodeNodeCacheEntry(once, key, nodes, error))
            << "edit " << edit << ": " << error;
        ASSERT_EQ(hls::encodeNodeCacheEntry(key, nodes), once)
            << "edit " << edit;
    }
    // The stream reaches the record reader, not just the stamp check.
    EXPECT_GT(decoded, 100);
}

TEST(CachePersist, ConcurrentStoreAndSpillIsSafe)
{
    // Writers insert while a saver snapshots and spills: exercises
    // snapshot()'s locking under TSan/ASan.
    std::string dir = scratchDir("stress");
    hls::NodeReportCache cache;
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&cache, t]() {
            for (int i = 0; i < 50; ++i) {
                cache.store("key-" + std::to_string(t) + "-" +
                                std::to_string(i),
                            sampleNodes());
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

    hls::NodeReportCache reader;
    support::CacheSpillStats load_stats;
    ASSERT_TRUE(reader.loadDir(dir, load_stats, error)) << error;
    EXPECT_EQ(load_stats.loaded, 200u);
}

TEST(CachePersist, RealDseWarmStartsFromDisk)
{
    std::string dir = scratchDir("dse");
    auto &cache = hls::NodeReportCache::global();
    cache.clear();

    auto cold = workloads::makeByName("gemm", 64);
    auto cold_result = baselines::runPom(cold->func());

    support::CacheSpillStats save_stats;
    std::string error;
    ASSERT_TRUE(cache.saveDir(dir, save_stats, error)) << error;
    EXPECT_GT(save_stats.written, 0u);
    EXPECT_TRUE(fs::exists(dir + "/nodes.index"));

    // Simulate a fresh process: drop the in-memory cache, reload the
    // spill, and re-run the identical search.
    cache.clear();
    support::CacheSpillStats load_stats;
    ASSERT_TRUE(cache.loadDir(dir, load_stats, error)) << error;
    EXPECT_EQ(load_stats.loaded, save_stats.written);

    std::int64_t hits0 = obs::counterValue("dse.cache.hits");
    std::int64_t misses0 = obs::counterValue("dse.cache.misses");
    auto warm = workloads::makeByName("gemm", 64);
    auto warm_result = baselines::runPom(warm->func());
    // Every node comes from disk, so every point is a hit.
    EXPECT_GT(cache.hits(), 0u);
    EXPECT_EQ(cache.misses(), 0u);
    EXPECT_GT(obs::counterValue("dse.cache.hits"), hits0);
    EXPECT_EQ(obs::counterValue("dse.cache.misses"), misses0);

    // The warm run lands on the same design.
    EXPECT_EQ(cold_result.report.latencyCycles,
              warm_result.report.latencyCycles);
    EXPECT_EQ(cold_result.report.resources.dsp,
              warm_result.report.resources.dsp);
    cache.clear();
}

TEST(CachePersist, OutOfRangeEntriesAreSkippedAndWarmMatchesCold)
{
    std::string dir = scratchDir("range");
    auto &cache = hls::NodeReportCache::global();
    cache.clear();
    auto cold = workloads::makeByName("gemm", 32);
    auto cold_result = baselines::runPom(cold->func());
    support::CacheSpillStats save_stats;
    std::string error;
    ASSERT_TRUE(cache.saveDir(dir, save_stats, error)) << error;
    ASSERT_GE(save_stats.written, 2u);

    // Two entries whose checksums pass but whose values do not fit.
    std::vector<fs::path> objects;
    for (const auto &f : fs::directory_iterator(dir + "/nodes"))
        objects.push_back(f.path());
    std::sort(objects.begin(), objects.end());
    const std::pair<const char *, const char *> damage[] = {
        {"latency_cycles", "-5"}, {"dsp", "4294967306"}};
    for (size_t i = 0; i < 2; ++i) {
        std::ifstream in(objects[i], std::ios::binary);
        std::ostringstream text;
        text << in.rdbuf();
        in.close();
        std::ofstream out(objects[i], std::ios::binary | std::ios::trunc);
        out << withField(text.str(), damage[i].first, damage[i].second);
    }

    cache.clear();
    std::ostringstream warnings;
    support::setDiagStream(&warnings);
    support::CacheSpillStats load_stats;
    bool ok = cache.loadDir(dir, load_stats, error);
    support::setDiagStream(nullptr);
    ASSERT_TRUE(ok) << error;
    EXPECT_EQ(load_stats.skipped, 2u);
    EXPECT_EQ(load_stats.loaded, save_stats.written - 2);
    for (const char *key : {"'latency_cycles'", "'dsp'"}) {
        EXPECT_NE(warnings.str().find(key), std::string::npos)
            << key << " not warned about:\n" << warnings.str();
    }

    auto warm = workloads::makeByName("gemm", 32);
    auto warm_result = baselines::runPom(warm->func());
    const auto device = hls::Device::xc7z020();
    EXPECT_EQ(warm_result.report.str(device),
              cold_result.report.str(device));
    cache.clear();
    fs::remove_all(dir);
}

} // namespace
