/**
 * @file
 * Tests for the pipeline result cache (src/pass/pipeline_cache.h):
 * entry codec round-trips and corruption detection, and the end-to-
 * end determinism contract -- printed IR, AST, emitted HLS-C, and DSE
 * journals must be byte-identical with the cache on, off, warm, and
 * at any worker count. The store and spill mechanics shared with the
 * other caches are covered by content_cache_test.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "dse/dse.h"
#include "dse/strategy.h"
#include "emit/hls_emitter.h"
#include "lower/lower.h"
#include "obs/journal.h"
#include "pass/pass_manager.h"
#include "pass/pipeline_cache.h"
#include "support/thread_pool.h"
#include "workloads/workloads.h"

using namespace pom;

namespace {

pass::PipelineCacheEntry
sampleEntry()
{
    pass::PipelineCacheEntry entry;
    entry.payload = "line one\nline two with trailing space \n\nend";
    entry.statistics = {{"stmts", 3}, {"ops removed", -7}, {"z", 0}};
    entry.seconds = 0.123456789012345;
    return entry;
}

/**
 * RAII guard: enables the process-wide pipeline cache on a cleared
 * global store, and restores the disabled default afterwards so the
 * other suites in this binary see pristine state.
 */
struct CacheOn
{
    CacheOn()
    {
        pass::PipelineCache::global().clear();
        pass::setPipelineCacheEnabled(true);
    }

    ~CacheOn()
    {
        pass::setPipelineCacheEnabled(false);
        pass::PipelineCache::global().clear();
    }
};

/** Restores the worker-count override on scope exit. */
struct JobsGuard
{
    explicit JobsGuard(int n) { support::setJobs(n); }
    ~JobsGuard() { support::setJobs(0); }
};

dse::DseResult
runDse(const std::string &name, std::int64_t size, int jobs,
       dse::StrategyKind strategy = dse::StrategyKind::Greedy)
{
    auto w = workloads::makeByName(name, size);
    dse::DseOptions opt;
    opt.jobs = jobs;
    opt.strategy = strategy;
    return dse::autoDSE(w->func(), opt);
}

} // namespace

// ---------------------------------------------------------------------------
// Entry codec

TEST(PipelineEntryCodec, RoundTripIsBitExact)
{
    const std::string key = "pom-pipeline-cache/1 test\npass verify\nkey "
                            "with\nnewlines and spaces  ";
    pass::PipelineCacheEntry entry = sampleEntry();

    std::string text = pass::encodePipelineCacheEntry(key, entry);

    std::string key2;
    pass::PipelineCacheEntry decoded;
    std::string error;
    ASSERT_TRUE(pass::decodePipelineCacheEntry(text, key2, decoded, error))
        << error;
    EXPECT_EQ(key2, key);
    EXPECT_EQ(decoded.payload, entry.payload);
    EXPECT_EQ(decoded.statistics, entry.statistics);
    // Hexfloat serialization must preserve every bit of the timing.
    EXPECT_EQ(decoded.seconds, entry.seconds);
}

TEST(PipelineEntryCodec, DetectsFlippedByte)
{
    std::string text =
        pass::encodePipelineCacheEntry("some-key", sampleEntry());
    // Flip one payload byte; the checksum line must catch it.
    std::size_t at = text.size() / 2;
    text[at] = (text[at] == '#') ? '!' : '#';

    std::string key;
    pass::PipelineCacheEntry decoded;
    std::string error;
    EXPECT_FALSE(
        pass::decodePipelineCacheEntry(text, key, decoded, error));
    EXPECT_NE(error.find("mismatch"), std::string::npos) << error;
}

TEST(PipelineEntryCodec, DetectsTruncation)
{
    std::string text =
        pass::encodePipelineCacheEntry("some-key", sampleEntry());
    std::string key;
    pass::PipelineCacheEntry decoded;
    std::string error;
    EXPECT_FALSE(pass::decodePipelineCacheEntry(
        text.substr(0, text.size() / 2), key, decoded, error));
    EXPECT_FALSE(error.empty());
}

TEST(PipelineEntryCodec, DetectsVersionMismatch)
{
    std::string text =
        pass::encodePipelineCacheEntry("some-key", sampleEntry());
    // Swap the version header and reseal so the checksum still passes:
    // the decoder must reject on the header itself, not the checksum.
    std::string body = text.substr(0, text.rfind("sum "));
    std::string stale = support::sealCacheEntry(
        "pom-pipeline-cache/1 0.0.0" + body.substr(body.find('\n')));
    std::string key;
    pass::PipelineCacheEntry decoded;
    std::string error;
    EXPECT_FALSE(
        pass::decodePipelineCacheEntry(stale, key, decoded, error));
    EXPECT_NE(error.find("version mismatch"), std::string::npos)
        << error;
}

// ---------------------------------------------------------------------------
// End-to-end determinism

TEST(PipelineCacheLowering, CachedRunsAreByteIdentical)
{
    // Reference artifacts with the cache off (the library default).
    auto w = workloads::makeByName("gemm", 64);
    lower::LoweredFunction off = lower::lower(w->func());
    const std::string ir_off = off.func->str();
    const std::string ast_off = off.astRoot->str();
    const std::string hls_off = emit::emitHlsC(*off.func);

    CacheOn guard;
    auto &cache = pass::PipelineCache::global();

    auto w_cold = workloads::makeByName("gemm", 64);
    lower::LoweredFunction cold = lower::lower(w_cold->func());
    EXPECT_GT(cache.misses(), 0u);
    EXPECT_EQ(cold.func->str(), ir_off);
    EXPECT_EQ(cold.astRoot->str(), ast_off);
    EXPECT_EQ(emit::emitHlsC(*cold.func), hls_off);

    // Second run replays the cacheable prefix; the property under test
    // is prefix-skip + re-run == full run, byte for byte.
    std::uint64_t hits0 = cache.hits();
    auto w_warm = workloads::makeByName("gemm", 64);
    lower::LoweredFunction warm = lower::lower(w_warm->func());
    EXPECT_GT(cache.hits(), hits0);
    EXPECT_EQ(warm.func->str(), ir_off);
    EXPECT_EQ(warm.astRoot->str(), ast_off);
    EXPECT_EQ(emit::emitHlsC(*warm.func), hls_off);
}

TEST(PipelineCacheLowering, ParallelLoweringMatchesSequential)
{
    std::string narrow, mid, wide;
    {
        JobsGuard jobs(1);
        auto w = workloads::makeByName("2mm", 64);
        narrow = lower::lower(w->func()).func->str();
    }
    {
        JobsGuard jobs(4);
        auto w = workloads::makeByName("2mm", 64);
        mid = lower::lower(w->func()).func->str();
    }
    {
        JobsGuard jobs(13);
        auto w = workloads::makeByName("2mm", 64);
        wide = lower::lower(w->func()).func->str();
    }
    EXPECT_EQ(narrow, mid);
    EXPECT_EQ(narrow, wide);
}

TEST(PipelineCacheDse, JournalIdenticalAcrossCacheAndJobs)
{
    const dse::StrategyKind strategies[] = {dse::StrategyKind::Greedy,
                                            dse::StrategyKind::Beam,
                                            dse::StrategyKind::Anneal};
    for (dse::StrategyKind strategy : strategies) {
        std::string reference =
            obs::journalJson(runDse("gemm", 64, 1, strategy).journal);
        for (int jobs : {1, 4, 13}) {
            CacheOn guard;
            // Cold pass populates the cache, warm pass replays it;
            // neither may perturb the search trajectory.
            std::string cold = obs::journalJson(
                runDse("gemm", 64, jobs, strategy).journal);
            std::string warm = obs::journalJson(
                runDse("gemm", 64, jobs, strategy).journal);
            EXPECT_EQ(cold, reference)
                << "cold, strategy " << dse::strategyName(strategy)
                << ", jobs " << jobs;
            EXPECT_EQ(warm, reference)
                << "warm, strategy " << dse::strategyName(strategy)
                << ", jobs " << jobs;
        }
    }
}

TEST(PipelineCacheDse, FinalDesignIsByteIdenticalWarm)
{
    dse::DseResult off = runDse("bicg", 64, 2);
    ASSERT_NE(off.design.func, nullptr);
    const std::string ir_off = off.design.func->str();
    const std::string hls_off = emit::emitHlsC(*off.design.func);

    CacheOn guard;
    dse::DseResult cold = runDse("bicg", 64, 2);
    dse::DseResult warm = runDse("bicg", 64, 2);
    ASSERT_NE(cold.design.func, nullptr);
    ASSERT_NE(warm.design.func, nullptr);
    EXPECT_EQ(cold.design.func->str(), ir_off);
    EXPECT_EQ(warm.design.func->str(), ir_off);
    EXPECT_EQ(emit::emitHlsC(*warm.design.func), hls_off);
    EXPECT_GT(pass::PipelineCache::global().hits(), 0u);
}

// ---------------------------------------------------------------------------
// Timing report

TEST(PipelineCacheTiming, ReportSeparatesCachedRuns)
{
    pass::resetGlobalTiming();
    pass::setGlobalTimingEnabled(true);
    {
        CacheOn guard;
        auto w = workloads::makeByName("gemm", 64);
        (void)lower::lower(w->func());
        auto w2 = workloads::makeByName("gemm", 64);
        (void)lower::lower(w2->func());
    }
    std::string report = pass::globalTimingReport();
    pass::setGlobalTimingEnabled(false);
    pass::resetGlobalTiming();

    EXPECT_NE(report.find("(cached)"), std::string::npos) << report;
}
