/**
 * @file
 * Tests for the observability layer (src/obs): span nesting and
 * ordering, thread-safe metric aggregation, well-formedness of the
 * Chrome-trace / metrics JSON exporters, and a golden file pinning the
 * DSE search-journal schema for GEMM.
 *
 * Regenerate the golden journal after an intentional schema change:
 *   POM_UPDATE_EXPECTED=1 ./obs_test --gtest_filter=ObsJournal.*
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "dse/dse.h"
#include "obs/journal.h"
#include "obs/obs.h"
#include "support/json.h"
#include "workloads/workloads.h"

#ifndef POM_GOLDEN_DIR
#define POM_GOLDEN_DIR "tests/golden"
#endif

namespace {

using namespace pom;

/**
 * Minimal recursive-descent JSON well-formedness checker, so exporter
 * tests need no external parser. Accepts exactly the JSON grammar
 * (objects, arrays, strings with escapes, numbers, true/false/null).
 */
class JsonChecker
{
  public:
    explicit JsonChecker(const std::string &text) : text_(text) {}

    bool
    valid()
    {
        pos_ = 0;
        return value() && (skipWs(), pos_ == text_.size());
    }

  private:
    bool
    value()
    {
        skipWs();
        if (pos_ >= text_.size())
            return false;
        switch (text_[pos_]) {
          case '{': return object();
          case '[': return array();
          case '"': return string();
          case 't': return literal("true");
          case 'f': return literal("false");
          case 'n': return literal("null");
          default: return number();
        }
    }

    bool
    object()
    {
        ++pos_; // '{'
        skipWs();
        if (consume('}'))
            return true;
        do {
            skipWs();
            if (!string())
                return false;
            skipWs();
            if (!consume(':') || !value())
                return false;
            skipWs();
        } while (consume(','));
        return consume('}');
    }

    bool
    array()
    {
        ++pos_; // '['
        skipWs();
        if (consume(']'))
            return true;
        do {
            if (!value())
                return false;
            skipWs();
        } while (consume(','));
        return consume(']');
    }

    bool
    string()
    {
        if (!consume('"'))
            return false;
        while (pos_ < text_.size()) {
            char c = text_[pos_++];
            if (c == '"')
                return true;
            if (static_cast<unsigned char>(c) < 0x20)
                return false; // raw control character
            if (c == '\\') {
                if (pos_ >= text_.size())
                    return false;
                char e = text_[pos_++];
                if (e == 'u') {
                    for (int i = 0; i < 4; ++i) {
                        if (pos_ >= text_.size() ||
                            !std::isxdigit(static_cast<unsigned char>(
                                text_[pos_++])))
                            return false;
                    }
                } else if (std::string("\"\\/bfnrt").find(e) ==
                           std::string::npos) {
                    return false;
                }
            }
        }
        return false;
    }

    bool
    number()
    {
        size_t start = pos_;
        consume('-');
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-'))
            ++pos_;
        return pos_ > start;
    }

    bool
    literal(const char *word)
    {
        size_t n = std::strlen(word);
        if (text_.compare(pos_, n, word) != 0)
            return false;
        pos_ += n;
        return true;
    }

    bool
    consume(char c)
    {
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    const std::string &text_;
    size_t pos_ = 0;
};

bool
jsonValid(const std::string &text)
{
    return JsonChecker(text).valid();
}

/** RAII guard that leaves the obs gates and stores clean. */
struct ObsSandbox
{
    ObsSandbox()
    {
        obs::setTracingEnabled(false);
        obs::setMetricsEnabled(false);
        obs::resetTrace();
        obs::resetMetrics();
    }
    ~ObsSandbox()
    {
        obs::setTracingEnabled(false);
        obs::setMetricsEnabled(false);
        obs::resetTrace();
        obs::resetMetrics();
    }
};

TEST(ObsSpan, DisabledByDefaultRecordsNothing)
{
    ObsSandbox sandbox;
    {
        obs::Span span("should-not-appear", "test");
        span.arg("k", std::int64_t(1));
    }
    EXPECT_TRUE(obs::traceSnapshot().empty());
}

TEST(ObsSpan, NestingAndOrdering)
{
    ObsSandbox sandbox;
    obs::setTracingEnabled(true);
    {
        obs::Span outer("outer", "test");
        {
            obs::Span inner("inner", "test");
            obs::Span sibling("sibling", "test");
        }
    }
    obs::setTracingEnabled(false);

    auto events = obs::traceSnapshot();
    ASSERT_EQ(events.size(), 3u);
    // Spans complete innermost-first.
    EXPECT_EQ(events[0].name, "sibling");
    EXPECT_EQ(events[1].name, "inner");
    EXPECT_EQ(events[2].name, "outer");
    EXPECT_EQ(events[2].depth, 0);
    EXPECT_EQ(events[1].depth, 1);
    EXPECT_EQ(events[0].depth, 2);
    // All on the same thread, and each child starts no earlier and
    // ends no later than its parent.
    for (const auto &e : events) {
        EXPECT_EQ(e.threadId, events[0].threadId);
        EXPECT_GE(e.durationUs, 0.0);
    }
    EXPECT_GE(events[1].startUs, events[2].startUs);
    EXPECT_LE(events[1].startUs + events[1].durationUs,
              events[2].startUs + events[2].durationUs + 1e-6);
}

TEST(ObsSpan, ArgsAreRecorded)
{
    ObsSandbox sandbox;
    obs::setTracingEnabled(true);
    {
        obs::Span span("argful", "test");
        span.arg("text", std::string("hello"));
        span.arg("count", std::int64_t(42));
        span.arg("ratio", 0.5);
    }
    obs::setTracingEnabled(false);

    auto events = obs::traceSnapshot();
    ASSERT_EQ(events.size(), 1u);
    ASSERT_EQ(events[0].args.size(), 3u);
    EXPECT_EQ(events[0].args[0].first, "text");
    EXPECT_EQ(events[0].args[0].second, "\"hello\"");
    EXPECT_EQ(events[0].args[1].second, "42");
}

TEST(ObsMetrics, CounterAggregationAcrossThreads)
{
    ObsSandbox sandbox;
    obs::setMetricsEnabled(true);
    constexpr int kThreads = 8;
    constexpr int kIters = 5000;

    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([] {
            for (int i = 0; i < kIters; ++i) {
                obs::counterAdd("test.counter");
                obs::accumulate("test.acc", 0.5);
                obs::gaugeSet("test.gauge", 7.0);
            }
        });
    }
    for (auto &w : workers)
        w.join();

    EXPECT_EQ(obs::counterValue("test.counter"), kThreads * kIters);
    EXPECT_DOUBLE_EQ(obs::metricValue("test.acc"),
                     0.5 * kThreads * kIters);
    EXPECT_DOUBLE_EQ(obs::metricValue("test.gauge"), 7.0);
    // Missing metrics read as zero rather than spring into existence.
    EXPECT_EQ(obs::counterValue("test.missing"), 0);
    EXPECT_DOUBLE_EQ(obs::metricValue("test.missing"), 0.0);
}

TEST(ObsMetrics, SnapshotPreservesInsertionOrder)
{
    ObsSandbox sandbox;
    obs::counterAdd("z.first");
    obs::gaugeSet("a.second", 1.0);
    obs::accumulate("z.third", 2.0);

    auto snap = obs::metricsSnapshot();
    ASSERT_EQ(snap.size(), 3u);
    EXPECT_EQ(snap[0].first, "z.first");
    EXPECT_EQ(snap[1].first, "a.second");
    EXPECT_EQ(snap[2].first, "z.third");
}

TEST(ObsExport, ChromeTraceJsonIsWellFormed)
{
    ObsSandbox sandbox;
    obs::setTracingEnabled(true);
    {
        // Hostile names exercise the string escaper.
        obs::Span span("quote\" slash\\ newline\n tab\t", "cat\"egory");
        span.arg("key\"", std::string("va\\lue\x01"));
        obs::Span inner("inner", "test");
    }
    obs::setTracingEnabled(false);

    std::string json = obs::chromeTraceJson();
    EXPECT_TRUE(jsonValid(json)) << json;
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
}

TEST(ObsExport, MetricsJsonIsWellFormed)
{
    ObsSandbox sandbox;
    obs::counterAdd("runs\"quoted", 3);
    obs::accumulate("seconds", 0.125);
    obs::gaugeSet("gauge", -2.5e-3);

    std::string json = obs::metricsJson();
    EXPECT_TRUE(jsonValid(json)) << json;
    EXPECT_NE(json.find("\"pom-metrics/v1\""), std::string::npos);
    EXPECT_NE(json.find("\"counter\""), std::string::npos);
    EXPECT_NE(json.find("\"accumulator\""), std::string::npos);
    EXPECT_NE(json.find("\"gauge\""), std::string::npos);
    // Empty registry still exports a valid document.
    obs::resetMetrics();
    EXPECT_TRUE(jsonValid(obs::metricsJson()));
    EXPECT_TRUE(jsonValid(obs::chromeTraceJson()));
}

TEST(ObsJournal, GemmJournalMatchesGolden)
{
    // The journal deliberately has no wall-clock fields and the
    // estimator is deterministic integer arithmetic, so the GEMM
    // journal is bit-reproducible and pins the v1 schema exactly.
    auto w = workloads::makeGemm(256);
    dse::DseResult res = dse::autoDSE(w->func(), dse::DseOptions());
    std::string json = obs::journalJson(res.journal);
    ASSERT_TRUE(jsonValid(json));

    const std::string path =
        std::string(POM_GOLDEN_DIR) + "/gemm_dse_journal.json";
    if (std::getenv("POM_UPDATE_EXPECTED") != nullptr) {
        std::ofstream out(path);
        ASSERT_TRUE(out.good()) << "cannot write " << path;
        out << json;
        GTEST_SKIP() << "updated " << path;
    }

    std::ifstream in(path);
    ASSERT_TRUE(in.good())
        << "missing golden file " << path
        << " (regenerate with POM_UPDATE_EXPECTED=1)";
    std::ostringstream buffer;
    buffer << in.rdbuf();
    EXPECT_EQ(json, buffer.str())
        << "DSE journal for GEMM changed. If the schema or search "
           "behaviour changed intentionally, regenerate with "
           "POM_UPDATE_EXPECTED=1.";
}

TEST(ObsHistogram, PercentileEdgeCases)
{
    // Empty: every statistic is 0.
    obs::Histogram h;
    obs::HistogramSummary s = h.summary();
    EXPECT_EQ(s.count, 0u);
    EXPECT_EQ(s.p50, 0.0);
    EXPECT_EQ(s.p99, 0.0);
    EXPECT_EQ(h.percentile(0.5), 0.0);

    // Single sample: the percentile midpoint clamps to [min, max], so
    // every quantile reports the exact value.
    h.record(3.25);
    s = h.summary();
    EXPECT_EQ(s.count, 1u);
    EXPECT_EQ(s.min, 3.25);
    EXPECT_EQ(s.max, 3.25);
    EXPECT_EQ(s.p50, 3.25);
    EXPECT_EQ(s.p90, 3.25);
    EXPECT_EQ(s.p99, 3.25);
    EXPECT_EQ(s.mean(), 3.25);

    // All samples in one bucket: same clamping argument.
    obs::Histogram one;
    for (int i = 0; i < 1000; ++i)
        one.record(7.0);
    s = one.summary();
    EXPECT_EQ(s.count, 1000u);
    EXPECT_EQ(s.p50, 7.0);
    EXPECT_EQ(s.p99, 7.0);

    // Non-positive and huge values land in under/overflow buckets
    // without disturbing count or min/max bookkeeping.
    obs::Histogram odd;
    odd.record(0.0);
    odd.record(-5.0);
    odd.record(1e300);
    EXPECT_EQ(odd.count(), 3u);
    s = odd.summary();
    EXPECT_EQ(s.min, -5.0);
    EXPECT_EQ(s.max, 1e300);

    // Two well-separated samples: p50 stays within [min, max] and the
    // high quantile leans toward the larger sample's bucket.
    obs::Histogram two;
    two.record(1.0);
    two.record(1024.0);
    s = two.summary();
    EXPECT_GE(s.p50, s.min);
    EXPECT_LE(s.p50, s.max);
    EXPECT_GT(s.p99, 512.0);
    EXPECT_LE(s.p99, 1024.0);
}

TEST(ObsHistogram, ConcurrentRecordStress)
{
    const int threads = 8, per_thread = 5000;
    obs::Histogram h;
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) {
        workers.emplace_back([&h, t] {
            for (int i = 0; i < per_thread; ++i)
                h.record(static_cast<double>(t * per_thread + i + 1));
        });
    }
    for (auto &w : workers)
        w.join();
    obs::HistogramSummary s = h.summary();
    EXPECT_EQ(s.count, static_cast<std::uint64_t>(threads * per_thread));
    EXPECT_EQ(s.min, 1.0);
    EXPECT_EQ(s.max, static_cast<double>(threads * per_thread));
    // Bucket totals must equal the sample count -- no lost updates.
    std::uint64_t total = 0;
    for (const auto &[index, n] : h.nonzeroBuckets())
        total += n;
    EXPECT_EQ(total, s.count);
}

TEST(ObsHistogram, JsonRoundTrip)
{
    obs::Histogram h;
    for (int i = 0; i < 500; ++i)
        h.record(0.5 * (i % 97) + 0.25);
    std::string json = h.json();
    EXPECT_TRUE(jsonValid(json)) << json;

    // Every exported field reads back exactly (%.17g doubles).
    support::JsonValue doc;
    std::string error;
    ASSERT_TRUE(support::parseJson(json, doc, error)) << error;
    ASSERT_TRUE(doc.isObject());
    obs::HistogramSummary s = h.summary();
    auto field = [&doc](const char *key) {
        const support::JsonValue *v = doc.find(key);
        EXPECT_NE(v, nullptr) << key;
        if (v == nullptr)
            return -1.0;
        // %.17g spells an integral double without a fraction.
        return v->kind == support::JsonValue::Kind::Int
                   ? static_cast<double>(v->integer)
                   : v->number;
    };
    ASSERT_NE(doc.find("count"), nullptr);
    EXPECT_EQ(doc.find("count")->exactInt(),
              static_cast<std::int64_t>(s.count));
    EXPECT_EQ(field("min"), s.min);
    EXPECT_EQ(field("max"), s.max);
    EXPECT_EQ(field("sum"), s.sum);
    EXPECT_EQ(field("p50"), s.p50);
    EXPECT_EQ(field("p90"), s.p90);
    EXPECT_EQ(field("p99"), s.p99);

    // The sparse bucket list is nonzeroBuckets(), and sums to count.
    const support::JsonValue *buckets = doc.find("buckets");
    ASSERT_NE(buckets, nullptr);
    std::vector<std::pair<int, std::uint64_t>> read;
    std::uint64_t total = 0;
    for (const auto &pair : buckets->items) {
        ASSERT_EQ(pair.items.size(), 2u);
        ASSERT_EQ(pair.items[0].kind, support::JsonValue::Kind::Int);
        ASSERT_EQ(pair.items[1].kind, support::JsonValue::Kind::Int);
        read.emplace_back(static_cast<int>(pair.items[0].integer),
                          static_cast<std::uint64_t>(pair.items[1].integer));
        total += read.back().second;
    }
    EXPECT_EQ(read, h.nonzeroBuckets());
    EXPECT_EQ(total, s.count);
}

TEST(ObsHistogram, NamedHistogramsExportAndReset)
{
    obs::setMetricsEnabled(true);
    obs::resetMetrics();
    obs::resetHistograms();
    obs::histogramRecord("test.latency_ms", 2.0);
    obs::histogramRecord("test.latency_ms", 8.0);
    obs::histogramRecord("other.size", 100.0);

    obs::HistogramSummary s =
        obs::histogramSnapshot("test.latency_ms").summary();
    EXPECT_EQ(s.count, 2u);
    EXPECT_EQ(s.min, 2.0);
    EXPECT_EQ(s.max, 8.0);

    // metricsJson keeps the pom-metrics/v1 schema and carries the
    // histograms as an additive "histogram" kind.
    std::string json = obs::metricsJson();
    EXPECT_TRUE(jsonValid(json)) << json;
    EXPECT_NE(json.find("\"kind\": \"histogram\""), std::string::npos);
    EXPECT_NE(json.find("\"test.latency_ms\""), std::string::npos);

    obs::resetHistograms();
    EXPECT_EQ(obs::histogramSnapshot("test.latency_ms").count(), 0u);
    EXPECT_EQ(obs::histogramSnapshot("other.size").count(), 0u);
    obs::resetMetrics();
    obs::setMetricsEnabled(false);
}

} // namespace
