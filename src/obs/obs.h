/**
 * @file
 * POM's tracing and metrics subsystem. Everything the compiler wants to
 * observe about itself flows through this module:
 *
 *  - **Spans**: RAII scoped timers with per-thread nesting. A completed
 *    span becomes one Chrome trace-event ("X" phase) that nests under
 *    its enclosing span in chrome://tracing / Perfetto.
 *  - **Counters / accumulators / gauges**: named process-wide metrics.
 *    Counters are monotonically-increasing int64 values, accumulators
 *    sum doubles (wall-clock seconds), gauges keep the last value set.
 *  - **Histograms** (histogram.h): named fixed-bucket log-scale latency
 *    distributions with p50/p90/p99 extraction, serialized into the
 *    same metrics JSON (kind "histogram").
 *  - **Exporters**: the Chrome trace-event JSON format for spans and a
 *    flat machine-readable JSON report for metrics. They and the DSE
 *    search journal (journal.h) quote strings with support::jsonQuote.
 *
 * Tracing and metrics are disabled by default; both gates are single
 * atomic loads, so instrumented code paths cost nothing measurable when
 * observation is off. All recording is thread-safe: a DSE sweep or the
 * test suite may feed the registry from many threads concurrently.
 */

#ifndef POM_OBS_OBS_H
#define POM_OBS_OBS_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/histogram.h"

namespace pom::obs {

// ----- enablement --------------------------------------------------------

/** Turn span recording on/off (off by default). */
void setTracingEnabled(bool enabled);
bool tracingEnabled();

/** Turn metric-driven instrumentation sites on/off (off by default). */
void setMetricsEnabled(bool enabled);
bool metricsEnabled();

/** Microseconds since the process-wide trace epoch (steady clock). */
double nowMicros();

// ----- spans -------------------------------------------------------------

/** One completed span (an "X" event in the Chrome trace format). */
struct SpanEvent
{
    std::string name;
    std::string category;
    double startUs = 0.0;
    double durationUs = 0.0;
    int threadId = 0; ///< small per-process thread index, 0 = first seen
    int depth = 0;    ///< nesting depth within the owning thread
    /** Correlated daemon request (support::currentRequestId() at span
     *  construction); 0 outside a request. Exported as arg "req". */
    std::int64_t requestId = 0;
    /** Extra key/value payload; values are pre-encoded JSON terms. */
    std::vector<std::pair<std::string, std::string>> args;
};

/**
 * RAII scoped span. Construction samples the clock and bumps the
 * calling thread's nesting depth; destruction records one SpanEvent.
 * When tracing is disabled at construction time the span is inert.
 */
class Span
{
  public:
    explicit Span(std::string name, std::string category = "pom");
    ~Span();
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** Attach an argument shown under the span in the trace viewer. */
    void arg(const std::string &key, const std::string &value);
    void arg(const std::string &key, std::int64_t value);
    void arg(const std::string &key, double value);

  private:
    bool active_ = false;
    SpanEvent event_;
};

/** Completed spans, in completion order. */
std::vector<SpanEvent> traceSnapshot();

/** Drop all recorded spans. */
void resetTrace();

// ----- counters, accumulators and gauges ---------------------------------

/** Snapshot value of one named metric. */
struct Metric
{
    enum class Kind { Counter, Accumulator, Gauge };
    Kind kind = Kind::Counter;
    std::int64_t count = 0; ///< counter value / number of samples
    double value = 0.0;     ///< accumulator sum / last gauge value
};

/** Add @p delta to an int64 counter (creates it at zero). */
void counterAdd(const std::string &name, std::int64_t delta = 1);

/** Add @p delta to a double accumulator (creates it at zero). */
void accumulate(const std::string &name, double delta);

/** Set a gauge to its latest observation. */
void gaugeSet(const std::string &name, double value);

/** Current counter value; 0 when the counter does not exist. */
std::int64_t counterValue(const std::string &name);

/** Accumulator sum / gauge value; 0.0 when the metric does not exist. */
double metricValue(const std::string &name);

/** All metrics in first-touch (insertion) order. */
std::vector<std::pair<std::string, Metric>> metricsSnapshot();

/** Drop every metric. */
void resetMetrics();

// ----- histograms --------------------------------------------------------

/**
 * Record one sample into the named process-wide histogram (created on
 * first touch). Unlike counters, histogram sites are expected to gate
 * themselves on metricsEnabled() when they sit on a hot path.
 */
void histogramRecord(const std::string &name, double value);

/** Snapshot of one named histogram; empty histogram when unknown. */
Histogram histogramSnapshot(const std::string &name);

/** All named histograms in first-touch order (copied snapshots). */
std::vector<std::pair<std::string, Histogram>> histogramsSnapshot();

/** Drop every named histogram. */
void resetHistograms();

// ----- export ------------------------------------------------------------

/**
 * All recorded spans in the Chrome trace-event format, loadable by
 * chrome://tracing and https://ui.perfetto.dev.
 */
std::string chromeTraceJson();

/** All metrics as one flat machine-readable JSON report. */
std::string metricsJson();

/** Write @p content to @p path; false (not fatal) on I/O failure. */
bool writeFile(const std::string &path, const std::string &content);

} // namespace pom::obs

#endif // POM_OBS_OBS_H
