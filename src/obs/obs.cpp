#include "obs/obs.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#if defined(__linux__)
#include <pthread.h>
#endif

#include "support/diagnostics.h"
#include "support/json.h"

namespace pom::obs {

namespace {

std::atomic<bool> g_tracing{false};
std::atomic<bool> g_metrics{false};

std::chrono::steady_clock::time_point
epoch()
{
    static const std::chrono::steady_clock::time_point t0 =
        std::chrono::steady_clock::now();
    return t0;
}

/** Span storage and the thread-id registry, one mutex for both. */
struct TraceStore
{
    std::mutex mutex;
    std::vector<SpanEvent> events;
    std::map<std::thread::id, int> threadIds;
    /** tid -> display name, emitted as "thread_name" metadata events. */
    std::map<int, std::string> threadNames;
};

/** OS-level name of the calling thread ("" when unavailable). */
std::string
osThreadName()
{
#if defined(__linux__)
    char buf[32] = {0};
    if (pthread_getname_np(pthread_self(), buf, sizeof(buf)) == 0)
        return buf;
#endif
    return "";
}

TraceStore &
traceStore()
{
    static TraceStore *store = new TraceStore();
    return *store;
}

/** Metric storage: insertion-ordered names + name -> value. */
struct MetricStore
{
    std::mutex mutex;
    std::vector<std::string> order;
    std::map<std::string, Metric> byName;

    Metric &
    get(const std::string &name, Metric::Kind kind)
    {
        auto it = byName.find(name);
        if (it == byName.end()) {
            order.push_back(name);
            it = byName.emplace(name, Metric{kind, 0, 0.0}).first;
        }
        return it->second;
    }
};

MetricStore &
metricStore()
{
    static MetricStore *store = new MetricStore();
    return *store;
}

/**
 * Small per-process index for @p id, assigned on first sight. Callers
 * always pass the *calling* thread's id (spans complete on their owning
 * thread), so first sight is also the one moment we can sample the OS
 * thread name (set by support::ThreadPool) for trace attribution.
 */
int
threadIdOf(std::thread::id id, TraceStore &store)
{
    auto it = store.threadIds.find(id);
    if (it == store.threadIds.end()) {
        int next = static_cast<int>(store.threadIds.size());
        it = store.threadIds.emplace(id, next).first;
        std::string name = osThreadName();
        if (!name.empty())
            store.threadNames[next] = std::move(name);
    }
    return it->second;
}

/**
 * Histogram storage: insertion-ordered names + name -> histogram.
 * Histograms are stored behind unique_ptr so record() can run outside
 * the registry mutex (each Histogram has its own lock) and addresses
 * stay stable across rehashing.
 */
struct HistogramStore
{
    std::mutex mutex;
    std::vector<std::string> order;
    std::map<std::string, std::unique_ptr<Histogram>> byName;

    Histogram &
    get(const std::string &name)
    {
        auto it = byName.find(name);
        if (it == byName.end()) {
            order.push_back(name);
            it = byName.emplace(name, std::make_unique<Histogram>()).first;
        }
        return *it->second;
    }
};

HistogramStore &
histogramStore()
{
    static HistogramStore *store = new HistogramStore();
    return *store;
}

thread_local int t_depth = 0;

} // namespace

// ----- enablement --------------------------------------------------------

void
setTracingEnabled(bool enabled)
{
    // Pin the epoch before the first span so timestamps stay positive.
    epoch();
    g_tracing.store(enabled, std::memory_order_relaxed);
}

bool
tracingEnabled()
{
    return g_tracing.load(std::memory_order_relaxed);
}

void
setMetricsEnabled(bool enabled)
{
    g_metrics.store(enabled, std::memory_order_relaxed);
}

bool
metricsEnabled()
{
    return g_metrics.load(std::memory_order_relaxed);
}

double
nowMicros()
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - epoch())
        .count();
}

// ----- spans -------------------------------------------------------------

Span::Span(std::string name, std::string category)
{
    active_ = tracingEnabled();
    if (!active_)
        return;
    event_.name = std::move(name);
    event_.category = std::move(category);
    event_.depth = t_depth++;
    event_.requestId = support::currentRequestId();
    event_.startUs = nowMicros();
}

Span::~Span()
{
    if (!active_)
        return;
    event_.durationUs = nowMicros() - event_.startUs;
    --t_depth;
    TraceStore &store = traceStore();
    std::lock_guard<std::mutex> lock(store.mutex);
    event_.threadId = threadIdOf(std::this_thread::get_id(), store);
    store.events.push_back(std::move(event_));
}

void
Span::arg(const std::string &key, const std::string &value)
{
    if (active_)
        event_.args.emplace_back(key, support::jsonQuote(value));
}

void
Span::arg(const std::string &key, std::int64_t value)
{
    if (active_)
        event_.args.emplace_back(key, std::to_string(value));
}

void
Span::arg(const std::string &key, double value)
{
    if (!active_)
        return;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", value);
    event_.args.emplace_back(key, buf);
}

std::vector<SpanEvent>
traceSnapshot()
{
    TraceStore &store = traceStore();
    std::lock_guard<std::mutex> lock(store.mutex);
    return store.events;
}

void
resetTrace()
{
    TraceStore &store = traceStore();
    std::lock_guard<std::mutex> lock(store.mutex);
    store.events.clear();
}

// ----- metrics -----------------------------------------------------------

void
counterAdd(const std::string &name, std::int64_t delta)
{
    MetricStore &store = metricStore();
    std::lock_guard<std::mutex> lock(store.mutex);
    Metric &m = store.get(name, Metric::Kind::Counter);
    m.count += delta;
    m.value = static_cast<double>(m.count);
}

void
accumulate(const std::string &name, double delta)
{
    MetricStore &store = metricStore();
    std::lock_guard<std::mutex> lock(store.mutex);
    Metric &m = store.get(name, Metric::Kind::Accumulator);
    ++m.count;
    m.value += delta;
}

void
gaugeSet(const std::string &name, double value)
{
    MetricStore &store = metricStore();
    std::lock_guard<std::mutex> lock(store.mutex);
    Metric &m = store.get(name, Metric::Kind::Gauge);
    ++m.count;
    m.value = value;
}

std::int64_t
counterValue(const std::string &name)
{
    MetricStore &store = metricStore();
    std::lock_guard<std::mutex> lock(store.mutex);
    auto it = store.byName.find(name);
    return it == store.byName.end() ? 0 : it->second.count;
}

double
metricValue(const std::string &name)
{
    MetricStore &store = metricStore();
    std::lock_guard<std::mutex> lock(store.mutex);
    auto it = store.byName.find(name);
    return it == store.byName.end() ? 0.0 : it->second.value;
}

std::vector<std::pair<std::string, Metric>>
metricsSnapshot()
{
    MetricStore &store = metricStore();
    std::lock_guard<std::mutex> lock(store.mutex);
    std::vector<std::pair<std::string, Metric>> out;
    out.reserve(store.order.size());
    for (const auto &name : store.order)
        out.emplace_back(name, store.byName.at(name));
    return out;
}

void
resetMetrics()
{
    MetricStore &store = metricStore();
    std::lock_guard<std::mutex> lock(store.mutex);
    store.order.clear();
    store.byName.clear();
}

// ----- histograms --------------------------------------------------------

void
histogramRecord(const std::string &name, double value)
{
    HistogramStore &store = histogramStore();
    Histogram *histogram = nullptr;
    {
        std::lock_guard<std::mutex> lock(store.mutex);
        histogram = &store.get(name);
    }
    histogram->record(value);
}

Histogram
histogramSnapshot(const std::string &name)
{
    HistogramStore &store = histogramStore();
    std::lock_guard<std::mutex> lock(store.mutex);
    auto it = store.byName.find(name);
    return it == store.byName.end() ? Histogram() : *it->second;
}

std::vector<std::pair<std::string, Histogram>>
histogramsSnapshot()
{
    HistogramStore &store = histogramStore();
    std::lock_guard<std::mutex> lock(store.mutex);
    std::vector<std::pair<std::string, Histogram>> out;
    out.reserve(store.order.size());
    for (const auto &name : store.order)
        out.emplace_back(name, *store.byName.at(name));
    return out;
}

void
resetHistograms()
{
    HistogramStore &store = histogramStore();
    std::lock_guard<std::mutex> lock(store.mutex);
    store.order.clear();
    store.byName.clear();
}

// ----- export ------------------------------------------------------------

std::string
chromeTraceJson()
{
    std::vector<SpanEvent> events;
    std::map<int, std::string> names;
    {
        TraceStore &store = traceStore();
        std::lock_guard<std::mutex> lock(store.mutex);
        events = store.events;
        names = store.threadNames;
    }
    std::ostringstream os;
    os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
    bool first = true;
    char num[64];
    // "M"-phase metadata first: thread names, so chrome://tracing labels
    // each daemon executor lane.
    for (const auto &[tid, name] : names) {
        if (!first)
            os << ",";
        first = false;
        os << "\n  {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
           << "\"tid\": " << tid << ", \"args\": {\"name\": "
           << support::jsonQuote(name) << "}}";
    }
    for (const auto &e : events) {
        if (!first)
            os << ",";
        first = false;
        os << "\n  {\"name\": " << support::jsonQuote(e.name)
           << ", \"cat\": " << support::jsonQuote(e.category)
           << ", \"ph\": \"X\", \"pid\": 1, \"tid\": " << e.threadId;
        std::snprintf(num, sizeof(num), "%.3f", e.startUs);
        os << ", \"ts\": " << num;
        std::snprintf(num, sizeof(num), "%.3f", e.durationUs);
        os << ", \"dur\": " << num;
        os << ", \"args\": {\"depth\": " << e.depth;
        if (e.requestId != 0)
            os << ", \"req\": " << e.requestId;
        for (const auto &[key, value] : e.args)
            os << ", " << support::jsonQuote(key) << ": " << value;
        os << "}}";
    }
    os << "\n]}\n";
    return os.str();
}

std::string
metricsJson()
{
    std::ostringstream os;
    os << "{\"schema\": \"pom-metrics/v1\", \"metrics\": [";
    bool first = true;
    char num[64];
    for (const auto &[name, m] : metricsSnapshot()) {
        if (!first)
            os << ",";
        first = false;
        const char *kind = m.kind == Metric::Kind::Counter ? "counter"
                           : m.kind == Metric::Kind::Accumulator
                               ? "accumulator"
                               : "gauge";
        std::snprintf(num, sizeof(num), "%.9g", m.value);
        os << "\n  {\"name\": " << support::jsonQuote(name)
           << ", \"kind\": \"" << kind << "\", \"count\": " << m.count
           << ", \"value\": " << num << "}";
    }
    // Histograms ride in the same array as a fourth kind; the body of
    // Histogram::json() (summary + sparse buckets) is spliced in.
    for (const auto &[name, histogram] : histogramsSnapshot()) {
        if (!first)
            os << ",";
        first = false;
        std::string body = histogram.json();
        // body is "{...}": splice its fields after our name/kind header.
        os << "\n  {\"name\": " << support::jsonQuote(name)
           << ", \"kind\": \"histogram\", " << body.substr(1);
    }
    os << "\n]}\n";
    return os.str();
}

bool
writeFile(const std::string &path, const std::string &content)
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << content;
    return static_cast<bool>(out);
}

} // namespace pom::obs
