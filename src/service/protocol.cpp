#include "service/protocol.h"

#include <cstdio>
#include <sstream>

#include "support/json.h"
#include "support/version.h"

namespace pom::service {

namespace {

using support::jsonQuote;

void
field(std::ostringstream &os, bool &first, const std::string &key,
      const std::string &value)
{
    os << (first ? "" : ", ") << jsonQuote(key) << ": "
       << jsonQuote(value);
    first = false;
}

void
field(std::ostringstream &os, bool &first, const std::string &key,
      std::int64_t value)
{
    os << (first ? "" : ", ") << jsonQuote(key) << ": " << value;
    first = false;
}

void
field(std::ostringstream &os, bool &first, const std::string &key,
      double value)
{
    // Round-trip-exact decimal form for the resource fraction.
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    os << (first ? "" : ", ") << jsonQuote(key) << ": " << buf;
    first = false;
}

void
field(std::ostringstream &os, bool &first, const std::string &key,
      bool value)
{
    os << (first ? "" : ", ") << jsonQuote(key) << ": "
       << (value ? "true" : "false");
    first = false;
}

void
histogramField(std::ostringstream &os, bool &first,
               const std::string &key, const HistogramWire &h)
{
    char buf[40];
    os << (first ? "" : ", ") << jsonQuote(key) << ": {";
    first = false;
    os << "\"count\": " << h.count;
    const std::pair<const char *, double> doubles[] = {
        {"sum", h.sum}, {"p50", h.p50}, {"p90", h.p90},
        {"p99", h.p99}, {"max", h.max}};
    for (const auto &[name, value] : doubles) {
        std::snprintf(buf, sizeof(buf), "%.17g", value);
        os << ", \"" << name << "\": " << buf;
    }
    os << "}";
}

void
decodeHistogram(const support::JsonValue &doc, HistogramWire &out)
{
    if (const auto *v = doc.find("count"))
        out.count = v->asInt();
    if (const auto *v = doc.find("sum"))
        out.sum = v->asDouble();
    if (const auto *v = doc.find("p50"))
        out.p50 = v->asDouble();
    if (const auto *v = doc.find("p90"))
        out.p90 = v->asDouble();
    if (const auto *v = doc.find("p99"))
        out.p99 = v->asDouble();
    if (const auto *v = doc.find("max"))
        out.max = v->asDouble();
}

} // namespace

std::string
encodeRequest(const Request &r)
{
    std::ostringstream os;
    bool first = true;
    os << "{";
    field(os, first, "pom", r.version.empty()
                                ? std::string(support::kVersionString)
                                : r.version);
    field(os, first, "protocol",
          std::string(support::kProtocolName));
    field(os, first, "method", r.method);
    if (r.method == "compile") {
        field(os, first, "workload", r.workload);
        field(os, first, "size", r.size);
        field(os, first, "framework", r.framework);
        field(os, first, "strategy", r.strategy);
        field(os, first, "resources", r.resourceFraction);
        field(os, first, "emit", r.emit);
        field(os, first, "journal", r.journal);
    }
    os << "}";
    return os.str();
}

std::string
encodeResponse(const Response &r)
{
    std::ostringstream os;
    bool first = true;
    os << "{";
    field(os, first, "pom", r.version.empty()
                                ? std::string(support::kVersionString)
                                : r.version);
    field(os, first, "status", r.status);
    if (r.status == "error") {
        field(os, first, "error", r.error);
    } else if (r.status == "busy") {
        field(os, first, "retry_after_ms",
              static_cast<std::int64_t>(r.retryAfterMs));
    }
    if (!r.reportLine.empty()) {
        field(os, first, "report", r.reportLine);
        field(os, first, "notes", r.notes);
        field(os, first, "seconds", r.seconds);
        field(os, first, "latency_cycles",
              static_cast<std::int64_t>(r.latencyCycles));
        field(os, first, "dsp", r.dsp);
        field(os, first, "bram_bits", r.bramBits);
        field(os, first, "lut", r.lut);
        field(os, first, "ff", r.ff);
    }
    if (!r.journalText.empty())
        field(os, first, "journal", r.journalText);
    if (!r.hlsC.empty())
        field(os, first, "hls_c", r.hlsC);
    if (r.requestId > 0)
        field(os, first, "request", r.requestId);
    if (r.status == "ok") {
        // Per-request cache deltas on work frames; daemon totals on a
        // stats frame. The stats-only block below is what distinguishes
        // the two on the wire.
        field(os, first, "cache_hits", r.cacheHits);
        field(os, first, "cache_misses", r.cacheMisses);
    }
    if (r.status == "ok" && r.statsFrame) {
        field(os, first, "requests_served", r.requestsServed);
        field(os, first, "queue_depth", r.queueDepth);
        field(os, first, "queue_depth_max", r.queueDepthMax);
        field(os, first, "uptime_seconds", r.uptimeSeconds);
        field(os, first, "cache_hit_rate", r.cacheHitRate);
        field(os, first, "node_cache_hits", r.nodeCacheHits);
        field(os, first, "node_cache_misses", r.nodeCacheMisses);
        field(os, first, "node_cache_size", r.nodeCacheSize);
        field(os, first, "node_cache_loaded", r.nodeCacheLoaded);
        field(os, first, "node_cache_hit_rate", r.nodeCacheHitRate);
        field(os, first, "node_cache_evictions",
              r.nodeCacheEvictions);
        histogramField(os, first, "queue_wait_ms", r.queueWaitMs);
        histogramField(os, first, "service_ms", r.serviceMs);
    }
    os << "}";
    return os.str();
}

bool
decodeRequest(const std::string &text, Request &out, std::string &error)
{
    out = Request();
    support::JsonValue doc;
    if (!support::parseJson(text, doc, error))
        return false;
    if (!doc.isObject()) {
        error = "request is not a JSON object";
        return false;
    }
    if (const auto *v = doc.find("pom"))
        out.version = v->asString();
    if (const auto *v = doc.find("method"))
        out.method = v->asString();
    if (out.method.empty()) {
        error = "request has no method";
        return false;
    }
    if (const auto *v = doc.find("workload"))
        out.workload = v->asString();
    // size reaches integer arithmetic in the daemon: anything but an
    // exact int64 is a field error, never a silent conversion.
    if (const auto *v = doc.find("size")) {
        auto exact = v->exactInt();
        if (!exact) {
            error = "field 'size' must be an integer in int64 range";
            return false;
        }
        out.size = *exact;
    }
    if (const auto *v = doc.find("framework"))
        out.framework = v->asString(out.framework);
    if (const auto *v = doc.find("strategy"))
        out.strategy = v->asString(out.strategy);
    if (const auto *v = doc.find("resources"))
        out.resourceFraction = v->asDouble(out.resourceFraction);
    if (const auto *v = doc.find("emit"))
        out.emit = v->asBool(out.emit);
    if (const auto *v = doc.find("journal"))
        out.journal = v->asString(out.journal);
    return true;
}

bool
decodeResponse(const std::string &text, Response &out,
               std::string &error)
{
    out = Response();
    out.status.clear(); // a frame must carry its status explicitly
    support::JsonValue doc;
    if (!support::parseJson(text, doc, error))
        return false;
    if (!doc.isObject()) {
        error = "response is not a JSON object";
        return false;
    }
    if (const auto *v = doc.find("pom"))
        out.version = v->asString();
    if (const auto *v = doc.find("status"))
        out.status = v->asString();
    if (out.status.empty()) {
        error = "response has no status";
        return false;
    }
    if (const auto *v = doc.find("error"))
        out.error = v->asString();
    if (const auto *v = doc.find("retry_after_ms"))
        out.retryAfterMs = static_cast<int>(v->asInt());
    if (const auto *v = doc.find("report"))
        out.reportLine = v->asString();
    if (const auto *v = doc.find("notes"))
        out.notes = v->asString();
    if (const auto *v = doc.find("seconds"))
        out.seconds = v->asDouble();
    if (const auto *v = doc.find("latency_cycles"))
        out.latencyCycles = static_cast<std::uint64_t>(v->asInt());
    if (const auto *v = doc.find("dsp"))
        out.dsp = v->asInt();
    if (const auto *v = doc.find("bram_bits"))
        out.bramBits = v->asInt();
    if (const auto *v = doc.find("lut"))
        out.lut = v->asInt();
    if (const auto *v = doc.find("ff"))
        out.ff = v->asInt();
    if (const auto *v = doc.find("journal"))
        out.journalText = v->asString();
    if (const auto *v = doc.find("hls_c"))
        out.hlsC = v->asString();
    if (const auto *v = doc.find("request"))
        out.requestId = v->asInt();
    if (const auto *v = doc.find("cache_hits"))
        out.cacheHits = v->asInt();
    if (const auto *v = doc.find("cache_misses"))
        out.cacheMisses = v->asInt();
    if (const auto *v = doc.find("requests_served")) {
        out.statsFrame = true;
        out.requestsServed = v->asInt();
    }
    if (const auto *v = doc.find("queue_depth"))
        out.queueDepth = v->asInt();
    if (const auto *v = doc.find("queue_depth_max"))
        out.queueDepthMax = v->asInt();
    if (const auto *v = doc.find("uptime_seconds"))
        out.uptimeSeconds = v->asDouble();
    if (const auto *v = doc.find("cache_hit_rate"))
        out.cacheHitRate = v->asDouble();
    if (const auto *v = doc.find("node_cache_hits"))
        out.nodeCacheHits = v->asInt();
    if (const auto *v = doc.find("node_cache_misses"))
        out.nodeCacheMisses = v->asInt();
    if (const auto *v = doc.find("node_cache_size"))
        out.nodeCacheSize = v->asInt();
    if (const auto *v = doc.find("node_cache_loaded"))
        out.nodeCacheLoaded = v->asInt();
    if (const auto *v = doc.find("node_cache_hit_rate"))
        out.nodeCacheHitRate = v->asDouble();
    if (const auto *v = doc.find("node_cache_evictions"))
        out.nodeCacheEvictions = v->asInt();
    if (const auto *v = doc.find("queue_wait_ms"))
        decodeHistogram(*v, out.queueWaitMs);
    if (const auto *v = doc.find("service_ms"))
        decodeHistogram(*v, out.serviceMs);
    return true;
}

std::string
statsPrometheus(const Response &stats)
{
    std::ostringstream os;
    char buf[40];
    auto num = [&buf](double v) -> const char * {
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        return buf;
    };
    auto scalar = [&os](const char *name, const char *type,
                        const char *help, const std::string &value) {
        os << "# HELP " << name << " " << help << "\n"
           << "# TYPE " << name << " " << type << "\n"
           << name << " " << value << "\n";
    };
    scalar("pomd_uptime_seconds", "gauge",
           "Seconds since the daemon started.",
           num(stats.uptimeSeconds));
    scalar("pomd_requests_served_total", "counter",
           "Requests executed to completion.",
           std::to_string(stats.requestsServed));
    scalar("pomd_estimator_cache_hits_total", "counter",
           "DSE design points composed entirely from cached node "
           "reports.",
           std::to_string(stats.cacheHits));
    scalar("pomd_estimator_cache_misses_total", "counter",
           "DSE design points that estimated at least one node.",
           std::to_string(stats.cacheMisses));
    scalar("pomd_estimator_cache_hit_rate", "gauge",
           "hits / (hits + misses); 0 when idle.",
           num(stats.cacheHitRate));
    scalar("pomd_node_cache_hits_total", "counter",
           "Per-node report cache hits across all requests.",
           std::to_string(stats.nodeCacheHits));
    scalar("pomd_node_cache_misses_total", "counter",
           "Per-node report cache misses across all requests.",
           std::to_string(stats.nodeCacheMisses));
    scalar("pomd_node_cache_hit_rate", "gauge",
           "hits / (hits + misses); 0 when idle.",
           num(stats.nodeCacheHitRate));
    scalar("pomd_node_cache_entries", "gauge",
           "Entries currently in the per-node report cache.",
           std::to_string(stats.nodeCacheSize));
    scalar("pomd_node_cache_loaded_entries", "gauge",
           "Entries warm-loaded from the disk spill at start.",
           std::to_string(stats.nodeCacheLoaded));
    scalar("pomd_node_cache_evictions_total", "counter",
           "Node-cache entries evicted past its fixed FIFO cap.",
           std::to_string(stats.nodeCacheEvictions));
    scalar("pomd_request_queue_depth", "gauge",
           "Requests queued or executing right now.",
           std::to_string(stats.queueDepth));
    scalar("pomd_request_queue_depth_max", "gauge",
           "High-water mark of the request queue since start.",
           std::to_string(stats.queueDepthMax));
    auto summary = [&os, &num](const char *name, const char *help,
                               const HistogramWire &h) {
        os << "# HELP " << name << " " << help << "\n"
           << "# TYPE " << name << " summary\n";
        os << name << "{quantile=\"0.5\"} " << num(h.p50) << "\n";
        os << name << "{quantile=\"0.9\"} " << num(h.p90) << "\n";
        os << name << "{quantile=\"0.99\"} " << num(h.p99) << "\n";
        os << name << "_sum " << num(h.sum) << "\n";
        os << name << "_count " << h.count << "\n";
    };
    summary("pomd_request_queue_wait_milliseconds",
            "Dispatch-to-execution-start wait per request.",
            stats.queueWaitMs);
    summary("pomd_request_service_milliseconds",
            "Execution-start-to-response-ready time per request.",
            stats.serviceMs);
    return os.str();
}

} // namespace pom::service
