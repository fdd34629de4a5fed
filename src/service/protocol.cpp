#include "service/protocol.h"

#include <cstdio>
#include <sstream>

#include "support/record.h"
#include "support/version.h"

namespace pom::service {

// The field table of each frame record (support/record.h): the keys in
// wire order, each with the condition under which a frame carries it.

template <support::RecordOf<Request> R, typename Visit>
void
visitFields(R &r, Visit &&visit)
{
    // Sent for a reader of the frame; the version alone gates it.
    std::string protocol = support::kProtocolName;
    const bool compile = r.method == "compile";
    visit("pom", r.version);
    visit("protocol", protocol);
    visit("method", r.method);
    visit("workload", r.workload, compile);
    visit("size", r.size, compile);
    visit("framework", r.framework, compile);
    visit("strategy", r.strategy, compile);
    visit("resources", r.resourceFraction, compile);
    visit("emit", r.emit, compile);
    visit("journal", r.journal, compile);
}

template <support::RecordOf<HistogramWire> R, typename Visit>
void
visitFields(R &h, Visit &&visit)
{
    visit("count", h.count);
    visit("sum", h.sum);
    visit("p50", h.p50);
    visit("p90", h.p90);
    visit("p99", h.p99);
    visit("max", h.max);
}

template <support::RecordOf<Response> R, typename Visit>
void
visitFields(R &r, Visit &&visit)
{
    const bool ok = r.status == "ok";
    const bool report = !r.reportLine.empty();
    visit("pom", r.version);
    visit("status", r.status);
    visit("error", r.error, r.status == "error");
    visit("retry_after_ms", r.retryAfterMs, r.status == "busy");
    visit("report", r.reportLine, report);
    visit("notes", r.notes, report);
    visit("seconds", r.seconds, report);
    visit("latency_cycles", r.latencyCycles, report);
    visit("dsp", r.dsp, report);
    visit("bram_bits", r.bramBits, report);
    visit("lut", r.lut, report);
    visit("ff", r.ff, report);
    visit("journal", r.journalText, !r.journalText.empty());
    visit("hls_c", r.hlsC, !r.hlsC.empty());
    visit("request", r.requestId, r.requestId > 0);
    // Per-request counts on work frames, daemon totals on a stats frame.
    visit("cache_hits", r.cacheHits, ok);
    visit("cache_misses", r.cacheMisses, ok);
    // The stats block; reading requests_served marks a stats frame.
    visit("requests_served", r.requestsServed, r.statsFrame);
    const bool stats = r.statsFrame;
    visit("queue_depth", r.queueDepth, stats);
    visit("queue_depth_max", r.queueDepthMax, stats);
    visit("uptime_seconds", r.uptimeSeconds, stats);
    visit("cache_hit_rate", r.cacheHitRate, stats);
    visit("node_cache_hits", r.nodeCacheHits, stats);
    visit("node_cache_misses", r.nodeCacheMisses, stats);
    visit("node_cache_size", r.nodeCacheSize, stats);
    visit("node_cache_loaded", r.nodeCacheLoaded, stats);
    visit("node_cache_hit_rate", r.nodeCacheHitRate, stats);
    visit("node_cache_evictions", r.nodeCacheEvictions, stats);
    visit("result_memo_hits", r.resultMemoHits, stats);
    visit("result_memo_entries", r.resultMemoEntries, stats);
    visit("queue_wait_ms", r.queueWaitMs, stats);
    visit("service_ms", r.serviceMs, stats);
}

namespace {

/** @p r as a frame payload. */
template <typename R>
std::string
encode(const R &r)
{
    std::string out;
    support::writeRecord(out, r);
    return out;
}

/** Read the frame @p text, a @p what, into @p out. */
template <typename R>
bool
decode(const std::string &text, const char *what, R &out,
       std::string &error)
{
    support::JsonValue doc;
    if (!support::parseJson(text, doc, error))
        return false;
    if (!doc.isObject()) {
        error = std::string(what) + " is not a JSON object";
        return false;
    }
    return support::readRecord(doc, out, error);
}

} // namespace

std::string
encodeRequest(const Request &request)
{
    return encode(request);
}

std::string
encodeResponse(const Response &response)
{
    return encode(response);
}

bool
decodeRequest(const std::string &text, Request &out, std::string &error)
{
    out = Request();
    out.version.clear(); // a frame carries its sender's version or none
    if (!decode(text, "request", out, error))
        return false;
    if (out.method.empty()) {
        error = "request has no method";
        return false;
    }
    return true;
}

bool
decodeResponse(const std::string &text, Response &out,
               std::string &error)
{
    out = Response();
    out.version.clear();
    out.status.clear(); // a frame must carry its status explicitly
    if (!decode(text, "response", out, error))
        return false;
    if (out.status.empty()) {
        error = "response has no status";
        return false;
    }
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
           "Searched DSE design points composed entirely from cached "
           "node reports.",
           std::to_string(stats.cacheHits));
    scalar("pomd_estimator_cache_misses_total", "counter",
           "Searched DSE design points that estimated at least one "
           "node.",
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
    scalar("pomd_result_memo_hits_total", "counter",
           "Compile requests answered from the result memo, without a "
           "search.",
           std::to_string(stats.resultMemoHits));
    scalar("pomd_result_memo_entries", "gauge",
           "Compile results currently in the result memo.",
           std::to_string(stats.resultMemoEntries));
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
