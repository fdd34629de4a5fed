/**
 * @file
 * The pomd wire protocol: length-prefixed JSON request/response frames
 * over a Unix-domain socket (support/socket.h provides the framing).
 * One request per connection; the daemon replies with exactly one
 * response and closes.
 *
 * Every message carries the sender's POM version
 * (support::kVersionString); the daemon rejects a mismatched client
 * with a clean "version mismatch" error instead of guessing at field
 * semantics. Frames are written and read through one field table per
 * record (support/record.h). Unknown JSON fields are ignored on both
 * sides, so same-version minor extensions stay compatible; a compile
 * frame's `jobs` key, which older clients send as a per-request worker
 * override, is ignored the same way (a compile runs on one thread). A
 * known field of the wrong type or out of its range (`"resources":
 * "0.25"`, `"emit": "yes"`, `"size": 2.5`) makes the frame an error
 * that names the field.
 *
 * Methods:
 *  - "ping"     liveness + version probe.
 *  - "stats"    daemon counters: requests served, design points
 *               served from cached nodes (cache hits/misses), node-cache
 *               hits/misses/size, entries warm-loaded from disk, and
 *               the current queue depth.
 *  - "compile"  compile a named workload (optionally through the DSE)
 *               exactly as a one-shot `pomc` run would; the response
 *               carries the synthesis report and, when requested, the
 *               pom-dse-journal document byte-identical to `pomc
 *               --dse-journal` / `--frontier-out` output.
 *  - "shutdown" save the cache spill and stop the daemon.
 *
 * Any other method is answered with an "unknown method" error.
 *
 * Backpressure: when the daemon's bounded request queue is full it
 * responds status "busy" with a retry_after_ms hint instead of
 * queueing unboundedly; clients are expected to back off and retry.
 */

#ifndef POM_SERVICE_PROTOCOL_H
#define POM_SERVICE_PROTOCOL_H

#include <cstdint>
#include <string>

#include "support/version.h"

namespace pom::service {

/** Upper bound on one frame (a journal for a deep DSE is ~1 MB). */
inline constexpr std::size_t kMaxFrameBytes = 64u << 20;

/** One client request. */
struct Request
{
    std::string version = support::kVersionString; ///< the sender's
    std::string method; ///< ping | stats | compile | shutdown

    // -- compile --
    std::string workload;            ///< workloads::makeByName name
    std::int64_t size = 1024;        ///< problem size
    std::string framework = "pom";   ///< pom|scalehls|polsca|pluto|none
    std::string strategy = "greedy"; ///< dse::StrategyKind name
    double resourceFraction = 1.0;
    bool emit = false;          ///< also return the HLS C
    std::string journal = "none"; ///< none | v1 | v2
};

/**
 * Wire form of one histogram summary (stats frames). Full bucket data
 * stays server-side; the frame carries the summary a scraper needs.
 */
struct HistogramWire
{
    std::int64_t count = 0;
    double sum = 0.0;
    double p50 = 0.0;
    double p90 = 0.0;
    double p99 = 0.0;
    double max = 0.0;
};

/** One daemon response. */
struct Response
{
    std::string version = support::kVersionString; ///< the daemon's
    std::string status = "ok";   ///< ok | error | busy
    std::string error;           ///< status "error": what went wrong
    int retryAfterMs = 0;        ///< status "busy": back-off hint

    /** Daemon-assigned monotonic request ID (0 = not assigned, e.g. a
     *  one-shot in-process execute). Matches the `[req N]` diagnostics
     *  prefix and the journal header's "request" key. */
    std::int64_t requestId = 0;

    // -- compile --
    std::string reportLine; ///< SynthesisReport::str() of the design
    std::string notes;      ///< baseline notes line
    double seconds = 0.0;   ///< server-side toolchain wall-clock
    std::uint64_t latencyCycles = 0;
    std::int64_t dsp = 0;
    std::int64_t bramBits = 0;
    std::int64_t lut = 0;
    std::int64_t ff = 0;
    std::string journalText; ///< requested pom-dse-journal document
    std::string hlsC;        ///< requested HLS C

    // -- per-request work report (compile frames) --
    // DSE design points whose every unit came from the node cache
    // (`dse.cache.hits`) and the others (`dse.cache.misses`), counted
    // by THIS request's own search (dse::DseResult). Stats frames
    // reuse the same fields for daemon totals of searched points only:
    // a request answered from the result memo searches nothing and
    // moves neither (resultMemoHits counts it).
    std::int64_t cacheHits = 0;
    std::int64_t cacheMisses = 0;

    // -- stats frames only (statsFrame == true) --
    bool statsFrame = false; ///< the frame carries the fields below;
                             ///< decoding sets it on requests_served
    std::int64_t requestsServed = 0;
    std::int64_t queueDepth = 0;
    std::int64_t queueDepthMax = 0; ///< high-water mark since start
    double uptimeSeconds = 0.0;
    double cacheHitRate = 0.0; ///< hits / (hits + misses), 0 when idle
    std::int64_t nodeCacheHits = 0;   ///< per-node report cache (DSE)
    std::int64_t nodeCacheMisses = 0;
    std::int64_t nodeCacheSize = 0;
    std::int64_t nodeCacheLoaded = 0; ///< warm-loaded from disk
    double nodeCacheHitRate = 0.0;
    std::int64_t nodeCacheEvictions = 0; ///< past hls::kNodeCacheCap
    std::int64_t resultMemoHits = 0;    ///< compiles served without a search
    std::int64_t resultMemoEntries = 0; ///< results held, up to kResultMemoCap
    HistogramWire queueWaitMs;  ///< dispatch -> execution start
    HistogramWire serviceMs;    ///< execution start -> response ready
};

/** Serialize as one canonical JSON document (the frame payload). */
std::string encodeRequest(const Request &request);
std::string encodeResponse(const Response &response);

/** Parse a frame payload; false + @p error on malformed JSON, a known
 *  field of the wrong type or range, or a missing method/status field.
 *  Does NOT check the version -- the server does that so it can answer
 *  with a proper error response. */
bool decodeRequest(const std::string &text, Request &out,
                   std::string &error);
bool decodeResponse(const std::string &text, Response &out,
                    std::string &error);

/**
 * Render a stats response in the Prometheus text exposition format
 * (one gauge/counter per scalar, a `summary` with quantile labels per
 * histogram). What `pomc --daemon-stats --format prom` prints.
 */
std::string statsPrometheus(const Response &stats);

} // namespace pom::service

#endif // POM_SERVICE_PROTOCOL_H
