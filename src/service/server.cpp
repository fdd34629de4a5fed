#include "service/server.h"

#include <bit>
#include <chrono>
#include <exception>

#include "baselines/baselines.h"
#include "dse/strategy.h"
#include "hls/node_cache.h"
#include "obs/journal.h"
#include "obs/obs.h"
#include "support/diagnostics.h"
#include "support/version.h"
#include "workloads/workloads.h"

namespace pom::service {

namespace {

/** The daemon's request-latency histograms (metrics-JSON names). */
constexpr const char *kQueueWaitHistogram = "pomd.queue_wait_ms";
constexpr const char *kServiceHistogram = "pomd.service_ms";

HistogramWire
toWire(const obs::HistogramSummary &s)
{
    HistogramWire w;
    w.count = static_cast<std::int64_t>(s.count);
    w.sum = s.sum;
    w.p50 = s.p50;
    w.p90 = s.p90;
    w.p99 = s.p99;
    w.max = s.max;
    return w;
}

double
millisSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/**
 * The result memo's key of a parsed compile frame: the workload, the
 * size, the canonical framework and strategy names and the exact bits
 * of the resource fraction -- everything the compile reads.
 */
std::string
resultKey(const Request &request, baselines::Framework framework,
          dse::StrategyKind strategy)
{
    return request.workload + " " + std::to_string(request.size) + " " +
           baselines::frameworkName(framework) + " " +
           dse::strategyName(strategy) + " " +
           support::hex16(
               std::bit_cast<std::uint64_t>(request.resourceFraction));
}

} // namespace

Server::Server(ServerOptions options)
    : opt_(std::move(options)),
      results_("pomd.result_memo.evictions", kResultMemoCap)
{
    obs::counterAdd("pomd.result_memo.hits", 0);
    obs::counterAdd("pomd.result_memo.evictions", 0);
    if (opt_.workers < 1)
        opt_.workers = 1;
    if (opt_.queueLimit < 1)
        opt_.queueLimit = 1;
    // start() re-pins this after the (possibly slow) cache warm-load;
    // pinning here keeps uptime sane for socket-less test drivers.
    startTime_ = std::chrono::steady_clock::now();
}

Server::~Server()
{
    stop();
    // ThreadPool's destructor drains queued requests, then joins; only
    // after that is the final spill consistent.
    executors_.reset();
    saveCache();
    if (listener_.valid()) {
        listener_.reset();
        ::unlink(opt_.socketPath.c_str());
    }
}

bool
Server::start(std::string &error)
{
    if (!opt_.cacheDir.empty() &&
        !hls::NodeReportCache::global().loadDir(opt_.cacheDir,
                                                load_stats_, error)) {
        return false;
    }
    listener_ = support::listenUnix(opt_.socketPath, 64, error);
    if (!listener_.valid())
        return false;
    // Named executors: "pomd-exec-<i>" shows up in /proc and as
    // Chrome-trace thread_name metadata, so concurrent request traces
    // are attributable per lane.
    executors_ = std::make_unique<support::ThreadPool>(opt_.workers,
                                                       "pomd-exec");
    startTime_ = std::chrono::steady_clock::now();
    return true;
}

void
Server::run()
{
    while (!stopped()) {
        int ready = support::waitReadable(listener_, 200);
        if (ready < 0)
            break;
        if (ready == 0)
            continue;
        std::string error;
        auto conn = std::make_shared<support::Socket>(
            support::acceptConnection(listener_, error));
        if (!conn->valid()) {
            if (!stopped()) {
                support::diag(support::DiagLevel::Warning,
                              "pomd: " + error);
            }
            continue;
        }
        dispatch(std::move(conn));
    }
}

void
Server::dispatch(std::shared_ptr<support::Socket> connection)
{
    // A request frame is one small JSON document; a peer that cannot
    // produce it within the timeout is dropped rather than allowed to
    // stall the accept loop.
    support::setRecvTimeout(*connection, 10000);
    std::string payload, error;
    if (!support::recvFrame(*connection, payload, kMaxFrameBytes,
                            error)) {
        support::diag(support::DiagLevel::Warning,
                      "pomd: dropping connection: " + error);
        return;
    }

    auto reply = [connection](const Response &response) {
        std::string send_error;
        if (!support::sendFrame(*connection,
                                encodeResponse(response), send_error)) {
            support::diag(support::DiagLevel::Warning,
                          "pomd: cannot reply: " + send_error);
        }
    };

    Request request;
    if (!decodeRequest(payload, request, error)) {
        Response bad;
        bad.status = "error";
        bad.error = "malformed request: " + error;
        reply(bad);
        return;
    }

    // Every socket-served request gets the next monotonic ID; it is
    // stamped into the response frame, spans, diagnostics and (for
    // compiles) the journal header.
    std::int64_t requestId =
        nextRequestId_.fetch_add(1, std::memory_order_relaxed) + 1;

    // Cheap control methods never queue: a full daemon must still
    // answer pings, stats probes and the shutdown request.
    if (request.method != "compile") {
        reply(execute(request, requestId));
        return;
    }

    // Bounded queue with explicit backpressure: admission is a single
    // compare-and-bump, so a flood costs one frame parse + one small
    // "busy" frame per rejected request.
    int depth = pending_.load(std::memory_order_relaxed);
    do {
        if (depth >= opt_.queueLimit) {
            Response busy;
            busy.status = "busy";
            busy.retryAfterMs = opt_.retryAfterMs;
            reply(busy);
            return;
        }
    } while (!pending_.compare_exchange_weak(
        depth, depth + 1, std::memory_order_relaxed));

    // Track the queue-depth high-water mark for the stats frame.
    int newDepth = depth + 1;
    int hwm = pendingMax_.load(std::memory_order_relaxed);
    while (newDepth > hwm &&
           !pendingMax_.compare_exchange_weak(
               hwm, newDepth, std::memory_order_relaxed)) {
    }

    auto enqueued = std::chrono::steady_clock::now();
    executors_->submit(
        [this, connection, request, reply, requestId, enqueued]() {
            obs::histogramRecord(kQueueWaitHistogram,
                                 millisSince(enqueued));
            auto begin = std::chrono::steady_clock::now();
            Response response = execute(request, requestId);
            obs::histogramRecord(kServiceHistogram, millisSince(begin));
            reply(response);
            pending_.fetch_sub(1, std::memory_order_relaxed);
        });
}

Response
Server::execute(const Request &request, std::int64_t requestId)
{
    // Tag this thread for the request's lifetime: spans opened during
    // the compile and any diagnostics it emits carry `[req N]`.
    support::RequestIdScope requestScope(requestId);
    obs::Span span("service." + request.method, "service");
    Response response;
    response.requestId = requestId;
    if (request.version != support::kVersionString) {
        response.status = "error";
        response.error = "version mismatch: client '" +
                         request.version + "', daemon '" +
                         support::kVersionString +
                         "' -- upgrade the older side";
        return response;
    }

    try {
        if (request.method == "ping") {
            // The version field already says everything a probe needs.
        } else if (request.method == "stats") {
            response = statsResponse();
        } else if (request.method == "compile") {
            response = compileResponse(request, requestId);
        } else if (request.method == "shutdown") {
            stop();
        } else {
            response.status = "error";
            response.error =
                "unknown method '" + request.method +
                "' (valid: ping, stats, compile, shutdown)";
        }
    } catch (const support::FatalError &e) {
        response = Response();
        response.status = "error";
        response.error = e.what();
    } catch (const std::exception &e) {
        response = Response();
        response.status = "error";
        response.error = std::string("internal error: ") + e.what();
    }
    response.requestId = requestId;
    if (response.status == "ok")
        served_.fetch_add(1, std::memory_order_relaxed);
    return response;
}

Response
Server::compileResponse(const Request &request, std::int64_t requestId)
{
    Response response;
    if (!workloads::isKnown(request.workload)) {
        response.status = "error";
        response.error =
            "unknown workload '" + request.workload + "'";
        return response;
    }
    if (request.size <= 0) {
        response.status = "error";
        response.error = "size must be positive";
        return response;
    }
    if (request.resourceFraction <= 0.0 ||
        request.resourceFraction > 1.0) {
        response.status = "error";
        response.error = "resources must be a fraction in (0, 1]";
        return response;
    }
    if (request.journal != "none" && request.journal != "v1" &&
        request.journal != "v2") {
        response.status = "error";
        response.error = "journal must be none, v1 or v2";
        return response;
    }
    if (request.journal != "none" && request.framework != "pom") {
        response.status = "error";
        response.error = "a DSE journal requires framework 'pom'";
        return response;
    }

    dse::DseOptions options;
    options.resourceFraction = request.resourceFraction;
    if (!dse::parseStrategy(request.strategy, options.strategy)) {
        response.status = "error";
        response.error = "unknown strategy '" + request.strategy +
                         "' (valid: " + dse::strategyNames() + ")";
        return response;
    }
    baselines::Framework framework;
    if (!baselines::parseFramework(request.framework, framework)) {
        response.status = "error";
        response.error = "unknown framework '" + request.framework +
                         "' (valid: " + baselines::frameworkNames() + ")";
        return response;
    }

    // Two requests that miss on one key at once both compile it; the
    // results are equal and the first store wins.
    const auto begin = std::chrono::steady_clock::now();
    const std::string key = resultKey(request, framework, options.strategy);
    auto stored = results_.lookup(key);
    const bool hit = stored.has_value();
    if (!hit) {
        auto workload =
            workloads::makeByName(request.workload, request.size);
        stored = std::make_shared<const baselines::BaselineResult>(
            baselines::runFramework(framework, workload->func(), options));
        results_.store(key, *stored);
    }
    const baselines::BaselineResult &result = **stored;

    response.reportLine = result.report.str(options.budget());
    response.notes = result.notes;
    response.latencyCycles = result.report.latencyCycles;
    response.dsp = result.report.resources.dsp;
    response.bramBits = result.report.resources.bramBits;
    response.lut = result.report.resources.lut;
    response.ff = result.report.resources.ff;
    // The run's own counts: the process-wide `dse.cache.*` counters
    // also move with every request that overlaps this one.
    response.cacheHits = result.pointCacheHits;
    response.cacheMisses = result.pointCacheMisses;
    // requestId 0 = unattributed (direct execute / one-shot parity):
    // pass -1 so the journal header stays byte-identical to `pomc`.
    std::int64_t journalId = requestId > 0 ? requestId : -1;
    if (request.journal == "v1") {
        response.journalText = obs::journalJson(result.journal, journalId);
    } else if (request.journal == "v2") {
        response.journalText = obs::journalJsonV2(
            result.journal, result.frontierRounds, journalId);
    }
    if (request.emit)
        response.hlsC = result.design->hlsC();

    if (hit) {
        // Every point of the stored search is served from memory, the
        // time is this request's own, and no new node needs saving.
        obs::counterAdd("pomd.result_memo.hits");
        response.cacheHits += response.cacheMisses;
        response.cacheMisses = 0;
        response.seconds = millisSince(begin) / 1e3;
        return response;
    }
    response.seconds = result.seconds;
    saveCache();
    return response;
}

Response
Server::statsResponse()
{
    Response response;
    response.statsFrame = true;
    response.requestsServed =
        static_cast<std::int64_t>(served_.load());
    response.cacheHits = obs::counterValue("dse.cache.hits");
    response.cacheMisses = obs::counterValue("dse.cache.misses");
    auto &nodes = hls::NodeReportCache::global();
    response.nodeCacheHits = static_cast<std::int64_t>(nodes.hits());
    response.nodeCacheMisses =
        static_cast<std::int64_t>(nodes.misses());
    response.nodeCacheSize = static_cast<std::int64_t>(nodes.size());
    response.nodeCacheLoaded =
        static_cast<std::int64_t>(load_stats_.loaded);
    std::int64_t nprobes =
        response.nodeCacheHits + response.nodeCacheMisses;
    response.nodeCacheHitRate =
        nprobes > 0
            ? static_cast<double>(response.nodeCacheHits) /
                  static_cast<double>(nprobes)
            : 0.0;
    response.nodeCacheEvictions =
        static_cast<std::int64_t>(nodes.evictions());
    response.resultMemoHits = static_cast<std::int64_t>(results_.hits());
    response.resultMemoEntries = static_cast<std::int64_t>(results_.size());
    response.queueDepth = pending_.load(std::memory_order_relaxed);
    response.queueDepthMax =
        pendingMax_.load(std::memory_order_relaxed);
    response.uptimeSeconds = millisSince(startTime_) / 1e3;
    std::int64_t probes = response.cacheHits + response.cacheMisses;
    response.cacheHitRate =
        probes > 0 ? static_cast<double>(response.cacheHits) /
                         static_cast<double>(probes)
                   : 0.0;
    response.queueWaitMs =
        toWire(obs::histogramSnapshot(kQueueWaitHistogram).summary());
    response.serviceMs =
        toWire(obs::histogramSnapshot(kServiceHistogram).summary());
    return response;
}

void
Server::saveCache()
{
    if (opt_.cacheDir.empty())
        return;
    std::lock_guard<std::mutex> lock(save_mutex_);
    support::CacheSpillStats stats;
    std::string error;
    if (!hls::NodeReportCache::global().saveDir(opt_.cacheDir, stats,
                                                error)) {
        support::diag(support::DiagLevel::Warning,
                      "pomd: node-cache spill failed: " + error);
    }
}

} // namespace pom::service
