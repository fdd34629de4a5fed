/**
 * @file
 * The pomd compile server: a long-lived process that keeps the whole
 * compiler warm -- its result memo, the process-wide
 * hls::NodeReportCache and (optionally) its disk spill -- and serves
 * concurrent compile/DSE requests over a Unix-domain socket speaking
 * the protocol.h frames.
 *
 * Result memo: a compile frame names a built-in workload, a size, a
 * framework, a strategy and a resource fraction, and nothing else
 * changes what it compiles. Each server keeps the result of every such
 * key it compiled (FIFO, kResultMemoCap entries, in memory only), so a
 * repeated request runs no search: its reply is rendered from the
 * stored result. A fresh server starts with an empty memo.
 *
 * Concurrency model: one accept loop (run()) reads a single request
 * frame per connection and hands (request, connection) to a dedicated
 * support::ThreadPool of request executors (`--workers`); each request
 * compiles on its executor thread, and nothing inside it fans out.
 * Journals stay byte-identical to one-shot `pomc` runs because each
 * request serializes the journal its own DseResult carries, as `pomc`
 * does, and the shared node cache can only change *where* a node report
 * comes from, never what it says (the node fingerprint pins the full
 * estimator input).
 *
 * Backpressure: at most `queueLimit` requests may be queued or
 * executing; beyond that the accept loop answers status "busy" with a
 * retry_after_ms hint immediately, so a flood degrades into client
 * retries instead of unbounded daemon memory.
 *
 * Persistence: with a cache dir configured, the node-cache spill
 * (`nodes.index` + `nodes/`) is loaded before the first request and
 * re-saved (incrementally -- content-addressed entries already on disk
 * are skipped) after every compile request, and once more on shutdown.
 * A daemon restart therefore warm-starts from disk: every point of the
 * first repeated request composes from cached nodes, so
 * `dse.cache.hits` counts all of them.
 */

#ifndef POM_SERVICE_SERVER_H
#define POM_SERVICE_SERVER_H

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "service/protocol.h"
#include "support/cache_store.h"
#include "support/socket.h"
#include "support/thread_pool.h"

namespace pom::baselines {
struct BaselineResult;
} // namespace pom::baselines

namespace pom::service {

/**
 * Entry cap of a server's result memo, sized from its largest entry:
 * the result of resnet18 at size 64 (the selected design with its AST,
 * statements and HLS C, and the journal with its frontier rounds)
 * holds about 0.96 MB of heap, vgg16's 0.62 MB, a kernel's at size 128
 * 25-100 KB. So a full memo stays under 31 MB and holds the 18-workload
 * sweep under one option set.
 */
inline constexpr std::size_t kResultMemoCap = 32;

/** Daemon configuration (`pomd` flags). */
struct ServerOptions
{
    /** Unix-domain socket path to listen on. */
    std::string socketPath = "pomd.sock";

    /** Node-cache spill directory; empty = no persistence. */
    std::string cacheDir;

    /** Concurrent request executors. */
    int workers = 2;

    /** Max requests queued or executing before "busy" responses. */
    int queueLimit = 16;

    /** The back-off hint sent with a "busy" response. */
    int retryAfterMs = 200;
};

/** The daemon. Construct, start(), then run() until stop(). */
class Server
{
  public:
    explicit Server(ServerOptions options);

    /** Joins in-flight requests and saves the cache spill. */
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /**
     * Bind the socket and warm-load the cache spill. False + @p error
     * when the socket or the cache index is unusable (a daemon must not
     * start half-deaf).
     */
    bool start(std::string &error);

    /**
     * Accept-and-dispatch loop; returns once stop() is called and no
     * more connections are pending. Call from the main thread.
     */
    void run();

    /** Request shutdown (thread- and signal-safe: one atomic store). */
    void stop() { stopping_.store(true, std::memory_order_relaxed); }

    bool stopped() const
    {
        return stopping_.load(std::memory_order_relaxed);
    }

    /** Node-cache entries warm-loaded from the cache dir at start(). */
    const support::CacheSpillStats &loadStats() const { return load_stats_; }

    std::uint64_t requestsServed() const { return served_.load(); }

    /**
     * Execute one request in-process (the daemon's dispatch target;
     * public so tests can drive the protocol without a socket).
     *
     * @p requestId is the daemon-assigned monotonic ID correlating the
     * request's spans, diagnostics and journal header. 0 (the default)
     * means "unattributed": nothing is stamped, so a direct execute()
     * produces output byte-identical to a one-shot `pomc` run.
     *
     * A compile whose key the result memo holds runs no search: its
     * reply carries its own `seconds`, counts every point of the
     * stored search as a cache hit, and saves no cache spill.
     */
    Response execute(const Request &request, std::int64_t requestId = 0);

  private:
    void dispatch(std::shared_ptr<support::Socket> connection);
    Response compileResponse(const Request &request,
                             std::int64_t requestId);
    Response statsResponse();
    void saveCache();

    using ResultMemo = support::ContentCache<
        std::shared_ptr<const baselines::BaselineResult>>;

    ServerOptions opt_;
    /** Compile results by request key (`pomd.result_memo.*`). */
    ResultMemo results_;
    support::Socket listener_;
    std::unique_ptr<support::ThreadPool> executors_;
    std::atomic<int> pending_{0};
    std::atomic<int> pendingMax_{0}; ///< queue-depth high-water mark
    std::atomic<bool> stopping_{false};
    std::atomic<std::uint64_t> served_{0};
    std::atomic<std::int64_t> nextRequestId_{0};
    std::chrono::steady_clock::time_point startTime_;
    support::CacheSpillStats load_stats_;
    std::mutex save_mutex_;
};

} // namespace pom::service

#endif // POM_SERVICE_SERVER_H
