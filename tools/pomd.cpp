/**
 * @file
 * pomd — the POM compile daemon.
 *
 * Usage:
 *   pomd [--socket PATH] [--cache-dir DIR] [--workers N] [--queue N]
 *        [--retry-after MS] [--jobs N] [--metrics-out FILE]
 *        [--trace-out FILE] [--version] [--quiet|-q] [--verbose|-v]
 *
 * Listens on a Unix-domain socket and serves concurrent compile/DSE
 * requests (see src/service/protocol.h). A request it has answered
 * before -- same workload, size, framework, strategy and resources --
 * is served from its result memo and runs no search
 * (`pomd.result_memo.hits` in metrics JSON). Any other request reuses
 * the per-node report cache (src/hls/node_cache.h), the trip-count and
 * dependence memos, all warm across requests. With --cache-dir the
 * node cache is spilled to DIR/nodes.index + DIR/nodes/ and warm-loaded
 * on the next start, so even a restarted daemon composes repeated DSE
 * requests from cached nodes.
 *
 * --workers N sets how many requests execute at once; each request
 * runs on its executor thread, and journals do not depend on N.
 * --jobs N is accepted for older scripts (N in [1, 256]) and ignored.
 *
 * The node cache holds at most hls::kNodeCacheCap entries (FIFO);
 * evictions are visible as node_cache_evictions in the stats frame and
 * as the dse.node_cache.evictions counter in metrics JSON.
 *
 * --metrics-out FILE and --trace-out FILE are pomc's flags, written
 * once, after a clean shutdown: the metrics JSON of every request the
 * daemon served (the counters are process-wide), and a Chrome
 * trace-event JSON of their spans, one lane per executor. The trace
 * keeps every span in memory until shutdown, so turn it on for a
 * measurement, not for a long-lived daemon.
 *
 * Clients: `pomc --connect PATH ...` (same flags as one-shot pomc),
 * plus `pomc --daemon-stats` and `pomc --daemon-shutdown`.
 *
 * SIGINT/SIGTERM trigger a clean shutdown: in-flight requests finish,
 * the cache spill is saved, and the socket file is removed.
 */

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "obs/obs.h"
#include "service/server.h"
#include "support/diagnostics.h"
#include "support/string_util.h"
#include "support/version.h"

using namespace pom;

namespace {

service::Server *g_server = nullptr;

void
handleSignal(int)
{
    if (g_server != nullptr)
        g_server->stop();
}

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--socket PATH] [--cache-dir DIR] "
                 "[--workers N] [--queue N] [--retry-after MS] "
                 "[--jobs N (ignored)] [--metrics-out FILE] "
                 "[--trace-out FILE (keeps every span until shutdown)] "
                 "[--version] [--quiet|-q] [--verbose|-v]\n",
                 argv0);
    return 2;
}

/** @p text as @p flag's integer in [lo, hi] (@p what names it), or
 *  exit 2 with a message naming the flag. */
int
intArg(const char *flag, const char *text, const char *what,
       std::int64_t lo, std::int64_t hi)
{
    std::int64_t v = 0;
    if (!support::parseInt64(text, v) || v < lo || v > hi) {
        std::fprintf(stderr,
                     "pomd: %s expects %s in [%lld, %lld], got '%s'\n",
                     flag, what, static_cast<long long>(lo),
                     static_cast<long long>(hi), text);
        std::exit(2);
    }
    return static_cast<int>(v);
}

} // namespace

int
main(int argc, char **argv)
{
    service::ServerOptions options;
    std::string metrics_out;
    std::string trace_out;
    for (int a = 1; a < argc; ++a) {
        std::string arg = argv[a];
        if (arg == "--socket" && a + 1 < argc) {
            options.socketPath = argv[++a];
        } else if (arg == "--cache-dir" && a + 1 < argc) {
            options.cacheDir = argv[++a];
        } else if (arg == "--workers" && a + 1 < argc) {
            options.workers =
                intArg("--workers", argv[++a], "a count", 1, 64);
        } else if (arg == "--queue" && a + 1 < argc) {
            options.queueLimit =
                intArg("--queue", argv[++a], "a limit", 1, 4096);
        } else if (arg == "--retry-after" && a + 1 < argc) {
            options.retryAfterMs = intArg("--retry-after", argv[++a],
                                          "milliseconds", 1, 60000);
        } else if (arg == "--jobs" && a + 1 < argc) {
            // Still validated; a compile runs on one thread whatever N.
            intArg("--jobs", argv[++a], "a worker count", 1, 256);
        } else if (arg == "--metrics-out" && a + 1 < argc) {
            metrics_out = argv[++a];
        } else if (arg == "--trace-out" && a + 1 < argc) {
            trace_out = argv[++a];
        } else if (arg == "--version") {
            std::printf("pomd %s (protocol %s, cache %s)\n",
                        support::kVersionString, support::kProtocolName,
                        support::kNodeCacheFormatName);
            return 0;
        } else if (arg == "--quiet" || arg == "-q") {
            support::setDiagLevel(support::DiagLevel::Error);
        } else if (arg == "--verbose" || arg == "-v") {
            support::setDiagLevel(support::DiagLevel::Debug);
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else {
            std::fprintf(stderr, "pomd: unknown argument '%s'\n",
                         argv[a]);
            return usage(argv[0]);
        }
    }

    if (!trace_out.empty())
        obs::setTracingEnabled(true);
    if (!metrics_out.empty())
        obs::setMetricsEnabled(true);

    {
        service::Server server(options);
        std::string error;
        if (!server.start(error)) {
            std::fprintf(stderr, "pomd: %s\n", error.c_str());
            return 1;
        }
        g_server = &server;
        std::signal(SIGINT, handleSignal);
        std::signal(SIGTERM, handleSignal);
        std::signal(SIGPIPE, SIG_IGN);

        std::fprintf(stderr,
                     "pomd %s listening on %s (%d workers, queue %d, "
                     "nodes: %zu warm%s)\n",
                     support::kVersionString, options.socketPath.c_str(),
                     options.workers, options.queueLimit,
                     server.loadStats().loaded,
                     options.cacheDir.empty() ? ", no spill" : "");
        server.run();
        g_server = nullptr;
        std::fprintf(stderr, "pomd: shutting down after %llu requests\n",
                     static_cast<unsigned long long>(
                         server.requestsServed()));
        // Leaving the scope finishes the requests still in flight and
        // saves the cache spill.
    }
    // Every request has finished, so every span has closed.
    auto write = [](const std::string &path, const std::string &content) {
        if (path.empty() || obs::writeFile(path, content))
            return true;
        std::fprintf(stderr, "pomd: cannot write '%s'\n", path.c_str());
        return false;
    };
    bool ok = write(metrics_out, obs::metricsJson());
    ok = write(trace_out, obs::chromeTraceJson()) && ok;
    return ok ? 0 : 1;
}
