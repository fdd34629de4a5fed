/**
 * @file
 * pomd — the POM compile daemon.
 *
 * Usage:
 *   pomd [--socket PATH] [--cache-dir DIR] [--estimator-cache-cap N]
 *        [--workers N] [--queue N] [--retry-after MS] [--jobs N]
 *        [--version] [--quiet|-q] [--verbose|-v]
 *
 * Listens on a Unix-domain socket and serves concurrent compile/DSE
 * requests (see src/service/protocol.h), keeping the per-node report
 * cache (src/hls/node_cache.h) warm across requests. With --cache-dir
 * that cache is spilled to DIR/nodes.index + DIR/nodes/ and warm-loaded
 * on the next start, so even a restarted daemon answers repeated DSE
 * requests from cache.
 *
 * --workers N sets how many requests execute at once; --jobs N sizes
 * the one process-wide worker pool their dependence analyses and
 * lowerings fan out on (default: hardware concurrency). Journals do not
 * depend on either.
 *
 * --estimator-cache-cap bounds the node cache to N entries (FIFO
 * eviction, 0 = unbounded); evictions are visible as
 * node_cache_evictions in the stats frame and as the
 * dse.node_cache.evictions counter in metrics JSON. A long-lived
 * daemon sweeping many workloads can otherwise grow without bound.
 *
 * Clients: `pomc --connect PATH ...` (same flags as one-shot pomc),
 * plus `pomc --daemon-stats` and `pomc --daemon-shutdown`.
 *
 * SIGINT/SIGTERM trigger a clean shutdown: in-flight requests finish,
 * the cache spill is saved, and the socket file is removed.
 */

#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>

#include "service/server.h"
#include "support/diagnostics.h"
#include "support/thread_pool.h"
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
                 "[--estimator-cache-cap N] "
                 "[--workers N] [--queue N] [--retry-after MS] "
                 "[--jobs N] [--version] [--quiet|-q] [--verbose|-v]\n",
                 argv0);
    return 2;
}

std::int64_t
intArg(const char *flag, const char *text)
{
    char *end = nullptr;
    long long v = std::strtoll(text, &end, 10);
    if (end == text || *end != '\0') {
        std::fprintf(stderr, "pomd: %s expects an integer, got '%s'\n",
                     flag, text);
        std::exit(2);
    }
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
    service::ServerOptions options;
    for (int a = 1; a < argc; ++a) {
        std::string arg = argv[a];
        if (arg == "--socket" && a + 1 < argc) {
            options.socketPath = argv[++a];
        } else if (arg == "--cache-dir" && a + 1 < argc) {
            options.cacheDir = argv[++a];
        } else if (arg == "--estimator-cache-cap" && a + 1 < argc) {
            std::int64_t n = intArg("--estimator-cache-cap", argv[++a]);
            if (n < 0) {
                std::fprintf(stderr,
                             "pomd: --estimator-cache-cap expects a "
                             "non-negative entry count (0 = "
                             "unbounded), got '%s'\n",
                             argv[a]);
                return 2;
            }
            options.estimatorCacheCap = static_cast<std::size_t>(n);
        } else if (arg == "--workers" && a + 1 < argc) {
            std::int64_t n = intArg("--workers", argv[++a]);
            if (n < 1 || n > 64) {
                std::fprintf(stderr, "pomd: --workers expects a count "
                                     "in [1, 64], got '%s'\n",
                             argv[a]);
                return 2;
            }
            options.workers = static_cast<int>(n);
        } else if (arg == "--queue" && a + 1 < argc) {
            std::int64_t n = intArg("--queue", argv[++a]);
            if (n < 1 || n > 4096) {
                std::fprintf(stderr, "pomd: --queue expects a limit "
                                     "in [1, 4096], got '%s'\n",
                             argv[a]);
                return 2;
            }
            options.queueLimit = static_cast<int>(n);
        } else if (arg == "--retry-after" && a + 1 < argc) {
            std::int64_t n = intArg("--retry-after", argv[++a]);
            if (n < 1 || n > 60000) {
                std::fprintf(stderr,
                             "pomd: --retry-after expects "
                             "milliseconds in [1, 60000], got '%s'\n",
                             argv[a]);
                return 2;
            }
            options.retryAfterMs = static_cast<int>(n);
        } else if (arg == "--jobs" && a + 1 < argc) {
            std::int64_t n = intArg("--jobs", argv[++a]);
            if (n < 1 || n > 256) {
                std::fprintf(stderr, "pomd: --jobs expects a worker "
                                     "count in [1, 256], got '%s'\n",
                             argv[a]);
                return 2;
            }
            support::setJobs(static_cast<int>(n));
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
    std::fprintf(stderr, "pomd: shutting down after %llu requests\n",
                 static_cast<unsigned long long>(
                     server.requestsServed()));
    return 0;
}
