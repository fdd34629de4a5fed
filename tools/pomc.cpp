/**
 * @file
 * pomc — the POM command-line compiler driver.
 *
 * Usage:
 *   pomc <workload> [size] [--dse] [--framework pom|scalehls|polsca|
 *        pluto|none] [--strategy greedy|beam|anneal] [--resources
 *        FRACTION] [--jobs N] [--emit] [--ast] [--dsl] [--verify]
 *        [--fuzz N] [--seed S] [--timing] [--trace-out FILE]
 *        [--metrics-out FILE] [--dse-journal FILE] [--frontier-out FILE]
 *        [--replay-journal FILE --point ID] [--cache-dir DIR]
 *        [--connect SOCK] [--quiet|-q] [--verbose|-v]
 *   pomc --connect SOCK --daemon-stats [--format text|json|prom]
 *   pomc --connect SOCK --daemon-shutdown
 *   pomc --version
 *
 * Compiles one of the built-in benchmark workloads (see `pomc --list`)
 * and prints the synthesis report; optionally the generated HLS C
 * (--emit), the polyhedral AST (--ast), or the canonical DSL source
 * (--dsl).
 *
 * --verify runs the compiled design through the differential
 * equivalence oracle (interpret it against the unscheduled reference).
 * --fuzz N skips compilation and instead throws N random-but-legal
 * schedules at the workload, shrinking any oracle failure to a minimal
 * DSL reproducer; --seed S makes the run reproducible. Both default to
 * an interpreter-friendly size unless one is given explicitly.
 *
 * --timing prints a `dependences:` line at the end of the run: how
 * many full-vector and carried-level dependence analyses ran (and
 * their combined time) and how many calls the two dependence memos
 * answered (src/transform/poly_stmt.h); and beside it a `trip counts:`
 * line: how many domains hls::avgTrips counted and how many calls its
 * memo answered (src/hls/count.h), e.g. for `pomc vgg16 64 --dse`
 *   dependences: 13 full + 52 carried analyses (0.032871 s), 210 memo hits,
 *   0 evictions
 *   trip counts: 29 counted, 271 memo hits
 *
 * Observability (src/obs):
 *   --trace-out FILE    write a Chrome trace-event JSON of the whole
 *                       run (driver -> lowering stages -> DSE stages
 *                       -> HLS estimator), loadable in chrome://tracing or
 *                       https://ui.perfetto.dev.
 *   --metrics-out FILE  write the flat metrics JSON report
 *                       (dependence and DSE counters, the `hls.*`
 *                       gauges of the printed report, emitter stats).
 *   --dse-journal FILE  write the machine-readable DSE search journal:
 *                       one event per explored design point with the
 *                       applied primitives, estimated latency, resource
 *                       usage and accept/reject verdict, plus stage-1
 *                       decisions and stage-2 bottleneck selections.
 *   --frontier-out FILE write the pom-dse-journal/v2 document: the same
 *                       events plus the per-round Pareto frontier over
 *                       (latency, DSP, BRAM, LUT).
 *
 * A flag that a run would ignore is a usage error (exit 2, naming the
 * flag): --dse-journal, --frontier-out and --strategy require a POM
 * DSE run (--dse or --framework pom) and go with neither
 * --replay-journal nor --fuzz; --seed needs --fuzz or --verify,
 * --point needs --replay-journal and --format needs --daemon-stats;
 * --metrics-out, --trace-out and --timing describe an in-process run
 * and do not go with --connect; a fuzz run compiles no design, so
 * --dse, --framework, --resources, --emit, --ast, --dsl, --verify,
 * --cache-dir and --replay-journal do not go with --fuzz; and a replay
 * neither times nor verifies, so --timing and --verify do not go with
 * --replay-journal.
 *
 * Search strategy (src/dse/strategy.h):
 *   --strategy NAME     stage-2 search driver: greedy (the paper's
 *                       bottleneck walk, the default), beam, or anneal.
 *                       All three record the same journal schema and
 *                       are byte-deterministic run to run.
 *   -q / --quiet        errors only; -v / --verbose: debug diagnostics.
 *
 * Threads:
 *   --jobs N            accepted for older scripts (N in [1, 256]) and
 *                       ignored: a compile runs on the calling thread.
 *
 * Journal replay (src/dse/replayPoint):
 *   --replay-journal FILE --point ID
 *                       skip the search and re-materialize design point
 *                       ID of a previously recorded --dse-journal file:
 *                       re-run stage 1, apply the journaled parallelism
 *                       degrees, lower and estimate. The workload and
 *                       size must match the recording run. Combine with
 *                       --emit to regenerate the point's HLS C.
 *
 * Persistent node cache (src/hls/node_cache.h):
 *   --cache-dir DIR     load the content-addressed per-node report
 *                       spill (DIR/nodes.index + DIR/nodes/) before the
 *                       run and save it after, so a later run (or a
 *                       pomd daemon using the same DIR) composes every
 *                       design point from cached nodes (dse.cache.hits)
 *                       instead of re-estimating. Same on-disk format
 *                       as `pomd --cache-dir`.
 *
 * Daemon client mode (src/service):
 *   --connect SOCK      send the compile to a running `pomd` daemon at
 *                       Unix socket SOCK instead of compiling in
 *                       process. The printed report and any
 *                       --dse-journal/--frontier-out file are
 *                       byte-identical to the one-shot run (the
 *                       daemon's own --metrics-out and --trace-out
 *                       record its requests). "busy"
 *                       backpressure responses are retried with the
 *                       daemon's hint.
 *   --daemon-stats      print the daemon's request/cache counters,
 *                       latency percentiles and uptime. --format picks
 *                       the rendering: "text" (default), "json" (the
 *                       raw stats frame), or "prom" (Prometheus text
 *                       exposition for scraping).
 *   --daemon-shutdown   ask the daemon to spill its cache and exit.
 *   --version           print the POM version (also stamped into the
 *                       wire protocol and the cache spill format).
 *
 * Examples:
 *   pomc gemm 1024 --dse --emit
 *   pomc bicg 4096 --framework scalehls
 *   pomc seidel 256 --dse --ast
 *   pomc gemm --dse --verify
 *   pomc jacobi2d --fuzz 25 --seed 1
 *   pomc gemm 256 --dse --trace-out t.json --dse-journal j.json
 *   pomc gemm 256 --replay-journal j.json --point 5 --emit
 *   pomc gemm 256 --dse --cache-dir .pom-cache
 *   pomc gemm 256 --dse --connect pomd.sock --frontier-out f.json
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>

#include "baselines/baselines.h"
#include "check/fuzzer.h"
#include "check/oracle.h"
#include "dsl/render.h"
#include "dse/dse.h"
#include "dse/strategy.h"
#include "hls/node_cache.h"
#include "obs/journal.h"
#include "obs/obs.h"
#include "service/client.h"
#include "support/diagnostics.h"
#include "support/string_util.h"
#include "support/version.h"
#include "workloads/workloads.h"

using namespace pom;

namespace {

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s <workload> [size] [--dse] "
                 "[--framework pom|scalehls|polsca|pluto|none] "
                 "[--strategy greedy|beam|anneal] "
                 "[--resources FRACTION] [--jobs N (ignored)] [--emit] "
                 "[--ast] [--dsl] [--verify] [--fuzz N] [--seed S] "
                 "[--timing] "
                 "[--trace-out FILE] [--metrics-out FILE] "
                 "[--dse-journal FILE] [--frontier-out FILE] "
                 "[--replay-journal FILE --point ID] "
                 "[--cache-dir DIR] [--connect SOCK] "
                 "[--quiet|-q] [--verbose|-v]\n"
                 "       %s --connect SOCK --daemon-stats "
                 "[--format text|json|prom] | --daemon-shutdown\n"
                 "       %s --version | --list\n"
                 "--dse-journal, --frontier-out and --strategy need "
                 "--dse or --framework pom, without --replay-journal or "
                 "--fuzz;\n"
                 "--seed needs --fuzz or --verify, --point needs "
                 "--replay-journal, --format needs --daemon-stats;\n"
                 "--metrics-out, --trace-out and --timing do not go "
                 "with --connect;\n"
                 "--emit, --ast, --dsl, --verify, --cache-dir and "
                 "--replay-journal do not go with --fuzz;\n"
                 "--timing and --verify do not go with "
                 "--replay-journal.\n",
                 argv0, argv0, argv0);
    return 2;
}

/** Strict flag-argument parsers: reject garbage instead of reading 0. */
std::int64_t
intArg(const char *flag, const char *text)
{
    std::int64_t v = 0;
    if (!support::parseInt64(text, v)) {
        std::fprintf(stderr, "pomc: %s expects an integer, got '%s'\n",
                     flag, text);
        std::exit(2);
    }
    return v;
}

double
doubleArg(const char *flag, const char *text)
{
    double v = 0.0;
    if (!support::parseDouble(text, v)) {
        std::fprintf(stderr, "pomc: %s expects a number, got '%s'\n",
                     flag, text);
        std::exit(2);
    }
    return v;
}

/**
 * The --timing report: dependence analyses of both views and their
 * memo, then the trip counts and theirs.
 */
void
printTiming()
{
    std::printf("\ndependences: %lld full + %lld carried analyses (%.6f s), "
                "%lld memo hits, %lld evictions\n",
                static_cast<long long>(obs::counterValue("dep.analyses")),
                static_cast<long long>(
                    obs::counterValue("dep.carried.analyses")),
                obs::metricValue("dep.analysis_seconds"),
                static_cast<long long>(obs::counterValue("dep.memo.hits")),
                static_cast<long long>(
                    obs::counterValue("dep.memo.evictions")));
    std::printf("trip counts: %lld counted, %lld memo hits\n",
                static_cast<long long>(obs::counterValue("trips.counts")),
                static_cast<long long>(
                    obs::counterValue("trips.memo.hits")));
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage(argv[0]);

    std::string name;
    std::int64_t size = 1024;
    bool size_set = false;
    baselines::Framework framework = baselines::Framework::None;
    dse::DseOptions options; ///< --resources and --strategy
    bool want_emit = false, want_ast = false, want_dsl = false;
    bool want_verify = false, want_timing = false;
    int fuzz_cases = 0;
    unsigned seed = 1;
    std::string trace_out, metrics_out, journal_out, frontier_out;
    std::string replay_journal;
    int replay_point = -1;
    std::string connect_sock, cache_dir;
    bool daemon_stats = false, daemon_shutdown = false;
    std::string stats_format = "text"; ///< --daemon-stats rendering
    // The flags that shape a compile, which a fuzz run does not make.
    bool dse_given = false, framework_given = false;
    bool strategy_given = false, resources_given = false;
    // Flags that only qualify another one.
    bool seed_given = false, format_given = false;

    // --strategy is accepted both space- and '='-separated; an unknown
    // name is a hard error (never a silent fallback to greedy).
    auto parse_strategy = [&options,
                           &strategy_given](const std::string &text) {
        strategy_given = true;
        if (!dse::parseStrategy(text, options.strategy)) {
            std::fprintf(stderr,
                         "pomc: unknown --strategy '%s' (valid: %s)\n",
                         text.c_str(), dse::strategyNames().c_str());
            std::exit(2);
        }
    };

    for (int a = 1; a < argc; ++a) {
        std::string arg = argv[a];
        if (arg == "--list") {
            for (const auto &w : workloads::allNames())
                std::printf("%s\n", w.c_str());
            return 0;
        } else if (arg == "--version") {
            std::printf("pomc %s (protocol %s, cache %s)\n",
                        support::kVersionString, support::kProtocolName,
                        support::kNodeCacheFormatName);
            return 0;
        } else if (arg == "--connect" && a + 1 < argc) {
            connect_sock = argv[++a];
        } else if (arg == "--cache-dir" && a + 1 < argc) {
            cache_dir = argv[++a];
        } else if (arg == "--daemon-stats") {
            daemon_stats = true;
        } else if (arg == "--format" && a + 1 < argc) {
            stats_format = argv[++a];
            format_given = true;
            if (stats_format != "text" && stats_format != "json" &&
                stats_format != "prom") {
                std::fprintf(stderr,
                             "pomc: unknown --format '%s' (valid: "
                             "text, json, prom)\n",
                             stats_format.c_str());
                return 2;
            }
        } else if (arg == "--daemon-shutdown") {
            daemon_shutdown = true;
        } else if (arg == "--trace-out" && a + 1 < argc) {
            trace_out = argv[++a];
        } else if (arg == "--metrics-out" && a + 1 < argc) {
            metrics_out = argv[++a];
        } else if (arg == "--dse-journal" && a + 1 < argc) {
            journal_out = argv[++a];
        } else if (arg == "--frontier-out" && a + 1 < argc) {
            frontier_out = argv[++a];
        } else if (arg == "--strategy" && a + 1 < argc) {
            parse_strategy(argv[++a]);
        } else if (arg.rfind("--strategy=", 0) == 0) {
            parse_strategy(arg.substr(std::string("--strategy=").size()));
        } else if (arg == "--replay-journal" && a + 1 < argc) {
            replay_journal = argv[++a];
        } else if (arg == "--point" && a + 1 < argc) {
            std::int64_t p = intArg("--point", argv[++a]);
            if (p < 0 || p > 1000000) {
                std::fprintf(stderr, "pomc: --point expects a design "
                                     "point index, got '%s'\n", argv[a]);
                return 2;
            }
            replay_point = static_cast<int>(p);
        } else if (arg == "--jobs" && a + 1 < argc) {
            // Still validated; a compile runs on one thread whatever N.
            std::int64_t n = intArg("--jobs", argv[++a]);
            if (n < 1 || n > 256) {
                std::fprintf(stderr, "pomc: --jobs expects a worker "
                                     "count in [1, 256], got '%s'\n",
                             argv[a]);
                return 2;
            }
        } else if (arg == "--quiet" || arg == "-q") {
            support::setDiagLevel(support::DiagLevel::Error);
        } else if (arg == "--verbose" || arg == "-v") {
            support::setDiagLevel(support::DiagLevel::Debug);
        } else if (arg == "--dse") {
            framework = baselines::Framework::Pom;
            dse_given = true;
        } else if (arg == "--framework" && a + 1 < argc) {
            // As --strategy: an unknown name never falls back silently.
            const std::string text = argv[++a];
            framework_given = true;
            if (!baselines::parseFramework(text, framework)) {
                std::fprintf(stderr,
                             "pomc: --framework: unknown framework '%s' "
                             "(valid: %s)\n",
                             text.c_str(),
                             baselines::frameworkNames().c_str());
                return 2;
            }
        } else if (arg == "--resources" && a + 1 < argc) {
            const double fraction = doubleArg("--resources", argv[++a]);
            if (fraction <= 0.0 || fraction > 1.0) {
                std::fprintf(stderr,
                             "pomc: --resources expects a fraction in "
                             "(0, 1], got %g\n", fraction);
                return 2;
            }
            options.resourceFraction = fraction;
            resources_given = true;
        } else if (arg == "--emit") {
            want_emit = true;
        } else if (arg == "--ast") {
            want_ast = true;
        } else if (arg == "--dsl") {
            want_dsl = true;
        } else if (arg == "--verify") {
            want_verify = true;
        } else if (arg == "--timing") {
            want_timing = true;
        } else if (arg == "--fuzz" && a + 1 < argc) {
            std::int64_t n = intArg("--fuzz", argv[++a]);
            if (n <= 0 || n > 1000000) {
                std::fprintf(stderr, "pomc: --fuzz expects a positive "
                                     "case count, got '%s'\n", argv[a]);
                return 2;
            }
            fuzz_cases = static_cast<int>(n);
        } else if (arg == "--seed" && a + 1 < argc) {
            std::int64_t s = intArg("--seed", argv[++a]);
            if (s < 0 || s > 0xffffffffLL) {
                std::fprintf(stderr, "pomc: --seed expects a 32-bit "
                                     "unsigned value, got '%s'\n",
                             argv[a]);
                return 2;
            }
            seed = static_cast<unsigned>(s);
            seed_given = true;
        } else if (!arg.empty() && arg[0] != '-') {
            // First positional token is the workload, second the size.
            if (name.empty()) {
                name = arg;
                continue;
            }
            size = intArg("size", arg.c_str());
            if (size <= 0) {
                std::fprintf(stderr, "pomc: size must be positive, got "
                                     "'%s'\n", arg.c_str());
                return 2;
            }
            size_set = true;
        } else {
            return usage(argv[0]);
        }
    }

    // A flag this run would accept and then ignore is a usage error.
    // A journal and a strategy belong to a POM search; a replay or a
    // fuzz run makes none.
    const char *no_search =
        fuzz_cases > 0 ? "--fuzz searches nothing"
        : !replay_journal.empty() ? "--replay-journal searches nothing"
        : framework != baselines::Framework::Pom
            ? "pass --dse or --framework pom"
            : nullptr;
    for (const auto &[flag, given] :
         {std::pair{"--dse-journal", !journal_out.empty()},
          std::pair{"--frontier-out", !frontier_out.empty()},
          std::pair{"--strategy", strategy_given}}) {
        if (given && no_search) {
            std::fprintf(stderr, "pomc: %s requires a POM DSE run; %s\n",
                         flag, no_search);
            return 2;
        }
    }
    // A flag that only qualifies another one needs that one.
    for (const auto &[flag, given, met, needs] :
         {std::tuple{"--seed", seed_given, fuzz_cases > 0 || want_verify,
                     "--fuzz or --verify"},
          std::tuple{"--point", replay_point >= 0, !replay_journal.empty(),
                     "--replay-journal"},
          std::tuple{"--format", format_given, daemon_stats,
                     "--daemon-stats"}}) {
        if (given && !met) {
            std::fprintf(stderr, "pomc: %s needs %s\n", flag, needs);
            return 2;
        }
    }
    // Under --connect the daemon compiles: the metrics, the trace and
    // the timing lines describe an in-process run (pomd writes its own
    // with --metrics-out and --trace-out).
    for (const auto &[flag, given] :
         {std::pair{"--metrics-out", !metrics_out.empty()},
          std::pair{"--trace-out", !trace_out.empty()},
          std::pair{"--timing", want_timing}}) {
        if (given && !connect_sock.empty()) {
            std::fprintf(stderr,
                         "pomc: %s needs an in-process run, not "
                         "--connect\n",
                         flag);
            return 2;
        }
    }
    // A fuzz run compiles no design of its own, and a replay prints
    // its point's report but neither times nor verifies it.
    for (const auto &[flag, given] :
         {std::pair{"--dse", dse_given},
          std::pair{"--framework", framework_given},
          std::pair{"--resources", resources_given},
          std::pair{"--emit", want_emit}, std::pair{"--ast", want_ast},
          std::pair{"--dsl", want_dsl}, std::pair{"--verify", want_verify},
          std::pair{"--cache-dir", !cache_dir.empty()},
          std::pair{"--replay-journal", !replay_journal.empty()}}) {
        if (given && fuzz_cases > 0) {
            std::fprintf(stderr, "pomc: %s does not go with --fuzz\n",
                         flag);
            return 2;
        }
    }
    for (const auto &[flag, given] :
         {std::pair{"--timing", want_timing},
          std::pair{"--verify", want_verify}}) {
        if (given && !replay_journal.empty()) {
            std::fprintf(stderr,
                         "pomc: %s does not go with --replay-journal\n",
                         flag);
            return 2;
        }
    }

    // Daemon control methods need a socket but no workload.
    if (daemon_stats || daemon_shutdown) {
        if (connect_sock.empty()) {
            std::fprintf(stderr, "pomc: --daemon-stats and "
                                 "--daemon-shutdown require "
                                 "--connect SOCK\n");
            return 2;
        }
        service::Request req;
        req.version = support::kVersionString;
        req.method = daemon_stats ? "stats" : "shutdown";
        service::Response resp;
        std::string error;
        if (!service::callDaemon(connect_sock, req, resp, error)) {
            std::fprintf(stderr, "pomc: %s\n", error.c_str());
            return 1;
        }
        if (resp.status != "ok") {
            std::fprintf(stderr, "pomc: daemon error: %s\n",
                         resp.error.c_str());
            return 1;
        }
        if (daemon_stats && stats_format == "json") {
            // The raw stats frame is already one canonical JSON
            // document; scrapers get exactly what the wire carried.
            std::printf("%s\n", service::encodeResponse(resp).c_str());
        } else if (daemon_stats && stats_format == "prom") {
            std::fputs(service::statsPrometheus(resp).c_str(), stdout);
        } else if (daemon_stats) {
            std::printf("daemon:    %s (version %s, up %.1fs)\n",
                        connect_sock.c_str(), resp.version.c_str(),
                        resp.uptimeSeconds);
            std::printf("requests:  %lld served, %lld queued "
                        "(high-water %lld)\n",
                        static_cast<long long>(resp.requestsServed),
                        static_cast<long long>(resp.queueDepth),
                        static_cast<long long>(resp.queueDepthMax));
            std::printf("cache:     %lld hits, %lld misses (searched "
                        "design points, hit rate %.2f)\n",
                        static_cast<long long>(resp.cacheHits),
                        static_cast<long long>(resp.cacheMisses),
                        resp.cacheHitRate);
            std::printf("results:   %lld hits, %lld entries (compiles "
                        "served without a search)\n",
                        static_cast<long long>(resp.resultMemoHits),
                        static_cast<long long>(resp.resultMemoEntries));
            std::printf("nodes:     %lld hits, %lld misses, %lld "
                        "entries (%lld loaded from disk, hit rate "
                        "%.2f)\n",
                        static_cast<long long>(resp.nodeCacheHits),
                        static_cast<long long>(resp.nodeCacheMisses),
                        static_cast<long long>(resp.nodeCacheSize),
                        static_cast<long long>(resp.nodeCacheLoaded),
                        resp.nodeCacheHitRate);
            if (resp.nodeCacheEvictions > 0) {
                std::printf("evicted:   %lld node entries (FIFO cap)\n",
                            static_cast<long long>(
                                resp.nodeCacheEvictions));
            }
            std::printf("queue ms:  p50 %.3f, p90 %.3f, p99 %.3f "
                        "(%lld samples)\n",
                        resp.queueWaitMs.p50, resp.queueWaitMs.p90,
                        resp.queueWaitMs.p99,
                        static_cast<long long>(resp.queueWaitMs.count));
            std::printf("service ms: p50 %.3f, p90 %.3f, p99 %.3f "
                        "(%lld samples)\n",
                        resp.serviceMs.p50, resp.serviceMs.p90,
                        resp.serviceMs.p99,
                        static_cast<long long>(resp.serviceMs.count));
        } else {
            std::printf("daemon at %s shut down\n",
                        connect_sock.c_str());
        }
        return 0;
    }

    if (name.empty())
        return usage(argv[0]);
    if (!workloads::isKnown(name)) {
        std::fprintf(stderr,
                     "pomc: unknown workload '%s' (try --list)\n",
                     name.c_str());
        return 2;
    }

    // Client mode: ship the compile to a pomd daemon. Journals come
    // back in the response, byte-identical to a one-shot run; local
    // obs stays off so nothing is double-recorded.
    if (!connect_sock.empty()) {
        if (fuzz_cases > 0 || want_verify || !replay_journal.empty() ||
            want_ast || want_dsl || !cache_dir.empty()) {
            std::fprintf(stderr,
                         "pomc: --connect supports plain compile runs "
                         "only (no --fuzz/--verify/--replay-journal/"
                         "--ast/--dsl/--cache-dir; the daemon owns the "
                         "caches)\n");
            return 2;
        }
        if (!journal_out.empty() && !frontier_out.empty()) {
            std::fprintf(stderr,
                         "pomc: --connect returns one journal per "
                         "request; pick --dse-journal or "
                         "--frontier-out\n");
            return 2;
        }
        service::Request req;
        req.version = support::kVersionString;
        req.method = "compile";
        req.workload = name;
        req.size = size;
        req.framework = baselines::frameworkName(framework);
        req.strategy = dse::strategyName(options.strategy);
        req.resourceFraction = options.resourceFraction;
        req.emit = want_emit;
        if (!journal_out.empty())
            req.journal = "v1";
        else if (!frontier_out.empty())
            req.journal = "v2";
        service::Response resp;
        std::string error;
        if (!service::callDaemon(connect_sock, req, resp, error)) {
            std::fprintf(stderr, "pomc: %s\n", error.c_str());
            return 1;
        }
        if (resp.status != "ok") {
            std::fprintf(stderr, "pomc: daemon error: %s\n",
                         resp.error.c_str());
            return 1;
        }
        const std::string &journal_file =
            journal_out.empty() ? frontier_out : journal_out;
        if (!journal_file.empty() &&
            !obs::writeFile(journal_file, resp.journalText)) {
            std::fprintf(stderr, "pomc: cannot write '%s'\n",
                         journal_file.c_str());
            return 1;
        }
        std::printf("workload:  %s (size %lld)\n", name.c_str(),
                    static_cast<long long>(size));
        std::printf("framework: %s (%s)\n",
                    baselines::frameworkName(framework), resp.notes.c_str());
        std::printf("report:    %s\n", resp.reportLine.c_str());
        std::printf("toolchain: %.2f s (daemon at %s)\n", resp.seconds,
                    connect_sock.c_str());
        if (want_emit)
            std::printf("\n---- HLS C ----\n%s", resp.hlsC.c_str());
        return 0;
    }

    if (!trace_out.empty())
        obs::setTracingEnabled(true);
    if (!metrics_out.empty())
        obs::setMetricsEnabled(true);

    // The compile's result; its journal stays empty unless a POM DSE ran.
    baselines::BaselineResult result;

    // Writes the requested observability files on every exit path
    // (including FatalError) once all spans have closed.
    struct ObsFlusher
    {
        std::string trace, metrics, journal;
        const std::vector<obs::JournalEntry> &events;

        ~ObsFlusher()
        {
            if (!trace.empty() &&
                !obs::writeFile(trace, obs::chromeTraceJson())) {
                std::fprintf(stderr, "pomc: cannot write '%s'\n",
                             trace.c_str());
            }
            if (!metrics.empty() &&
                !obs::writeFile(metrics, obs::metricsJson())) {
                std::fprintf(stderr, "pomc: cannot write '%s'\n",
                             metrics.c_str());
            }
            if (!journal.empty() &&
                !obs::writeFile(journal, obs::journalJson(events))) {
                std::fprintf(stderr, "pomc: cannot write '%s'\n",
                             journal.c_str());
            }
        }
    } flusher{trace_out, metrics_out, journal_out, result.journal};

    // Persistent node cache: warm-load before the run, spill on every
    // exit path (the spill is incremental and content-addressed, so
    // re-saving unchanged entries is cheap).
    support::CacheSpillStats cache_stats;
    if (!cache_dir.empty()) {
        std::string error;
        if (!hls::NodeReportCache::global().loadDir(cache_dir,
                                                    cache_stats, error)) {
            std::fprintf(stderr, "pomc: %s\n", error.c_str());
            return 1;
        }
    }

    struct CacheSpiller
    {
        std::string dir;

        ~CacheSpiller()
        {
            support::CacheSpillStats stats;
            std::string error;
            if (!dir.empty() &&
                !hls::NodeReportCache::global().saveDir(dir, stats,
                                                        error)) {
                std::fprintf(stderr, "pomc: node-cache spill failed: "
                                     "%s\n",
                             error.c_str());
            }
        }
    } spiller{cache_dir};

    try {
        obs::Span root_span("pomc:" + name, "tool");
        if (fuzz_cases > 0) {
            check::FuzzOptions fopt;
            fopt.seed = seed;
            fopt.cases = fuzz_cases;
            if (size_set) {
                fopt.size = size;
                const std::int64_t usual = check::defaultFuzzSize(name);
                if (size > usual) {
                    std::fprintf(stderr,
                                 "pomc: note: --fuzz interprets every "
                                 "case at size %lld, above the default "
                                 "%lld for %s; interpreting large sizes "
                                 "can take minutes\n",
                                 static_cast<long long>(size),
                                 static_cast<long long>(usual),
                                 name.c_str());
                }
            }
            check::FuzzResult fres = check::fuzzWorkload(name, fopt);
            std::printf("%s\n", fres.summary().c_str());
            if (want_timing)
                printTiming();
            return fres.ok() ? 0 : 1;
        }

        if (!replay_journal.empty()) {
            if (replay_point < 0) {
                std::fprintf(stderr, "pomc: --replay-journal needs "
                                     "--point ID\n");
                return 2;
            }
            std::ifstream in(replay_journal);
            if (!in) {
                std::fprintf(stderr, "pomc: cannot read '%s'\n",
                             replay_journal.c_str());
                return 1;
            }
            std::ostringstream text;
            text << in.rdbuf();
            std::vector<obs::JournalEntry> entries;
            std::string parse_error;
            if (!obs::parseJournalJson(text.str(), entries,
                                       parse_error)) {
                std::fprintf(stderr, "pomc: '%s' is not a DSE journal: "
                                     "%s\n",
                             replay_journal.c_str(), parse_error.c_str());
                return 1;
            }

            auto w = workloads::makeByName(name, size);
            dse::ReplayResult rr =
                dse::replayPoint(w->func(), entries, replay_point, options);

            std::printf("workload:  %s (size %lld)\n", name.c_str(),
                        static_cast<long long>(size));
            std::printf("replayed:  point %d (%s/%s) from %s\n",
                        replay_point, rr.entry.phase.c_str(),
                        rr.entry.verdict.c_str(),
                        replay_journal.c_str());
            std::printf("primitives: %s\n", rr.primitives.c_str());
            std::printf("report:    %s\n",
                        rr.report.str(options.budget()).c_str());
            hls::publishReportGauges(rr.report);
            if (rr.report.latencyCycles != rr.entry.latencyCycles) {
                std::printf("note:      journaled latency was %llu "
                            "cycles\n",
                            static_cast<unsigned long long>(
                                rr.entry.latencyCycles));
            }
            if (want_dsl) {
                std::printf("\n---- DSL ----\n%s",
                            dsl::renderDsl(w->func()).c_str());
            }
            if (want_ast) {
                std::printf("\n---- polyhedral AST ----\n%s",
                            rr.design->lowered.astRoot->str().c_str());
            }
            if (want_emit) {
                std::printf("\n---- HLS C ----\n%s",
                            rr.design->hlsC().c_str());
            }
            return 0;
        }

        // Verification interprets the design twice; stick to a small
        // problem size unless the user asked for a specific one.
        if (want_verify && !size_set)
            size = check::defaultFuzzSize(name);

        auto w = workloads::makeByName(name, size);
        result = baselines::runFramework(framework, w->func(), options);

        if (!frontier_out.empty() &&
            !obs::writeFile(frontier_out,
                            obs::journalJsonV2(result.journal,
                                               result.frontierRounds))) {
            std::fprintf(stderr, "pomc: cannot write '%s'\n",
                         frontier_out.c_str());
            return 1;
        }

        std::printf("workload:  %s (size %lld)\n", name.c_str(),
                    static_cast<long long>(size));
        std::printf("framework: %s (%s)\n",
                    baselines::frameworkName(framework),
                    result.notes.c_str());
        std::printf("report:    %s\n",
                    result.report.str(options.budget()).c_str());
        hls::publishReportGauges(result.report);
        std::printf("toolchain: %.2f s\n", result.seconds);
        if (!cache_dir.empty()) {
            std::printf("cache:     %lld hits, %lld misses (%zu node "
                        "entries loaded from %s)\n",
                        static_cast<long long>(
                            obs::counterValue("dse.cache.hits")),
                        static_cast<long long>(
                            obs::counterValue("dse.cache.misses")),
                        cache_stats.loaded, cache_dir.c_str());
        }

        if (want_verify) {
            check::OracleResult res =
                check::checkLowered(w->func(), result.design->lowered,
                                    seed);
            if (res.equivalent) {
                std::printf("verify:    PASS (seed %u, %llu ref / %llu "
                            "scheduled interpreter steps)\n",
                            seed,
                            static_cast<unsigned long long>(res.refWork),
                            static_cast<unsigned long long>(res.testWork));
            } else {
                std::printf("verify:    FAIL\n%s\n", res.message.c_str());
                return 1;
            }
        }

        if (want_dsl) {
            std::printf("\n---- DSL ----\n%s",
                        dsl::renderDsl(w->func()).c_str());
        }
        if (want_ast) {
            std::printf("\n---- polyhedral AST ----\n%s",
                        result.design->lowered.astRoot->str().c_str());
        }
        if (want_emit) {
            std::printf("\n---- HLS C ----\n%s",
                        result.design->hlsC().c_str());
        }
        if (want_timing)
            printTiming();
        return 0;
    } catch (const pom::support::FatalError &e) {
        std::fprintf(stderr, "pomc: %s\n", e.what());
        return 1;
    }
}
