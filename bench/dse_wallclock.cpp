/**
 * @file
 * Wall-clock benchmark for the parallel, memoized DSE. Six
 * measurements:
 *
 *   1. Workload-level fan-out: the full non-DNN sweep run sequentially
 *      vs. fanned out across a support::ThreadPool (one autoDSE task
 *      per workload), both under support::setJobs(1) so the bench's
 *      own pool is the only source of parallelism.
 *   2. Memoization: the same sweep re-run against the warm
 *      hls::NodeReportCache, plus the design-point hit rate (points
 *      whose every unit was cached, from the dse.cache.* counters).
 *   3. Intra-search parallelism: one DNN search (vgg16) under
 *      support::setJobs(1) vs. setJobs(4), cold caches each time, to
 *      price the parallel dependence analysis on real hardware.
 *   4. Search strategies: the non-DNN sweep once per stage-2 driver
 *      (greedy / beam / anneal), cold caches each, reporting points
 *      explored, final frontier size, wall-clock and point hit rate
 *      per strategy ("bench.dse.strategy.<name>.*" gauges).
 *   5. Disk-warm start: sweep against a node-cache spill loaded from
 *      disk into an empty cache.
 *   6. Incremental estimation: the full 18-workload sweep (non-DNN at
 *      128 plus both DNNs) with every cache cold, reporting its
 *      wall-clock and the per-node report reuse rate
 *      ("bench.dse.incremental.*" gauges).
 *
 * Every cold or disk-warm leg empties the node cache and the
 * dependence memo (transform::clearDependenceMemo), so it never
 * measures a warm memo.
 *
 * Set POM_BENCH_JSON=BENCH_dse.json to capture every printed number as
 * "bench.dse.*" gauges (see bench_util.h). Speedups depend on the host:
 * on a single-core container the pools add little, while the
 * warm-cache run shows the memoization ceiling; CI publishes the JSON
 * so the numbers are tracked per machine class.
 */

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "dse/dse.h"
#include "hls/node_cache.h"
#include "support/thread_pool.h"
#include "transform/poly_stmt.h"

using namespace pom;
using Clock = std::chrono::steady_clock;

namespace {

/** The sweep: every non-DNN workload at size 128. */
const std::vector<std::string> &
sweepNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> out;
        for (const auto &n : workloads::allNames())
            if (n != "vgg16" && n != "resnet18")
                out.push_back(n);
        return out;
    }();
    return names;
}

std::uint64_t
runOne(const std::string &name)
{
    auto w = workloads::makeByName(name, 128);
    return dse::autoDSE(w->func()).report.latencyCycles;
}

double
seconds(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Design points composed entirely from cached nodes, and the rest. */
struct PointCounts
{
    std::int64_t hits = obs::counterValue("dse.cache.hits");
    std::int64_t misses = obs::counterValue("dse.cache.misses");

    /** Hit rate of the points counted since construction. */
    double
    rateSince() const
    {
        PointCounts now;
        double h = static_cast<double>(now.hits - hits);
        double m = static_cast<double>(now.misses - misses);
        return h + m > 0.0 ? h / (h + m) : 0.0;
    }
};

/** Sweep wall-clock; checksum guards against dead-code elimination. */
double
runSweep(int pool_threads, std::uint64_t &checksum)
{
    checksum = 0;
    Clock::time_point t0 = Clock::now();
    if (pool_threads <= 1) {
        for (const auto &name : sweepNames())
            checksum += runOne(name);
        return seconds(t0);
    }
    support::ThreadPool pool(pool_threads);
    std::vector<std::future<std::uint64_t>> futures;
    for (const auto &name : sweepNames())
        futures.push_back(pool.submit([&name]() { return runOne(name); }));
    for (auto &f : futures)
        checksum += f.get();
    return seconds(t0);
}

double
runDnn(int jobs)
{
    auto w = workloads::makeByName("vgg16", 64);
    dse::DseOptions opt;
    // Bounded depth keeps the benchmark under a minute.
    opt.maxParallelism = 4;
    support::setJobs(jobs);
    Clock::time_point t0 = Clock::now();
    dse::autoDSE(w->func(), opt);
    double secs = seconds(t0);
    support::setJobs(0);
    return secs;
}

void
gauge(const std::string &name, double value)
{
    if (obs::metricsEnabled())
        obs::gaugeSet("bench.dse." + name, value);
}

/**
 * The full 18-workload sweep: every non-DNN workload at 128 plus both
 * DNNs at a bounded depth (the section-3 settings).
 */
double
runFullSweep(std::uint64_t &checksum)
{
    checksum = 0;
    Clock::time_point t0 = Clock::now();
    for (const auto &name : sweepNames())
        checksum += runOne(name);
    for (const char *dnn : {"vgg16", "resnet18"}) {
        auto w = workloads::makeByName(dnn, 64);
        dse::DseOptions opt;
        opt.maxParallelism = 4;
        checksum += dse::autoDSE(w->func(), opt).report.latencyCycles;
    }
    return seconds(t0);
}

} // namespace

int
main()
{
    std::string json = benchutil::initBenchMetrics();
    hls::NodeReportCache &nodes = hls::NodeReportCache::global();
    auto clearCaches = [&nodes] {
        nodes.clear();
        transform::clearDependenceMemo();
    };
    const int threads = 4;
    std::printf("DSE wall-clock benchmark (%zu workloads, pool=%d, "
                "hardware_concurrency=%u)\n\n",
                sweepNames().size(), threads,
                std::thread::hardware_concurrency());

    // 1. Workload-level fan-out, cold cache both times.
    support::setJobs(1);
    clearCaches();
    std::uint64_t sum1 = 0, sumN = 0;
    double cold_seq = runSweep(1, sum1);
    clearCaches();
    double cold_par = runSweep(threads, sumN);
    support::setJobs(0);
    if (sum1 != sumN) {
        std::fprintf(stderr, "FATAL: sweep checksum diverged (%llu vs "
                             "%llu)\n",
                     static_cast<unsigned long long>(sum1),
                     static_cast<unsigned long long>(sumN));
        return 1;
    }
    double pool_speedup = cold_par > 0.0 ? cold_seq / cold_par : 0.0;
    std::printf("sweep cold, sequential:   %7.3f s\n", cold_seq);
    std::printf("sweep cold, %d-thread:     %7.3f s  (%.2fx)\n", threads,
                cold_par, pool_speedup);
    gauge("sweep.cold_seq_seconds", cold_seq);
    gauge("sweep.cold_pool_seconds", cold_par);
    gauge("sweep.pool_threads", threads);
    gauge("sweep.pool_speedup", pool_speedup);
    // Deterministic QoR series: the summed best latency across the
    // sweep. Hardware-independent, so the trend gate can hold it to a
    // tight threshold (a change means the search got better or worse,
    // never "the CI machine was busy").
    gauge("sweep.latency_cycles_sum", static_cast<double>(sum1));

    // 2. Memoization: the identical sweep against the node cache the
    // pool run just filled.
    PointCounts warm0;
    std::uint64_t sumW = 0;
    double warm = runSweep(1, sumW);
    double memo_speedup = warm > 0.0 ? cold_seq / warm : 0.0;
    PointCounts warm1;
    double hit_rate = warm0.rateSince();
    if (sumW != sum1) {
        std::fprintf(stderr, "FATAL: warm sweep checksum diverged\n");
        return 1;
    }
    std::printf("sweep warm, sequential:   %7.3f s  (%.2fx, "
                "hit rate %.0f%%)\n",
                warm, memo_speedup, 100.0 * hit_rate);
    gauge("sweep.warm_seconds", warm);
    gauge("sweep.memo_speedup", memo_speedup);
    gauge("cache.hits", static_cast<double>(warm1.hits - warm0.hits));
    gauge("cache.misses",
          static_cast<double>(warm1.misses - warm0.misses));
    gauge("cache.hit_rate", hit_rate);

    // 3. Intra-search parallelism on the deepest workload.
    clearCaches();
    double dnn1 = runDnn(1);
    clearCaches();
    double dnn4 = runDnn(4);
    double jobs4_speedup = dnn4 > 0.0 ? dnn1 / dnn4 : 0.0;
    std::printf("vgg16 search, jobs=1:     %7.3f s\n", dnn1);
    std::printf("vgg16 search, jobs=4:     %7.3f s  (%.2fx)\n", dnn4,
                jobs4_speedup);
    gauge("vgg16.jobs1_seconds", dnn1);
    gauge("vgg16.jobs4_seconds", dnn4);
    gauge("vgg16.jobs4_speedup", jobs4_speedup);

    // 4. The same sweep once per search strategy, cold cache each.
    std::printf("\nper-strategy sweep (cold caches):\n");
    for (auto kind : {dse::StrategyKind::Greedy, dse::StrategyKind::Beam,
                      dse::StrategyKind::Anneal}) {
        clearCaches();
        PointCounts strategy0;
        int points = 0;
        size_t frontier = 0;
        Clock::time_point t0 = Clock::now();
        for (const auto &name : sweepNames()) {
            auto w = workloads::makeByName(name, 128);
            dse::DseOptions opt;
            opt.strategy = kind;
            dse::DseResult res = dse::autoDSE(w->func(), opt);
            points += res.pointsExplored;
            frontier += res.frontier.size();
        }
        double secs = seconds(t0);
        double shit_rate = strategy0.rateSince();
        const std::string sname = dse::strategyName(kind);
        std::printf("  %-7s %5d points, frontier %3zu, %7.3f s, "
                    "hit rate %.0f%%\n",
                    sname.c_str(), points, frontier, secs,
                    100.0 * shit_rate);
        gauge("strategy." + sname + ".points",
              static_cast<double>(points));
        gauge("strategy." + sname + ".frontier_size",
              static_cast<double>(frontier));
        gauge("strategy." + sname + ".seconds", secs);
        gauge("strategy." + sname + ".hit_rate", shit_rate);
    }

    // 5. Disk-warm start: spill the cold sweep's cache, drop it, load
    // the spill back (a daemon restart / `pomc --cache-dir` re-run)
    // and measure the sweep against the disk-loaded entries.
    std::printf("\ndisk-warm sweep (node-cache spill):\n");
    const std::string spill_dir = "BENCH_dse_cache";
    std::filesystem::remove_all(spill_dir);
    clearCaches();
    std::uint64_t sumD = 0;
    double disk_cold = runSweep(1, sumD);
    support::CacheSpillStats save_stats;
    std::string spill_error;
    Clock::time_point t_save = Clock::now();
    if (!nodes.saveDir(spill_dir, save_stats, spill_error)) {
        std::fprintf(stderr, "FATAL: cache spill failed: %s\n",
                     spill_error.c_str());
        return 1;
    }
    double save_secs = seconds(t_save);
    clearCaches();
    support::CacheSpillStats load_stats;
    Clock::time_point t_load = Clock::now();
    if (!nodes.loadDir(spill_dir, load_stats, spill_error)) {
        std::fprintf(stderr, "FATAL: cache load failed: %s\n",
                     spill_error.c_str());
        return 1;
    }
    double load_secs = seconds(t_load);
    PointCounts disk0;
    std::uint64_t sumD2 = 0;
    double disk_warm = runSweep(1, sumD2);
    if (sumD2 != sumD) {
        std::fprintf(stderr, "FATAL: disk-warm sweep checksum "
                             "diverged\n");
        return 1;
    }
    double dhit_rate = disk0.rateSince();
    double disk_speedup = disk_warm > 0.0 ? disk_cold / disk_warm : 0.0;
    std::printf("  spill:  %zu entries written in %.3f s, "
                "loaded %zu in %.3f s\n",
                save_stats.written, save_secs, load_stats.loaded,
                load_secs);
    std::printf("  sweep from disk-warm cache: %7.3f s  (%.2fx, "
                "hit rate %.0f%%)\n",
                disk_warm, disk_speedup, 100.0 * dhit_rate);
    gauge("spill.entries", static_cast<double>(save_stats.written));
    gauge("spill.save_seconds", save_secs);
    gauge("spill.load_seconds", load_secs);
    gauge("spill.warm_seconds", disk_warm);
    gauge("spill.warm_speedup", disk_speedup);
    gauge("spill.hit_rate", dhit_rate);

    // 6. Incremental estimation: the full sweep fully cold (node cache
    // and dependence memo dropped), so every reused node report was
    // produced within the sweep itself.
    std::printf("\nincremental-estimation sweep (18 workloads):\n");
    clearCaches();
    std::uint64_t sumI = 0;
    double inc_incr = runFullSweep(sumI);
    std::uint64_t nhits = nodes.hits(), nmisses = nodes.misses();
    double node_reuse = nhits + nmisses > 0
                            ? static_cast<double>(nhits) /
                                  static_cast<double>(nhits + nmisses)
                            : 0.0;
    std::printf("  sweep cold (per-node reuse): %7.3f s  (node reuse "
                "%.0f%%)\n",
                inc_incr, 100.0 * node_reuse);
    gauge("incremental.incremental_seconds", inc_incr);
    gauge("incremental.node_reuse_rate", node_reuse);

    if (!json.empty())
        std::printf("\nwrote %s\n", json.c_str());
    benchutil::writeBenchMetrics(json);
    return 0;
}
