#include "baselines/baselines.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <optional>
#include <utility>

#include "hls/count.h"
#include "obs/obs.h"
#include "support/diagnostics.h"

namespace pom::baselines {

using transform::PolyStmt;

namespace {

/** Pluto's locality tile edge. */
constexpr std::int64_t kPlutoTile = 32;

/** Estimate @p design under @p eo into @p result, then hold it there. */
void
setDesign(BaselineResult &result, const dsl::Function &func,
          lower::LoweredFunction design,
          const hls::EstimatorOptions &eo = {})
{
    result.report = hls::estimate(func, design, eo);
    result.design =
        std::make_shared<const dse::SelectedDesign>(std::move(design));
}

/**
 * Largest trip count at which the ScaleHLS-like design space still
 * holds tile/unroll/partition; from here on it pipelines only (the
 * Fig. 12 cliff).
 */
constexpr std::int64_t kScaleHlsSizeCliff = 8192;

double
elapsedSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

/** Largest loop trip count of the program (problem-size proxy). */
std::int64_t
maxTrip(const std::vector<PolyStmt> &stmts)
{
    std::int64_t m = 0;
    for (const auto &s : stmts) {
        for (auto t : hls::avgTrips(s.sched.domain))
            m = std::max(m, t);
    }
    return m;
}

/** Pluto-style locality tiling: tile the two innermost levels. */
void
plutoTile(PolyStmt &stmt)
{
    size_t n = stmt.numDims();
    auto trips = hls::avgTrips(stmt.sched.domain);
    // Tile the innermost two loops when they are large enough; this is
    // the locality-oriented schedule Pluto would emit for CPUs.
    if (n >= 2 && trips[n - 1] >= 2 * kPlutoTile &&
        trips[n - 2] >= 2 * kPlutoTile) {
        std::string a = stmt.sched.domain.dimName(n - 2);
        std::string b = stmt.sched.domain.dimName(n - 1);
        transform::tile(stmt, a, b, kPlutoTile, kPlutoTile, a + "_T",
                        b + "_T", a + "_P", b + "_P");
    } else if (trips[n - 1] >= 2 * kPlutoTile) {
        std::string b = stmt.sched.domain.dimName(n - 1);
        transform::split(stmt, b, kPlutoTile, b + "_T", b + "_P");
    }
}

} // namespace

BaselineResult
runUnoptimized(dsl::Function &func)
{
    obs::Span span("driver.runUnoptimized", "driver");
    auto t0 = std::chrono::steady_clock::now();
    BaselineResult result;
    setDesign(result, func, lower::lowerUnscheduled(func));
    result.seconds = elapsedSince(t0);
    result.notes = "no optimization";
    return result;
}

BaselineResult
runPlutoLike(dsl::Function &func)
{
    obs::Span span("driver.runPlutoLike", "driver");
    auto t0 = std::chrono::steady_clock::now();
    auto stmts = lower::extractStmts(func);
    lower::applyDirectives(func, stmts, /*ordering_only=*/true);
    for (auto &s : stmts)
        plutoTile(s);

    BaselineResult result;
    setDesign(result, func, lower::lowerStmts(func, std::move(stmts)));
    result.seconds = elapsedSince(t0);
    result.notes = "locality tiling only (CPU-oriented schedule)";
    return result;
}

BaselineResult
runPolscaLike(dsl::Function &func)
{
    obs::Span span("driver.runPolscaLike", "driver");
    auto t0 = std::chrono::steady_clock::now();
    auto stmts = lower::extractStmts(func);
    lower::applyDirectives(func, stmts, /*ordering_only=*/true);
    for (auto &s : stmts) {
        plutoTile(s);
        // Pipeline the innermost loop; the Pluto schedule has not
        // relieved loop-carried dependences and arrays stay
        // unpartitioned (paper §VII.B).
        transform::setPipeline(
            s, s.sched.domain.dimName(s.numDims() - 1), 1);
    }
    for (const dsl::Placeholder *p : func.placeholders())
        func.findPlaceholderMut(p->name())->clearPartition();

    BaselineResult result;
    setDesign(result, func, lower::lowerStmts(func, std::move(stmts)));
    result.seconds = elapsedSince(t0);
    result.notes = "Pluto schedule + innermost pipelining, no "
                   "partitioning";
    return result;
}

BaselineResult
runScaleHlsLike(dsl::Function &func, const dse::DseOptions &options)
{
    obs::Span span("driver.runScaleHlsLike", "driver");
    auto t0 = std::chrono::steady_clock::now();
    auto stmts = lower::extractStmts(func);
    lower::applyDirectives(func, stmts, /*ordering_only=*/true);
    const hls::Device device = options.budget();
    hls::EstimatorOptions eo;
    eo.sharing = hls::SharingMode::Dataflow;

    // Loop-order optimization: apply the leading statement's preferred
    // interchange uniformly to every statement of the nest. Without
    // split-interchange-merge, conflicting statements lose out (the
    // paper's BICG discussion, Fig. 2(d)).
    {
        std::map<std::int64_t, dse::Hint> nest_hint;
        for (size_t i = 0; i < stmts.size(); ++i) {
            std::int64_t nest = stmts[i].sched.betas[0];
            if (nest_hint.count(nest))
                continue;
            dse::Hint h = dse::suggestHint(stmts[i]);
            if (h.kind == dse::Hint::Kind::Interchange)
                nest_hint[nest] = h;
        }
        for (size_t i = 0; i < stmts.size(); ++i) {
            auto it = nest_hint.find(stmts[i].sched.betas[0]);
            if (it == nest_hint.end())
                continue;
            const dse::Hint &h = it->second;
            if (h.toLevel < stmts[i].numDims() &&
                h.fromLevel < stmts[i].numDims()) {
                transform::interchange(
                    stmts[i], stmts[i].sched.domain.dimName(h.fromLevel),
                    stmts[i].sched.domain.dimName(h.toLevel));
            }
        }
    }

    BaselineResult result;

    // Bounded design space: at very large problem sizes the search
    // degrades to basic pipelining (the Fig. 12 cliff).
    if (maxTrip(stmts) >= kScaleHlsSizeCliff) {
        for (auto &s : stmts) {
            transform::setPipeline(
                s, s.sched.domain.dimName(s.numDims() - 1), 1);
        }
        for (const dsl::Placeholder *p : func.placeholders())
            func.findPlaceholderMut(p->name())->clearPartition();
        setDesign(result, func, lower::lowerStmts(func, std::move(stmts)),
                  eo);
        result.seconds = elapsedSince(t0);
        result.notes = "design space too large; basic pipelining only";
        return result;
    }

    // Greedy per-nest optimization in program order, without bottleneck
    // switching: each nest maximizes its own parallelism against the
    // remaining budget (dataflow accounting: resources accumulate).
    std::map<std::int64_t, std::vector<size_t>> nests;
    for (size_t i = 0; i < stmts.size(); ++i)
        nests[stmts[i].sched.betas[0]].push_back(i);

    std::map<std::int64_t, std::int64_t> degree;
    for (const auto &[nest, members] : nests)
        degree[nest] = 1;

    // ScaleHLS's directive DSE explores tile/unroll factors; model it by
    // trying both the dependence-aware placement and the positional
    // (dependence-oblivious) one and keeping whichever synthesizes
    // better. What it structurally lacks -- split-interchange-merge and
    // skewing -- stays unavailable, so statements in a conflicted nest
    // (BICG) end up with the dependence-oblivious variant only.
    auto evaluateVariant = [&](const std::vector<PolyStmt> &snapshot,
                               bool ignore_carried) {
        std::vector<PolyStmt> base = snapshot;
        std::map<std::string, std::vector<std::int64_t>> partitions;
        for (const auto &[nest, members] : nests) {
            size_t min_level = dse::fusedNestMinLevel(base, members);
            for (size_t m : members) {
                dse::applyParallelSchedule(base[m], degree[nest],
                                           options.innerUnrollCap, func,
                                           partitions, min_level,
                                           ignore_carried);
            }
        }
        dse::applyPartitions(func, partitions);
        BaselineResult r;
        setDesign(r, func, lower::lowerStmts(func, std::move(base)), eo);
        return r;
    };
    auto evaluate = [&](const std::vector<PolyStmt> &snapshot) {
        std::optional<BaselineResult> best;
        for (bool oblivious : {false, true}) {
            try {
                BaselineResult r = evaluateVariant(snapshot, oblivious);
                if (!best ||
                    r.report.latencyCycles < best->report.latencyCycles) {
                    best = std::move(r);
                }
            } catch (const support::FatalError &) {
                // Divergent per-statement placement in a fused nest:
                // this variant is structurally unavailable to ScaleHLS.
            }
        }
        POM_ASSERT(best.has_value(), "no ScaleHLS variant lowered");
        return std::move(*best);
    };

    result = evaluate(stmts);
    for (auto &[nest, members] : nests) {
        while (degree[nest] * 2 <= options.maxParallelism) {
            std::int64_t saved = degree[nest];
            degree[nest] *= 2;
            BaselineResult trial = evaluate(stmts);
            if (!trial.report.resources.fitsIn(device) ||
                trial.report.latencyCycles >= result.report.latencyCycles) {
                degree[nest] = saved;
                break;
            }
            result = std::move(trial);
        }
    }
    // Re-materialize the chosen configuration (restores partitions).
    result = evaluate(stmts);
    result.seconds = elapsedSince(t0);
    result.notes = "interchange + greedy tile/unroll/partition DSE";
    return result;
}

BaselineResult
runPom(dsl::Function &func, const dse::DseOptions &options)
{
    obs::Span span("driver.runPom", "driver");
    dse::DseResult dres = dse::autoDSE(func, options);

    BaselineResult result;
    result.design = std::move(dres.design);
    result.report = std::move(dres.report);
    result.seconds = dres.dseSeconds;
    result.notes = std::string("POM two-stage DSE, ") +
                   dse::strategyName(options.strategy) + " search";
    result.journal = std::move(dres.journal);
    result.frontierRounds = std::move(dres.frontierRounds);
    result.pointCacheHits = dres.pointCacheHits;
    result.pointCacheMisses = dres.pointCacheMisses;
    return result;
}

namespace {

constexpr std::pair<const char *, Framework> kFrameworks[] = {
    {"pom", Framework::Pom},       {"scalehls", Framework::ScaleHls},
    {"polsca", Framework::Polsca}, {"pluto", Framework::Pluto},
    {"none", Framework::None},
};

} // namespace

const char *
frameworkName(Framework framework)
{
    for (const auto &[name, value] : kFrameworks) {
        if (value == framework)
            return name;
    }
    return "none";
}

std::string
frameworkNames()
{
    std::string names;
    for (const auto &[name, value] : kFrameworks)
        names += (names.empty() ? "" : ", ") + std::string(name);
    return names;
}

bool
parseFramework(const std::string &name, Framework &out)
{
    for (const auto &[known, value] : kFrameworks) {
        if (name == known) {
            out = value;
            return true;
        }
    }
    return false;
}

BaselineResult
runFramework(Framework framework, dsl::Function &func,
             const dse::DseOptions &options)
{
    switch (framework) {
      case Framework::Pom: return runPom(func, options);
      case Framework::ScaleHls: return runScaleHlsLike(func, options);
      case Framework::Polsca: return runPolscaLike(func);
      case Framework::Pluto: return runPlutoLike(func);
      case Framework::None: break;
    }
    return runUnoptimized(func);
}

} // namespace pom::baselines
