#include "dse/dse.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <utility>

#include "check/oracle.h"
#include "emit/hls_emitter.h"
#include "hls/count.h"
#include "hls/node_cache.h"
#include "obs/journal.h"
#include "obs/obs.h"
#include "support/diagnostics.h"
#include "support/string_util.h"

namespace pom::dse {

using transform::PolyStmt;

SelectedDesign::SelectedDesign(lower::LoweredFunction design)
    : lowered(std::move(design))
{}

const std::string &
SelectedDesign::hlsC() const
{
    std::call_once(emitted_,
                   [this] { hlsC_ = emit::emitHlsC(*lowered.func); });
    return hlsC_;
}

double
DseResult::speedup() const
{
    return report.speedupOver(baseline);
}

namespace {

/** Stage-1 iteration bound (paper: "pre-defined bounds"). */
constexpr int kMaxStage1Iterations = 6;

/** Buffer fill seed of DseOptions::verifyEachPoint's oracle runs. */
constexpr unsigned kVerifySeed = 1;

/** A fused optimization unit: statements sharing a top-level nest. */
struct Unit
{
    std::vector<size_t> members; ///< indices into the statement vector
    std::int64_t degree = 1;
};

/**
 * One unit's scheduled statements under a fixed degree, with the
 * partition factors its unrolled loops demand, its node key up to the
 * bankings (the key head plus each member's schedule fragment) and the
 * names of the arrays whose bankings complete the key.
 */
struct UnitSchedule
{
    /**
     * The scheduled statements, in member order (= unit.members), and
     * from the schedule's first node-cache miss on their AST: it
     * depends on the statements alone, so a later miss -- the same
     * schedule under other bankings -- estimates against it
     * (`dse.node_asts` counts the builds).
     */
    lower::LoweredFunction node;
    hls::PartitionPlan partitions;
    hls::NodeKey key;
    /** The arrays the members access, in name order. */
    std::vector<std::string> arrays;
};

/**
 * RAII sampler for the per-point estimate-latency histogram. Gated on
 * metricsEnabled() so the DSE hot loop pays one atomic load when
 * metrics are off.
 */
struct PointLatencyTimer
{
    bool active = obs::metricsEnabled();
    std::chrono::steady_clock::time_point t0 =
        std::chrono::steady_clock::now();

    ~PointLatencyTimer()
    {
        if (!active)
            return;
        obs::histogramRecord(
            "dse.point_ms",
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - t0)
                .count());
    }
};

/** Number of leading schedule levels all members share. */
size_t
sharedDepth(const std::vector<PolyStmt> &stmts,
            const std::vector<size_t> &members)
{
    if (members.size() < 2)
        return 0;
    size_t depth = SIZE_MAX;
    const auto &first = stmts[members[0]].sched.betas;
    for (size_t m = 1; m < members.size(); ++m) {
        const auto &other = stmts[members[m]].sched.betas;
        size_t common = 0;
        size_t limit = std::min(first.size(), other.size());
        while (common < limit && first[common] == other[common])
            ++common;
        depth = std::min(depth, common);
    }
    return depth == SIZE_MAX ? 0 : depth;
}

/** Group statements by their top-level beta coordinate. */
std::vector<Unit>
groupUnits(const std::vector<PolyStmt> &stmts)
{
    std::map<std::int64_t, Unit> by_beta;
    for (size_t i = 0; i < stmts.size(); ++i)
        by_beta[stmts[i].sched.betas[0]].members.push_back(i);
    std::vector<Unit> units;
    for (auto &[beta, unit] : by_beta)
        units.push_back(std::move(unit));
    return units;
}

bool
anyProducerRelation(const std::vector<PolyStmt> &stmts,
                    const std::vector<size_t> &members)
{
    for (size_t a : members) {
        for (size_t b : members) {
            if (a == b)
                continue;
            if (poly::producesFor(stmts[a].accesses, stmts[b].accesses))
                return true;
        }
    }
    return false;
}

/** Per-level loop-carried flags of a statement with dependences @p deps. */
std::vector<bool>
carriedLevels(const PolyStmt &stmt,
              const std::vector<poly::CarriedDependence> &deps)
{
    std::vector<bool> carried(stmt.numDims(), false);
    for (const auto &d : deps)
        carried[d.level] = true;
    return carried;
}

/** Per-level loop-carried flags of a statement. */
std::vector<bool>
carriedLevels(const PolyStmt &stmt)
{
    return carriedLevels(stmt, transform::carriedDependences(stmt));
}

/**
 * Give @p stmt @p deps as its carried view, each dependence's level
 * moved to the position of the loop @p loops names for it, the loop
 * that carried it before the schedule. Exact when the schedule only
 * strip-mined and reordered loops that carry nothing: a carrying loop
 * keeps its name, and the polytope of each (source, sink, level)
 * triple is the old one under a change of variables. If a carrying
 * loop was split, and so lost its name, @p stmt keeps no view.
 */
void
inheritCarried(PolyStmt &stmt, std::vector<poly::CarriedDependence> deps,
               const std::vector<std::string> &loops)
{
    for (size_t i = 0; i < deps.size(); ++i) {
        std::optional<size_t> level = stmt.sched.domain.findDim(loops[i]);
        if (!level)
            return;
        deps[i].level = *level;
    }
    stmt.carried = std::make_shared<const std::vector<poly::CarriedDependence>>(
        std::move(deps));
}

/** 0, 1, ..., n-1 with positions @p a and @p b swapped. */
std::vector<size_t>
swappedOrder(size_t n, size_t a, size_t b)
{
    std::vector<size_t> order(n);
    for (size_t i = 0; i < n; ++i)
        order[i] = i;
    std::swap(order[a], order[b]);
    return order;
}

/**
 * Level carrying a dependence after permuting its distance vector, or
 * the dimension count when the carrying level cannot be proven to move
 * off the innermost position (unknown signs are conservative).
 */
size_t
carriedLevelAfterPerm(const poly::Dependence &dep,
                      const std::vector<size_t> &order)
{
    size_t n = order.size();
    for (size_t pos = 0; pos < n; ++pos) {
        size_t k = order[pos];
        if (dep.distLo[k] && *dep.distLo[k] > 0)
            return pos;
        if (dep.distLo[k] && dep.distHi[k] && *dep.distLo[k] == 0 &&
            *dep.distHi[k] == 0) {
            continue;
        }
        return n; // unknown sign: assume the worst
    }
    return n;
}

/**
 * Canonical digest of the function's compute semantics -- everything
 * the estimator can observe that the schedule fragments do not
 * already cover: array shapes/types and the statement expressions.
 * The head of every node key (hls::NodeKey::ofFunction()).
 */
std::string
functionDigest(const dsl::Function &func)
{
    std::ostringstream os;
    os << "fn " << func.name() << "\n";
    for (const dsl::Placeholder *p : func.placeholders()) {
        os << "ph " << p->name() << " t="
           << static_cast<int>(p->elementType()) << " [";
        for (auto d : p->shape())
            os << d << ",";
        os << "]\n";
    }
    for (const dsl::Compute *c : func.computes()) {
        os << "st " << c->name() << " " << c->dest().str() << " := "
           << c->rhs().str() << "\n";
    }
    return os.str();
}

/** Parse "S0:degree=4, S1:degree=2; partition ..." back into degrees. */
std::map<std::string, std::int64_t>
parsePrimitiveDegrees(const std::string &primitives)
{
    std::map<std::string, std::int64_t> out;
    std::string head = primitives.substr(0, primitives.find(';'));
    std::istringstream is(head);
    std::string tok;
    while (std::getline(is, tok, ',')) {
        size_t b = tok.find_first_not_of(" \t");
        if (b == std::string::npos)
            continue;
        tok = tok.substr(b);
        size_t sep = tok.find(":degree=");
        if (sep == std::string::npos) {
            support::fatal("replay: malformed primitives token '" + tok +
                           "' (expected NAME:degree=N)");
        }
        std::int64_t degree = 0;
        if (!support::parseInt64(tok.substr(sep + 8), degree) ||
            degree < 1) {
            support::fatal("replay: bad parallelism degree in '" + tok +
                           "'");
        }
        out[tok.substr(0, sep)] = degree;
    }
    return out;
}

} // namespace

bool
interchangeIsLegal(const std::vector<poly::Dependence> &deps, size_t a,
                   size_t b)
{
    for (const auto &d : deps) {
        size_t n = d.distLo.size();
        POM_ASSERT(a < n && b < n, "interchange level out of range");
        std::vector<size_t> order = swappedOrder(n, a, b);
        // The permuted distance vector must stay lexicographically
        // positive. Unknown entries are conservatively illegal unless a
        // strictly positive entry precedes them; an all-zero vector
        // cannot be carried.
        for (size_t pos = 0; pos < n; ++pos) {
            size_t k = order[pos];
            if (d.distLo[k] && *d.distLo[k] > 0)
                break; // strictly positive first -> legal dep
            if (!d.distLo[k] || !d.distHi[k] || *d.distLo[k] != 0 ||
                *d.distHi[k] != 0) {
                return false; // could be negative first -> illegal
            }
        }
    }
    return true;
}

Hint
suggestHint(const PolyStmt &stmt)
{
    size_t n = stmt.numDims();
    Hint hint;
    if (n < 2)
        return hint;
    std::vector<bool> carried = carriedLevels(stmt);
    if (!carried[n - 1])
        return hint;
    const std::vector<poly::Dependence> deps =
        transform::selfDependences(stmt);

    // Step 1: a dependence-free outer level that can legally move
    // innermost (the Fig. 8 guidance for GEMM-style reductions).
    for (size_t l = 0; l < n - 1; ++l) {
        if (!carried[l] && interchangeIsLegal(deps, l, n - 1)) {
            hint.kind = Hint::Kind::Interchange;
            hint.fromLevel = l;
            hint.toLevel = n - 1;
            return hint;
        }
    }

    // Step 2: no free level; an interchange may still pull every
    // dependence off the innermost position (this is what makes a
    // skewed Seidel nest converge: skew first, then interchange).
    for (size_t l = 0; l + 1 < n; ++l) {
        if (!interchangeIsLegal(deps, l, n - 1))
            continue;
        std::vector<size_t> order = swappedOrder(n, l, n - 1);
        bool frees_innermost = true;
        for (const auto &d : deps) {
            if (carriedLevelAfterPerm(d, order) >= n - 1) {
                frees_innermost = false;
                break;
            }
        }
        if (frees_innermost) {
            hint.kind = Hint::Kind::Interchange;
            hint.fromLevel = l;
            hint.toLevel = n - 1;
            return hint;
        }
    }

    // If some level is dependence-free, stage 2 can still extract
    // parallelism there (unroll the free level, pipeline above the
    // reduction suffix, e.g. convolutions) -- no restructuring needed.
    for (size_t l = 0; l < n; ++l) {
        if (!carried[l])
            return hint; // Kind::None
    }

    // Step 3: every level carries a dependence; restructure the
    // iteration space (paper §VI.A: "leverage other transformations such
    // as loop splitting and loop skewing").
    hint.kind = Hint::Kind::Skew;
    return hint;
}

void
applyParallelSchedule(PolyStmt &stmt, std::int64_t degree,
                      std::int64_t inner_cap, const dsl::Function &func,
                      std::map<std::string, std::vector<std::int64_t>>
                          &partitions, size_t min_level,
                      bool ignore_carried)
{
    size_t n = stmt.numDims();
    std::vector<poly::CarriedDependence> deps =
        transform::carriedDependences(stmt);
    std::vector<std::string> carrying_loops;
    for (const auto &d : deps)
        carrying_loops.push_back(stmt.sched.domain.dimName(d.level));
    auto carried = carriedLevels(stmt, deps);
    if (ignore_carried)
        carried.assign(n, false);
    auto trips = hls::avgTrips(stmt.sched.domain);

    int inner = -1;
    for (int l = static_cast<int>(n) - 1;
         l >= static_cast<int>(min_level); --l) {
        if (!carried[l]) {
            inner = l;
            break;
        }
    }
    if (inner < 0 || degree == 1) {
        transform::setPipeline(stmt, stmt.sched.domain.dimName(n - 1), 1);
        inheritCarried(stmt, std::move(deps), carrying_loops);
        return;
    }
    int outer = (inner > static_cast<int>(min_level) &&
                 !carried[inner - 1])
                    ? inner - 1
                    : -1;

    std::int64_t f_inner = std::min({degree, inner_cap, trips[inner]});
    std::int64_t f_outer = 1;
    if (outer >= 0 && f_inner < degree) {
        f_outer = std::min(degree / std::max<std::int64_t>(1, f_inner),
                           trips[outer]);
    }

    std::string inner_name = stmt.sched.domain.dimName(inner);
    std::string outer_name =
        outer >= 0 ? stmt.sched.domain.dimName(outer) : "";

    std::vector<std::string> unrolled;
    std::string pipeline_at;

    if (f_inner >= trips[inner]) {
        transform::setUnroll(stmt, inner_name, 0);
        unrolled.push_back(inner_name);
    } else {
        transform::split(stmt, inner_name, f_inner, inner_name + "_o",
                         inner_name + "_i");
        transform::setUnroll(stmt, inner_name + "_i", 0);
        unrolled.push_back(inner_name + "_i");
        pipeline_at = inner_name + "_o";
    }

    if (f_outer > 1) {
        if (f_outer >= trips[outer]) {
            transform::setUnroll(stmt, outer_name, 0);
            unrolled.push_back(outer_name);
        } else {
            transform::split(stmt, outer_name, f_outer, outer_name + "_o",
                             outer_name + "_i");
            transform::setUnroll(stmt, outer_name + "_i", 0);
            unrolled.push_back(outer_name + "_i");
            // Point loops innermost (the Fig. 6 tile order).
            if (!pipeline_at.empty()) {
                transform::interchange(stmt, outer_name + "_i",
                                       pipeline_at);
            }
        }
    }

    if (pipeline_at.empty()) {
        // The free levels were fully unrolled without a split. Pipeline
        // the loop just below the deepest unrolled level so that any
        // remaining (reduction) loops flatten into the pipeline; if the
        // unrolled block reaches the innermost level, fall back to the
        // innermost non-unrolled loop above it.
        auto is_unrolled = [&](const std::string &name) {
            return std::find(unrolled.begin(), unrolled.end(), name) !=
                   unrolled.end();
        };
        int deepest = -1;
        for (const std::string &u : unrolled) {
            deepest = std::max(deepest,
                               static_cast<int>(stmt.dimIndex(u)));
        }
        if (deepest >= 0 &&
            deepest + 1 < static_cast<int>(stmt.numDims())) {
            pipeline_at = stmt.sched.domain.dimName(deepest + 1);
        } else {
            for (int l = static_cast<int>(stmt.numDims()) - 1; l >= 0;
                 --l) {
                std::string name = stmt.sched.domain.dimName(l);
                if (!is_unrolled(name)) {
                    pipeline_at = name;
                    break;
                }
            }
        }
    }
    if (!pipeline_at.empty())
        transform::setPipeline(stmt, pipeline_at, 1);
    // Every split and the interchange above moved loops that carry
    // nothing, unless ignore_carried split a carrying one.
    inheritCarried(stmt, std::move(deps), carrying_loops);

    auto accesses = stmt.transformedAccesses();
    auto final_trips = hls::avgTrips(stmt.sched.domain);
    for (const std::string &uname : unrolled) {
        size_t udim = stmt.dimIndex(uname);
        std::int64_t copies = final_trips[udim];
        for (const auto &acc : accesses) {
            const dsl::Placeholder *p = func.findPlaceholder(acc.array);
            POM_ASSERT(p != nullptr, "unknown array in DSE");
            auto &factors = partitions[acc.array];
            factors.resize(p->shape().size(), 1);
            for (size_t r = 0; r < acc.map.numResults(); ++r) {
                if (acc.map.result(r).coeff(udim) == 0)
                    continue;
                std::int64_t f =
                    std::min<std::int64_t>(copies, p->shape()[r]);
                factors[r] = std::max(factors[r], f);
            }
        }
    }
}

size_t
fusedNestMinLevel(const std::vector<PolyStmt> &stmts,
                  const std::vector<size_t> &members)
{
    if (members.size() > 1 && anyProducerRelation(stmts, members))
        return sharedDepth(stmts, members);
    return 0;
}

void
applyPartitions(dsl::Function &func,
                const std::map<std::string, std::vector<std::int64_t>>
                    &partitions)
{
    for (const dsl::Placeholder *p : func.placeholders()) {
        dsl::Placeholder *mp = func.findPlaceholderMut(p->name());
        auto it = partitions.find(p->name());
        if (it == partitions.end()) {
            mp->clearPartition();
            continue;
        }
        bool any = false;
        for (auto f : it->second)
            any |= f > 1;
        if (any)
            mp->partition(it->second, "cyclic");
        else
            mp->clearPartition();
    }
}

namespace {

class Engine final : public Search
{
  public:
    Engine(dsl::Function &func, const DseOptions &options)
        : func_(func), opt_(options),
          device_(options.budget()),
          keyHead_(hls::NodeKey::ofFunction(functionDigest(func))),
          costLine_(hls::opCostsLine(hls::kOpCosts))
    {
        obs::counterAdd("dse.node_asts", 0);
    }

    DseResult
    run()
    {
        obs::Span span("dse.autoDSE", "dse");
        auto t0 = std::chrono::steady_clock::now();
        DseResult result;

        std::vector<PolyStmt> stmts = lower::extractStmts(func_);

        // Baseline: the unscheduled program.
        {
            obs::Span baseline_span("dse.baseline", "dse");
            result.baseline = baselineReport(stmts);
            recordPoint("baseline", "(unscheduled)", result.baseline,
                        "info", "unoptimized reference design");
            frontierInsert(result.baseline, "(unscheduled)", points_);
        }

        lower::applyDirectives(func_, stmts);

        {
            obs::Span stage1_span("dse.stage1", "dse");
            stage1(stmts);
        }
        {
            obs::Span stage2_span("dse.stage2", "dse");
            stage2(stmts, result);
        }

        auto t1 = std::chrono::steady_clock::now();
        result.dseSeconds =
            std::chrono::duration<double>(t1 - t0).count();
        obs::accumulate("dse.seconds", result.dseSeconds);
        result.pointsExplored = points_;
        result.pointsVerified = verified_;
        result.pointCacheHits = pointCacheHits_;
        result.pointCacheMisses = pointCacheMisses_;
        result.journal = std::move(journal_);
        result.frontierRounds = std::move(frontierRounds_);
        span.arg("points_explored", static_cast<std::int64_t>(points_));
        return result;
    }

    /** Re-materialize one journaled design point (replayPoint()). */
    ReplayResult
    replay(const obs::JournalEntry &entry)
    {
        obs::Span span("dse.replay", "dse");
        ReplayResult out;
        out.entry = entry;

        if (entry.primitives == "(unscheduled)") {
            // The baseline point: ordering-only directives, no search.
            out.design = std::make_shared<const SelectedDesign>(
                lower::lowerUnscheduled(func_));
            out.report = hls::estimate(func_, out.design->lowered);
            out.primitives = entry.primitives;
            return out;
        }

        auto degrees = parsePrimitiveDegrees(entry.primitives);

        // Stage 1 is deterministic: re-running it reproduces the
        // statement schedules the journaled degrees were applied to.
        std::vector<PolyStmt> stmts = lower::extractStmts(func_);
        lower::applyDirectives(func_, stmts);
        stage1(stmts);

        auto units = groupUnits(stmts);
        for (auto &u : units) {
            const std::string &name = stmts[u.members[0]].sched.name;
            auto it = degrees.find(name);
            if (it == degrees.end()) {
                support::fatal(
                    "replay: journal names no parallelism degree for "
                    "statement '" + name +
                    "' -- was it recorded from this workload?");
            }
            u.degree = it->second;
        }

        Candidate c = evaluatePoint(stmts, units, Point::Design);
        if (c.eval.primitives != entry.primitives) {
            support::fatal(
                "replay: re-derived primitives do not match the "
                "journal entry -- the function differs from the one "
                "the journal was recorded from.\n  journal:  " +
                entry.primitives + "\n  replayed: " + c.eval.primitives);
        }
        out.design = std::move(c.design);
        out.report = std::move(c.eval.report);
        out.primitives = std::move(c.eval.primitives);
        return out;
    }

  private:
    // ----- search journal -----------------------------------------------

    /** Journal one explored design point with its verdict. */
    void
    recordPoint(const std::string &phase, const std::string &primitives,
                const hls::SynthesisReport &report,
                const std::string &verdict, const std::string &reason)
    {
        obs::JournalEntry e;
        e.kind = "point";
        e.phase = phase;
        e.point = points_;
        e.primitives = primitives;
        e.latencyCycles = report.latencyCycles;
        e.dsp = report.resources.dsp;
        e.bramBits = report.resources.bramBits;
        e.lut = report.resources.lut;
        e.ff = report.resources.ff;
        e.verdict = verdict;
        e.reason = reason;
        journal_.push_back(std::move(e));
    }

    /** Journal a search decision (also a Debug diagnostic). */
    void
    note(const std::string &kind, const std::string &phase,
         const std::string &detail) override
    {
        support::diag(support::DiagLevel::Debug, detail);
        obs::JournalEntry e;
        e.kind = kind;
        e.phase = phase;
        e.detail = detail;
        journal_.push_back(std::move(e));
    }

    // ----- Stage 1: dependence-aware code transformation ----------------

    void
    stage1(std::vector<PolyStmt> &stmts)
    {
        // Remember the original top-level grouping for re-fusion.
        std::map<size_t, std::int64_t> orig_group;
        for (size_t i = 0; i < stmts.size(); ++i)
            orig_group[i] = stmts[i].sched.betas[0];

        int skew_counter = 0;
        for (int iter = 0; iter < kMaxStage1Iterations; ++iter) {
            // Every hint of this iteration, from the statements as they
            // are before any of its transforms.
            std::vector<Hint> hints;
            hints.reserve(stmts.size());
            for (const PolyStmt &stmt : stmts)
                hints.push_back(suggestHint(stmt));
            auto agree = [&](const Unit &unit) {
                for (size_t m : unit.members) {
                    if (hints[m] != hints[unit.members[0]])
                        return false;
                }
                return true;
            };
            bool changed = false;

            // Resolve conflicting strategies inside fused nests by
            // splitting the nest (Fig. 10 step 1).
            auto units = groupUnits(stmts);
            for (const auto &unit : units) {
                if (agree(unit))
                    continue;
                if (anyProducerRelation(stmts, unit.members)) {
                    note("stage1", "stage1",
                         "stage1: conflicting hints in fused nest "
                         "but distribution is illegal; skipping");
                    continue;
                }
                std::int64_t next_beta = maxBeta(stmts) + 16;
                for (size_t m = 1; m < unit.members.size(); ++m) {
                    stmts[unit.members[m]].sched.betas[0] = next_beta;
                    next_beta += 16;
                }
                note("stage1", "stage1",
                     "stage1: split fused nest to resolve "
                     "conflicting transformation strategies");
                changed = true;
            }
            if (changed) {
                continue; // re-analyze with the new grouping
            }

            // Apply per-statement hints. Members of a (still) fused nest
            // have identical hints here; apply positionally to each.
            units = groupUnits(stmts);
            for (const auto &unit : units) {
                size_t shared = sharedDepth(stmts, unit.members);
                const Hint &hint = hints[unit.members[0]];
                if (unit.members.size() > 1) {
                    if (!agree(unit)) {
                        // Conflicting hints survive only when the nest
                        // could not be distributed (producer relation).
                        note("stage1", "stage1",
                             "stage1: conflicting hints in an "
                             "undistributable nest; skipping");
                        continue;
                    }
                    // Identical hints: applying the same transform to
                    // every member keeps bounds equal. Touching shared
                    // levels is only safe when no data flows between
                    // the members (a common permutation preserves
                    // aligned cross dependences).
                    if (hint.kind != Hint::Kind::None &&
                        hint.fromLevel < shared &&
                        anyProducerRelation(stmts, unit.members)) {
                        note("stage1", "stage1",
                             "stage1: hint touches a shared loop "
                             "of a producer/consumer nest; skipping");
                        continue;
                    }
                }
                for (size_t m : unit.members) {
                    PolyStmt &stmt = stmts[m];
                    const Hint &h = hints[m];
                    if (h.kind == Hint::Kind::Interchange) {
                        transform::interchange(
                            stmt, stmt.sched.domain.dimName(h.fromLevel),
                            stmt.sched.domain.dimName(h.toLevel));
                        note("stage1", "stage1",
                             "stage1: interchange " + stmt.sched.name);
                        changed = true;
                    } else if (h.kind == Hint::Kind::Skew) {
                        size_t n = stmt.numDims();
                        std::string outer = stmt.sched.domain.dimName(n - 2);
                        std::string inner = stmt.sched.domain.dimName(n - 1);
                        std::string fresh =
                            inner + "_sk" + std::to_string(skew_counter++);
                        transform::skew(stmt, outer, inner, 1, outer,
                                        fresh);
                        note("stage1", "stage1",
                             "stage1: skew " + stmt.sched.name);
                        changed = true;
                    }
                }
            }
            if (!changed)
                break;
        }

        refuse(stmts, orig_group);
    }

    static std::int64_t
    maxBeta(const std::vector<PolyStmt> &stmts)
    {
        std::int64_t m = 0;
        for (const auto &s : stmts)
            m = std::max(m, s.sched.betas[0]);
        return m;
    }

    /** Conservative re-fusion of previously split nests (Fig. 10 (3)). */
    void
    refuse(std::vector<PolyStmt> &stmts,
           const std::map<size_t, std::int64_t> &orig_group)
    {
        for (size_t a = 0; a < stmts.size(); ++a) {
            for (size_t b = a + 1; b < stmts.size(); ++b) {
                if (orig_group.at(a) != orig_group.at(b))
                    continue; // were never fused
                if (stmts[a].sched.betas[0] == stmts[b].sched.betas[0])
                    continue; // still fused
                if (stmts[a].numDims() != stmts[b].numDims())
                    continue;
                if (poly::producesFor(stmts[a].accesses,
                                      stmts[b].accesses) ||
                    poly::producesFor(stmts[b].accesses,
                                      stmts[a].accesses)) {
                    continue; // data flows between them: stay split
                }
                bool bounds_match = true;
                for (size_t l = 0; l < stmts[a].numDims(); ++l) {
                    if (!(stmts[a].sched.domain.boundsForCodegen(l) ==
                          stmts[b].sched.domain.boundsForCodegen(l))) {
                        bounds_match = false;
                        break;
                    }
                }
                if (!bounds_match)
                    continue;
                transform::fuseInto(stmts[b], stmts[a]);
                note("stage1", "stage1",
                     "stage1: conservatively re-fused " +
                         stmts[a].sched.name + " and " +
                         stmts[b].sched.name);
            }
        }
    }

    // ----- Stage 2: strategy-driven design space exploration -------------
    //
    // The search trajectory belongs to a strategy (dse/strategy.h:
    // greedy / beam / anneal), a plain loop that calls back into this
    // engine through the Search interface: evaluate() estimates,
    // numbers and offers one point to the Pareto frontier, point()/
    // note()/event() journal, endRound() snapshots the frontier.
    // Every point is evaluated once, on this thread, in the strategy's
    // order, so the journal -- v1 events and v2 frontier sections
    // alike -- is the same on every run.

    PointEval
    evaluate(const std::vector<std::int64_t> &degrees) override
    {
        std::vector<Unit> units = unitsAt(degrees);
        PointEval ev = evaluatePoint(*base_, units, Point::Search).eval;
        ++points_;
        roundEvaluated_ = true;
        frontierInsert(ev.report, ev.primitives, points_);
        return ev;
    }

    void
    point(const PointEval &ev, const std::string &verdict,
          const std::string &reason) override
    {
        recordPoint("stage2", ev.primitives, ev.report, verdict, reason);
    }

    void
    event(const obs::JournalEntry &entry) override
    {
        journal_.push_back(entry);
    }

    void
    endRound() override
    {
        if (roundEvaluated_)
            snapshotFrontier();
        roundEvaluated_ = false;
    }

    /** The stage-2 units at per-unit @p degrees. */
    std::vector<Unit>
    unitsAt(const std::vector<std::int64_t> &degrees) const
    {
        std::vector<Unit> units = units_;
        for (size_t i = 0; i < units.size(); ++i)
            units[i].degree = degrees[i];
        return units;
    }

    /** Offer a feasible estimated point to the Pareto frontier. */
    void
    frontierInsert(const hls::SynthesisReport &report,
                   const std::string &primitives, int point)
    {
        if (!report.resources.fitsIn(device_))
            return;
        FrontierPoint p;
        p.point = point;
        p.primitives = primitives;
        p.latencyCycles = report.latencyCycles;
        p.dsp = report.resources.dsp;
        p.bramBits = report.resources.bramBits;
        p.lut = report.resources.lut;
        switch (frontier_.insert(p)) {
          case ParetoFrontier::Insert::Added:
            obs::counterAdd("dse.frontier.inserts");
            break;
          case ParetoFrontier::Insert::Dominated:
            obs::counterAdd("dse.frontier.dominated");
            break;
          case ParetoFrontier::Insert::Duplicate:
            break;
        }
        obs::gaugeSet("dse.frontier.size",
                      static_cast<double>(frontier_.size()));
    }

    /** Append the current frontier as the next v2 journal section. */
    void
    snapshotFrontier()
    {
        obs::FrontierRound round;
        round.round = static_cast<int>(frontierRounds_.size()) + 1;
        round.strategy = strategyName(opt_.strategy);
        round.points = frontier_.points();
        frontierRounds_.push_back(std::move(round));
    }

    void
    stage2(const std::vector<PolyStmt> &base, DseResult &result)
    {
        base_ = &base;
        units_ = groupUnits(base);

        StrategyContext ctx;
        for (const auto &u : units_) {
            ctx.unitNames.push_back(unitNames(base, u));
            std::vector<std::string> members;
            for (size_t m : u.members)
                members.push_back(base[m].sched.name);
            ctx.unitMembers.push_back(std::move(members));
            ctx.maxDegree.push_back(maxDegreeOf(base, u));
        }
        ctx.maxParallelism = opt_.maxParallelism;
        ctx.device = device_;

        // Evaluate the initial (pipeline-only) design.
        PointEval init = evaluatePoint(base, units_, Point::Search).eval;
        ++points_;
        recordPoint("stage2-init", init.primitives, init.report,
                    "accepted", "initial pipeline-only design");
        frontierInsert(init.report, init.primitives, points_);

        std::vector<std::int64_t> degrees =
            runStrategy(opt_.strategy, ctx, init, *this);
        POM_ASSERT(degrees.size() == units_.size(),
                   "strategy returned a malformed degree vector");

        // The winning design, lowered whole (this also rewrites the
        // partitions). The search already estimated every one of its
        // units, so with memoization on its report composes from cached
        // nodes.
        std::vector<Unit> units = unitsAt(degrees);
        Candidate winner = evaluatePoint(base, units, Point::Design);
        ++points_;
        recordPoint("final", winner.eval.primitives, winner.eval.report,
                    "accepted", "selected design");
        frontierInsert(winner.eval.report, winner.eval.primitives, points_);
        snapshotFrontier();
        result.design = std::move(winner.design);
        result.report = std::move(winner.eval.report);
        for (const auto &u : units) {
            for (size_t m : u.members) {
                result.parallelism.emplace_back(base[m].sched.name,
                                                u.degree);
            }
        }
    }

    /** Which design point evaluatePoint() estimates. */
    enum class Point
    {
        Search, ///< a point the strategy explores: estimated only
        Design, ///< a replayed or the selected point: partitioned and
                ///< lowered whole
    };

    /** An estimated design point; the design is set only for a replay,
     *  the selected point or on the reference path. */
    struct Candidate
    {
        std::shared_ptr<const SelectedDesign> design;
        PointEval eval;
    };

    /** "S0+S1" member list of a unit, for journal messages. */
    static std::string
    unitNames(const std::vector<PolyStmt> &base, const Unit &unit)
    {
        std::string out;
        for (size_t m : unit.members) {
            out += out.empty() ? "" : "+";
            out += base[m].sched.name;
        }
        return out;
    }

    /** Journal summary of the applied primitives of one candidate. */
    static std::string
    primitivesSummary(
        const std::vector<PolyStmt> &base, const std::vector<Unit> &units,
        const std::map<std::string, std::vector<std::int64_t>> &partitions)
    {
        std::string out;
        for (const auto &unit : units) {
            for (size_t m : unit.members) {
                out += out.empty() ? "" : ", ";
                out += base[m].sched.name + ":degree=" +
                       std::to_string(unit.degree);
            }
        }
        for (const auto &[array, factors] : partitions) {
            bool any = false;
            for (auto f : factors)
                any |= f > 1;
            if (!any)
                continue;
            out += "; partition " + array + "=[";
            for (size_t i = 0; i < factors.size(); ++i) {
                if (i)
                    out += ",";
                out += std::to_string(factors[i]);
            }
            out += "]:cyclic";
        }
        return out;
    }

    /** Product of free-level trip counts bounds the parallelism. */
    std::int64_t
    maxDegreeOf(const std::vector<PolyStmt> &base, const Unit &unit) const
    {
        std::int64_t cap = INT64_MAX;
        for (size_t m : unit.members) {
            const PolyStmt &stmt = base[m];
            auto carried = carriedLevels(stmt);
            auto trips = hls::avgTrips(stmt.sched.domain);
            std::int64_t product = 1;
            for (size_t l = 0; l < stmt.numDims(); ++l) {
                if (!carried[l])
                    product *= trips[l];
            }
            cap = std::min(cap, product);
        }
        return std::max<std::int64_t>(1, cap);
    }

    /** With memoize off, or under the oracle, nothing is shared. */
    bool
    reference() const
    {
        return !opt_.memoize || opt_.verifyEachPoint;
    }

    /**
     * The schedule of unit @p ui at @p unit's current degree. Memoized
     * per (unit, degree) for the search: a unit's schedule depends only
     * on its own base statements (the min_level probe reads just the
     * unit's untransformed members), so the stage-2 search -- which
     * doubles one unit per step -- schedules only the changed unit and
     * shares everything else.
     */
    UnitSchedule *
    unitSchedule(const std::vector<PolyStmt> &base, size_t ui,
                 const Unit &unit)
    {
        const std::pair<size_t, std::int64_t> at{ui, unit.degree};
        auto it = unitMemo_.find(at);
        if (it == unitMemo_.end())
            it = unitMemo_.emplace(at, buildSchedule(base, unit)).first;
        return &it->second;
    }

    /**
     * "iters i j k\n": the iterators of @p stmt's compute in order. The
     * function digest prints the statement body by iterator name and
     * the origin map relates the loops to the iterators by position;
     * this line binds the two.
     */
    std::string
    iteratorLine(const PolyStmt &stmt) const
    {
        const dsl::Compute *compute = func_.findCompute(stmt.sched.name);
        POM_ASSERT(compute != nullptr, "statement without a compute");
        std::string line = "iters";
        for (const dsl::Var &v : compute->iters())
            line += " " + v.name();
        return line + "\n";
    }

    /** @p unit's members scheduled at its degree. */
    UnitSchedule
    buildSchedule(const std::vector<PolyStmt> &base,
                  const Unit &unit) const
    {
        UnitSchedule us;
        size_t min_level = fusedNestMinLevel(base, unit.members);
        for (size_t m : unit.members) {
            PolyStmt stmt = base[m];
            applyParallelSchedule(stmt, unit.degree, opt_.innerUnrollCap,
                                  func_, us.partitions, min_level);
            us.node.stmts.push_back(std::move(stmt));
        }
        keyUnit(us);
        return us;
    }

    /**
     * Fill @p us's key and array names from its scheduled statements:
     * each one's schedule fragment and iterator line (iteratorLine()),
     * which the function digest and the fragment alone do not bind.
     */
    void
    keyUnit(UnitSchedule &us) const
    {
        us.key = keyHead_;
        std::set<std::string> names;
        for (const PolyStmt &stmt : us.node.stmts) {
            us.key.addSchedule(stmt);
            us.key.addText(iteratorLine(stmt));
            for (const auto &a : stmt.accesses)
                names.insert(a.array);
        }
        us.arrays.assign(names.begin(), names.end());
    }

    /**
     * Fold per-unit partition demands into one plan. Elementwise max
     * equals accumulating every unit into one plan through
     * applyParallelSchedule(): every factor vector is full-rank
     * (resized to the array's rank with 1s) and max is associative and
     * commutative.
     */
    static hls::PartitionPlan
    mergePartitions(const std::vector<UnitSchedule *> &parts)
    {
        hls::PartitionPlan merged;
        for (const UnitSchedule *part : parts) {
            for (const auto &[array, factors] : part->partitions) {
                auto &dst = merged[array];
                if (dst.size() < factors.size())
                    dst.resize(factors.size(), 1);
                for (size_t i = 0; i < factors.size(); ++i)
                    dst[i] = std::max(dst[i], factors[i]);
            }
        }
        return merged;
    }

    /**
     * The node key of @p us under @p partitions' bankings, or under the
     * function's own partition directives when it is null. Only that
     * case, the baseline's, looks the placeholders up.
     */
    std::string
    nodeKey(const UnitSchedule &us,
            const hls::PartitionPlan *partitions) const
    {
        hls::NodeKey key = us.key;
        for (const std::string &array : us.arrays) {
            if (partitions != nullptr) {
                key.addBanking(array, hls::planBanking(*partitions, array));
                continue;
            }
            const dsl::Placeholder *p = func_.findPlaceholder(array);
            POM_ASSERT(p != nullptr, "unknown array in DSE");
            key.addBanking(array, hls::effectiveBanking(*p, nullptr));
        }
        return key.finish(costLine_);
    }

    /** Memoized schedules of every unit at its current degree. */
    std::vector<UnitSchedule *>
    unitSchedules(const std::vector<PolyStmt> &base,
                  const std::vector<Unit> &units)
    {
        std::vector<UnitSchedule *> parts;
        parts.reserve(units.size());
        for (size_t ui = 0; ui < units.size(); ++ui)
            parts.push_back(unitSchedule(base, ui, units[ui]));
        return parts;
    }

    /** The statements of @p parts, each back at its index in @p base. */
    static std::vector<PolyStmt>
    inBaseOrder(const std::vector<PolyStmt> &base,
                const std::vector<Unit> &units,
                const std::vector<UnitSchedule *> &parts)
    {
        std::vector<PolyStmt> stmts(base.size());
        for (size_t ui = 0; ui < units.size(); ++ui) {
            for (size_t k = 0; k < units[ui].members.size(); ++k)
                stmts[units[ui].members[k]] = parts[ui]->node.stmts[k];
        }
        return stmts;
    }

    /**
     * The content-addressed NodeReports of @p parts, in order, banked
     * by @p partitions (the function's own directives when null):
     * each unit's come from the node cache, or are estimated and
     * stored when its key was never seen (counted in
     * `dse.node_cache.*`), against the unit's AST, lowered on its
     * schedule's first miss. @p allCached is cleared on any miss.
     */
    std::vector<hls::NodeReport>
    cachedNodes(const std::vector<UnitSchedule *> &parts,
                const hls::PartitionPlan *partitions, bool &allCached)
    {
        hls::EstimatorOptions eo;
        eo.partitionOverride = partitions;
        std::vector<hls::NodeReport> nodes;
        for (UnitSchedule *part : parts) {
            const std::string key = nodeKey(*part, partitions);
            if (auto cached = hls::NodeReportCache::global().lookup(key)) {
                obs::counterAdd("dse.node_cache.hits");
                for (auto &n : *cached)
                    nodes.push_back(std::move(n));
                continue;
            }
            obs::counterAdd("dse.node_cache.misses");
            allCached = false;
            if (!part->node.astRoot) {
                obs::counterAdd("dse.node_asts");
                lower::lowerNodeStmts(part->node);
            }
            std::vector<hls::NodeReport> fresh =
                hls::estimateNodes(func_, part->node, eo);
            hls::NodeReportCache::global().store(key, fresh);
            for (auto &n : fresh)
                nodes.push_back(std::move(n));
        }
        return nodes;
    }

    /**
     * Compose a design point's report from per-unit NodeReports
     * (cachedNodes()), estimating only units whose node key was never
     * seen. Unit order is beta order, which is exactly the top-level
     * order of the full AST, so the composed report is byte-identical
     * to the monolithic path's. The point counts as a `dse.cache.hits`
     * when every unit came from the node cache, as a
     * `dse.cache.misses` otherwise, both process-wide and in this
     * run's DseResult.
     */
    hls::SynthesisReport
    composeReport(
        const std::vector<UnitSchedule *> &parts,
        const hls::PartitionPlan &partitions, obs::Span &span)
    {
        bool allCached = true;
        std::vector<hls::NodeReport> nodes =
            cachedNodes(parts, &partitions, allCached);
        obs::counterAdd(allCached ? "dse.cache.hits" : "dse.cache.misses");
        ++(allCached ? pointCacheHits_ : pointCacheMisses_);
        span.arg("cache", allCached ? "hit" : "miss");
        hls::EstimatorOptions eo;
        eo.partitionOverride = &partitions;
        return hls::combineNodeReports(func_, nodes, eo);
    }

    /**
     * The report of the unscheduled design: @p extracted (the
     * function's statements, no directives applied) under only their
     * ordering directives, banked as the function's own partition
     * directives say. Composed per unit from the node cache
     * (cachedNodes()) like a search point, but not counted as one;
     * with memoize off, or when the oracle checks every point, the
     * whole unscheduled design is lowered and estimated instead: the
     * reference the differential tests hold the composed baseline to.
     */
    hls::SynthesisReport
    baselineReport(const std::vector<PolyStmt> &extracted)
    {
        if (reference()) {
            return hls::estimate(func_, lower::lowerUnscheduled(func_));
        }
        std::vector<PolyStmt> plain = extracted;
        lower::applyDirectives(func_, plain, /*ordering_only=*/true);
        std::vector<UnitSchedule> units;
        for (const Unit &unit : groupUnits(plain)) {
            UnitSchedule &us = units.emplace_back();
            for (size_t m : unit.members)
                us.node.stmts.push_back(std::move(plain[m]));
            keyUnit(us);
        }
        std::vector<UnitSchedule *> parts;
        for (UnitSchedule &us : units)
            parts.push_back(&us);
        bool allCached = true;
        return hls::combineNodeReports(
            func_, cachedNodes(parts, nullptr, allCached));
    }

    /** The statements of @p parts lowered whole, as a design. */
    std::shared_ptr<const SelectedDesign>
    lowerWhole(const std::vector<PolyStmt> &base,
               const std::vector<Unit> &units,
               const std::vector<UnitSchedule *> &parts) const
    {
        return std::make_shared<const SelectedDesign>(
            lower::lowerStmts(func_, inBaseOrder(base, units, parts)));
    }

    /**
     * Estimate one design point from each unit's memoized schedule. A
     * search point leaves the shared function alone (partitioning goes
     * through the estimator override) and composes its report from
     * per-unit NodeReports (composeReport()), so it lowers each unit
     * schedule once and estimates only units whose node key was never
     * seen. A replay or the selected point also rewrites the
     * function's partitions and is lowered whole. With memoize off, or
     * when the oracle must see every lowered design, every point is
     * lowered and estimated whole and uncached, and the node cache is
     * not read: the reference the differential tests hold the composed
     * path to. The caller numbers and journals the point.
     */
    Candidate
    evaluatePoint(const std::vector<PolyStmt> &base,
                  const std::vector<Unit> &units, Point kind)
    {
        obs::Span span("dse.point", "dse");
        PointLatencyTimer pointTimer;
        auto parts = unitSchedules(base, units);
        hls::PartitionPlan partitions = mergePartitions(parts);
        if (kind != Point::Search)
            applyPartitions(func_, partitions);

        Candidate c;
        c.eval.primitives = primitivesSummary(base, units, partitions);
        span.arg("primitives", c.eval.primitives);

        if (reference() || kind == Point::Design)
            c.design = lowerWhole(base, units, parts);
        if (reference()) {
            hls::EstimatorOptions eo;
            eo.partitionOverride = &partitions;
            c.eval.report = hls::estimate(func_, c.design->lowered, eo);
        } else {
            c.eval.report = composeReport(parts, partitions, span);
        }
        span.arg("latency_cycles",
                 static_cast<std::int64_t>(c.eval.report.latencyCycles));
        if (opt_.verifyEachPoint) {
            check::OracleResult res =
                check::checkLowered(func_, c.design->lowered, kVerifySeed);
            if (!res.equivalent)
                support::fatal("DSE produced a non-equivalent design "
                               "point:\n" +
                               res.message);
            ++verified_;
        }
        return c;
    }

    dsl::Function &func_;
    DseOptions opt_;
    hls::Device device_;
    /** The node-key text's head: format stamp and function digest. */
    hls::NodeKey keyHead_;
    /** The node-key text's tail: the cost table, rendered once. */
    std::string costLine_;
    /** This search's schedules, by (unit index, degree). */
    std::map<std::pair<size_t, std::int64_t>, UnitSchedule> unitMemo_;
    /** Stage 2's statements and units, for Search::evaluate(). */
    const std::vector<PolyStmt> *base_ = nullptr;
    std::vector<Unit> units_;
    int points_ = 0;
    int verified_ = 0;
    std::int64_t pointCacheHits_ = 0;
    std::int64_t pointCacheMisses_ = 0;
    bool roundEvaluated_ = false;
    std::vector<obs::JournalEntry> journal_;
    ParetoFrontier frontier_;
    std::vector<obs::FrontierRound> frontierRounds_;
};

} // namespace

DseResult
autoDSE(dsl::Function &func, const DseOptions &options)
{
    Engine engine(func, options);
    return engine.run();
}

ReplayResult
replayPoint(dsl::Function &func,
            const std::vector<obs::JournalEntry> &journal, int point,
            const DseOptions &options)
{
    const obs::JournalEntry *entry = nullptr;
    for (const auto &e : journal) {
        if (e.kind == "point" && e.point == point)
            entry = &e;
    }
    if (entry == nullptr) {
        support::fatal("replay: the journal has no design point " +
                       std::to_string(point));
    }
    Engine engine(func, options);
    return engine.replay(*entry);
}

} // namespace pom::dse
