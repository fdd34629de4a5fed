/**
 * @file
 * POM's two-stage design space exploration engine (paper §VI).
 *
 * Stage 1 -- dependence-aware code transformation: iterate over the
 * statements, relieving tight loop-carried dependences with the
 * interchange or skew each statement's hint (suggestHint()) names;
 * conflicting strategies inside a fused loop nest are resolved by
 * splitting the nest, transforming each statement, and conservatively
 * re-fusing (the Fig. 10 split-interchange-merge).
 *
 * Stage 2 -- bottleneck-oriented code optimization: estimate the latency
 * of every node, order data paths by latency, and repeatedly double the
 * parallelism (tiling + unrolling + array partitioning + pipelining) of
 * the bottleneck node until it hits maximum parallelism or the resource
 * budget; nodes leave the optimization list through the exit mechanism
 * and the search ends when the list is empty.
 */

#ifndef POM_DSE_DSE_H
#define POM_DSE_DSE_H

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "dsl/dsl.h"
#include "hls/estimator.h"
#include "lower/lower.h"
#include "obs/journal.h"
#include "dse/pareto.h"
#include "dse/strategy.h"

namespace pom::dse {

/**
 * The options of a compile, from the `pomc`/`pomd` flags to the search
 * and the comparators (baselines::runFramework).
 */
struct DseOptions
{
    /** Fraction of the device budget available (Fig. 11 sweeps this). */
    double resourceFraction = 1.0;

    /** Upper bound on a single node's parallelism degree. */
    std::int64_t maxParallelism = 64;

    /** Cap on the unroll factor of the innermost parallel loop. */
    std::int64_t innerUnrollCap = 16;

    /**
     * Run every explored design point through the differential
     * equivalence oracle (check/oracle.h) and abort the search if a
     * transformation ever changes the program's semantics. Costs one
     * pair of interpreter runs per point; meant for tests and debugging
     * at interpreter-friendly sizes. Forces uncached evaluation so
     * every point really is lowered and interpreted.
     */
    bool verifyEachPoint = false;

    /**
     * Compose every point's report, and the unscheduled baseline's,
     * from per-unit NodeReports held in the process-wide
     * hls::NodeReportCache (hls/node_cache.h): a point estimates only
     * the units whose schedule or banking was never seen, lowering
     * each unit schedule once, and a point whose every unit is cached
     * (`dse.cache.hits`) skips lowering and estimation entirely. The
     * selected and a replayed point are still lowered whole; only
     * their reports are composed. With memoize off every point and the
     * baseline are lowered and estimated whole, uncached: the
     * reference the differential tests hold the default path to, byte
     * for byte. Ignored when verifyEachPoint is set.
     */
    bool memoize = true;

    /**
     * Which stage-2 search driver explores the design space (`pomc
     * --strategy`). All three maintain the same Pareto frontier and
     * produce byte-identical journals on every run; greedy is
     * the paper's bottleneck walk and selects the same final design it
     * always has.
     */
    StrategyKind strategy = StrategyKind::Greedy;

    /** The budget a design must fit: the XC7Z020 scaled by
     *  resourceFraction. */
    hls::Device
    budget() const
    {
        return hls::Device::xc7z020().scaled(resourceFraction);
    }
};

/**
 * A lowered design and its HLS C, emitted on the first hlsC() call.
 * Every result that carries a design holds one through a
 * std::shared_ptr<const SelectedDesign>, never null: a search's
 * selected design, and the design a replay, another framework or the
 * reference path lowered. It points into no function, so a result
 * outlives the function it was compiled from: pomd's result memo
 * (service::Server) serves it to every later request with its key.
 */
class SelectedDesign
{
  public:
    explicit SelectedDesign(lower::LoweredFunction design);

    /** The annotated affine IR, its polyhedral AST and statements. */
    const lower::LoweredFunction lowered;

    /** The design's HLS C, emitted on the first call; safe to call
     *  from any thread. */
    const std::string &hlsC() const;

  private:
    mutable std::once_flag emitted_;
    mutable std::string hlsC_;
};

/** Outcome of a DSE run. */
struct DseResult
{
    /** The selected design, fully lowered and annotated. */
    std::shared_ptr<const SelectedDesign> design;

    /** Synthesis report of the selected design. */
    hls::SynthesisReport report;

    /** Report of the unoptimized input (speedup baseline). */
    hls::SynthesisReport baseline;

    /** Parallelism degree chosen per statement. */
    std::vector<std::pair<std::string, std::int64_t>> parallelism;

    /** Wall-clock seconds spent searching (the paper's "DSE time"). */
    double dseSeconds = 0.0;

    /** Number of design points evaluated. */
    int pointsExplored = 0;

    /** Design points checked by the oracle (verifyEachPoint). */
    int pointsVerified = 0;

    /**
     * This run's share of `dse.cache.hits`/`dse.cache.misses`: design
     * points composed wholly from cached node reports, and the others.
     * Unlike the process-wide counters, no concurrent run adds to them.
     */
    std::int64_t pointCacheHits = 0;
    std::int64_t pointCacheMisses = 0;

    /**
     * Machine-readable search journal: one entry per stage-1 decision,
     * stage-2 bottleneck selection, and explored design point (with
     * primitives, estimated latency/resources and the accept/reject
     * verdict). Always recorded, and the only copy: `pomc
     * --dse-journal` and `pomd` serialize it with obs::journalJson.
     */
    std::vector<obs::JournalEntry> journal;

    /**
     * Per-round snapshots of the Pareto frontier over (latency_cycles,
     * dsp, bram_bits, lut) across every feasible point the search
     * estimated, each in canonical order (see dse/pareto.h): the
     * pom-dse-journal/v2 "frontier" sections (serialize with
     * obs::journalJsonV2). The last round is always the final frontier.
     */
    std::vector<obs::FrontierRound> frontierRounds;

    /** latency(baseline) / latency(best). */
    double speedup() const;
};

/**
 * Run the two-stage DSE on a DSL function (the f.auto_DSE() primitive).
 * Array partition directives on the function's placeholders are
 * rewritten to match the selected design.
 */
DseResult autoDSE(dsl::Function &func, const DseOptions &options = {});

/** One journaled design point, re-materialized (pomc --replay-journal). */
struct ReplayResult
{
    /** The re-lowered design. */
    std::shared_ptr<const SelectedDesign> design;

    /** Its synthesis report (matches the journaled numbers). */
    hls::SynthesisReport report;

    /** Re-derived primitives summary (equals the journal entry's). */
    std::string primitives;

    /** The journal entry that was replayed. */
    obs::JournalEntry entry;
};

/**
 * Re-materialize design point @p point of a recorded search journal on
 * @p func: re-run the deterministic stage-1 transformation, re-apply
 * the journaled parallelism degrees, lower and estimate. @p func must
 * be the same workload (same statements, sizes and directives) the
 * journal was recorded from -- the re-derived primitives summary is
 * checked against the journal entry and a mismatch is fatal. Partition
 * directives on the function's placeholders are rewritten to match the
 * replayed point.
 */
ReplayResult replayPoint(dsl::Function &func,
                         const std::vector<obs::JournalEntry> &journal,
                         int point, const DseOptions &options = {});

/** A stage-1 transformation hint for one statement (paper §VI.A). */
struct Hint
{
    enum class Kind
    {
        None,        ///< no tight loop-carried dependence
        Interchange, ///< move a level innermost
        Skew,        ///< every level carries: skew to create a free one
    };

    Kind kind = Kind::None;

    /** For Interchange: the level to move innermost. */
    size_t fromLevel = 0;

    /** For Interchange: the (innermost) level it replaces. */
    size_t toLevel = 0;

    bool operator==(const Hint &) const = default;
};

/**
 * The transformation that relieves @p stmt's tight loop-carried
 * dependence, if any: the guidance the dependence-graph IR gives stage
 * 1 (paper §V.A, Fig. 8 "loop-carried dependence in node S4 can be
 * alleviated using loop interchange"). None unless the innermost of at
 * least two loops carries a dependence; then the first dependence-free
 * level that can legally move innermost, else the first legal
 * interchange that pulls every dependence off the innermost level, else
 * None if some level is still free, else Skew. Reads the carried-level
 * view (transform::carriedDependences) and asks for full distance
 * vectors (transform::selfDependences) only when the innermost level
 * carries, the one case that reads them.
 */
Hint suggestHint(const transform::PolyStmt &stmt);

/**
 * Would interchanging levels @p a and @p b keep every dependence of
 * @p deps (one statement's transform::selfDependences()) lexicographically
 * positive? Conservative: an unknown distance sign counts as illegal.
 */
bool interchangeIsLegal(const std::vector<poly::Dependence> &deps, size_t a,
                        size_t b);

/**
 * Apply the standard parallelism pattern to one statement (Fig. 6):
 * split the free innermost level(s) for @p degree total copies (inner
 * factor capped at @p inner_cap), fully unroll the point loops,
 * pipeline the loop above them, and accumulate cyclic partition factors
 * for the arrays indexed by unrolled iterators into @p partitions.
 * Shared by the POM DSE and the ScaleHLS-like baseline.
 *
 * Reads @p stmt's carried dependences once and leaves the scheduled
 * statement their view (transform::PolyStmt::carried), each level
 * moved to its loop's new position: the splits and the interchange
 * touch only loops that carry nothing, so the view is what analysing
 * the scheduled statement would find, and the estimator and the
 * lowering read it without analysis. When @p ignore_carried splits a
 * carrying loop the statement gets no view.
 *
 * @param ignore_carried Tile/unroll the innermost levels positionally
 *        without consulting dependence analysis (the ScaleHLS-like
 *        strategy: it unrolls anyway and pays for it in achieved II).
 * @param min_level Levels below this index are left untouched; used for
 *        shared loops of partially fused nests whose statements exchange
 *        data (e.g. the time loop of Jacobi), where restructuring would
 *        violate cross-statement dependences.
 */
void applyParallelSchedule(
    transform::PolyStmt &stmt, std::int64_t degree, std::int64_t inner_cap,
    const dsl::Function &func,
    std::map<std::string, std::vector<std::int64_t>> &partitions,
    size_t min_level = 0, bool ignore_carried = false);

/**
 * The min_level to pass applyParallelSchedule() for the members of one
 * fused nest (@p members index @p stmts, untransformed): the depth of
 * the loops they share when data flows between them, else 0. Shared by
 * the POM DSE and the ScaleHLS-like baseline.
 */
size_t fusedNestMinLevel(const std::vector<transform::PolyStmt> &stmts,
                         const std::vector<size_t> &members);

/** Set the accumulated partition plan on the function's placeholders. */
void applyPartitions(
    dsl::Function &func,
    const std::map<std::string, std::vector<std::int64_t>> &partitions);

} // namespace pom::dse

#endif // POM_DSE_DSE_H
