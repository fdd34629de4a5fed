/**
 * @file
 * The stage-2 search strategies. A strategy owns the search trajectory --
 * which degree assignments to estimate and in what order -- while the
 * engine, through the Search interface, owns evaluation, point
 * numbering, journaling and the Pareto frontier.
 *
 * The contract: runStrategy() is a plain loop on the calling thread.
 * Each round it picks configurations, asks Search::evaluate() for each
 * one in turn (every call is one numbered design point, evaluated
 * exactly once and offered to the frontier), journals a verdict per
 * point, and closes the round with Search::endRound(), which snapshots
 * the frontier as a v2 journal section if the round evaluated anything.
 * The loop returns the selected degrees when its list of open choices
 * is empty or its budget is spent.
 *
 * The whole search runs on the calling thread, so the journal is the
 * same on every run.
 *
 * Three strategies (runStrategy):
 *
 *  - greedy: the paper's bottleneck walk (the v1 journal golden pins
 *    it).
 *  - beam:   breadth-first beam search keeping the best `kBeamWidth`
 *    feasible configurations per round; explores a wider frontier.
 *  - anneal: batched simulated annealing with a portable seeded PRNG
 *    (splitmix64) so runs are reproducible across platforms.
 */

#ifndef POM_DSE_STRATEGY_H
#define POM_DSE_STRATEGY_H

#include <cstdint>
#include <string>
#include <vector>

#include "hls/device.h"
#include "hls/estimator.h"
#include "obs/journal.h"

namespace pom::dse {

/** The available stage-2 search drivers. */
enum class StrategyKind
{
    Greedy,
    Beam,
    Anneal,
};

/** Canonical lower-case name of a strategy ("greedy" | ...). */
const char *strategyName(StrategyKind kind);

/** Comma-separated list of valid strategy names (for error messages). */
std::string strategyNames();

/**
 * Parse a strategy name. Returns false on an unknown name -- callers
 * must treat that as a hard error (never fall back to a default).
 */
bool parseStrategy(const std::string &name, StrategyKind &out);

/** One estimated design point. */
struct PointEval
{
    hls::SynthesisReport report;
    std::string primitives;
};

/** Everything a strategy may consult; owned by the engine. */
struct StrategyContext
{
    /** "S0+S1"-style display name per optimization unit. */
    std::vector<std::string> unitNames;

    /** Statement names per unit (for nest-latency attribution). */
    std::vector<std::vector<std::string>> unitMembers;

    /** Trip-count bound on each unit's parallelism degree. */
    std::vector<std::int64_t> maxDegree;

    std::int64_t maxParallelism = 64;

    /** The (resource-fraction-scaled) device budget. */
    hls::Device device;

    size_t numUnits() const { return unitNames.size(); }

    /** Latency attributed to @p unit in @p report (bottleneck metric). */
    std::uint64_t unitLatency(const hls::SynthesisReport &report,
                              size_t unit) const;

    /** May @p unit run at twice @p degree (max parallelism and the
     *  unit's trip-count bound)? */
    bool canDouble(size_t unit, std::int64_t degree) const;
};

/** The engine side of a search. See the file comment. */
class Search
{
  public:
    virtual ~Search() = default;

    /** Estimate one per-unit degree assignment as the next numbered
     *  design point and offer it to the Pareto frontier. */
    virtual PointEval evaluate(const std::vector<std::int64_t> &degrees) = 0;

    /** Journal the verdict on the point evaluate() last returned. */
    virtual void point(const PointEval &ev, const std::string &verdict,
                       const std::string &reason) = 0;

    /** Push a raw journal entry (e.g. greedy's bottleneck selection). */
    virtual void event(const obs::JournalEntry &entry) = 0;

    /** Journal a decision (kind, phase and detail text). */
    virtual void note(const std::string &kind, const std::string &phase,
                      const std::string &detail) = 0;

    /** Close a round; snapshots the frontier if it evaluated a point. */
    virtual void endRound() = 0;
};

/**
 * Run strategy @p kind from the initial (pipeline-only, all degrees 1)
 * design @p init and return the selected per-unit degrees.
 */
std::vector<std::int64_t> runStrategy(StrategyKind kind,
                                      const StrategyContext &ctx,
                                      const PointEval &init,
                                      Search &search);

} // namespace pom::dse

#endif // POM_DSE_STRATEGY_H
