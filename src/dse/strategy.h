/**
 * @file
 * The pluggable stage-2 search interface. A SearchStrategy owns the
 * search trajectory -- which candidate degree assignments to estimate
 * and in what order -- while the Engine owns evaluation, point
 * numbering, journaling, and the Pareto frontier.
 *
 * The contract:
 *
 *  - plan() returns the next round of steps; its content may depend
 *    only on what the strategy observed through consume()/endRound().
 *  - The engine evaluates the round's trial steps one at a time, in
 *    plan order, on the driver thread, and hands each result to
 *    consume() before evaluating the next step.
 *  - consume() returns false to abandon the rest of the round (greedy
 *    does this on its first acceptance); the abandoned steps are never
 *    evaluated.
 *
 * Every point is thus evaluated exactly once, and the journal does not
 * depend on the worker count: `--jobs` parallelism lives inside the
 * dependence analysis of a point (poly::analyzeSelfDependences).
 *
 * Three drivers implement the interface (makeStrategy):
 *
 *  - greedy: the paper's bottleneck walk, bit-identical to the
 *    pre-interface engine (the v1 journal golden pins it).
 *  - beam:   breadth-first beam search keeping the best `kBeamWidth`
 *    feasible configurations per round; explores a wider frontier.
 *  - anneal: batched simulated annealing with a portable seeded PRNG
 *    (splitmix64) so runs are reproducible across platforms.
 */

#ifndef POM_DSE_STRATEGY_H
#define POM_DSE_STRATEGY_H

#include <cstdint>
#include <memory>
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

/** One estimated candidate handed to SearchStrategy::consume. */
struct PointEval
{
    hls::SynthesisReport report;
    std::string primitives;
};

/** One planned step of a search round. */
struct StrategyStep
{
    /** Steps without an evaluation (greedy's unit closes) are consumed
     *  in order like any other but receive a null PointEval. */
    bool needsEval = false;

    /** Per-unit parallelism degrees to evaluate (when needsEval). */
    std::vector<std::int64_t> degrees;

    /**
     * Degrees of the already-evaluated configuration this step was
     * derived from (empty when there is none). All three drivers
     * mutate exactly one unit per step, so the engine uses the parent
     * to account node reuse (`dse.delta.*`); correctness never depends
     * on it -- node reports are content-addressed.
     */
    std::vector<std::int64_t> parentDegrees;
};

/** Journal/log sink the engine hands to consume()/endRound(). */
class SearchRecorder
{
  public:
    virtual ~SearchRecorder() = default;

    /** Journal one explored design point (numbered by the engine). */
    virtual void point(const std::string &phase, const PointEval &ev,
                       const std::string &verdict,
                       const std::string &reason) = 0;

    /** Push a raw journal entry (e.g. greedy's bottleneck selection). */
    virtual void event(const obs::JournalEntry &entry) = 0;

    /** Journal a decision and mirror it into the text log. */
    virtual void note(const std::string &kind, const std::string &phase,
                      const std::string &detail) = 0;

    /** Text log only (no journal entry). */
    virtual void log(const std::string &line) = 0;
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
};

/** A stage-2 search driver. See the file comment for the contract. */
class SearchStrategy
{
  public:
    virtual ~SearchStrategy() = default;

    virtual StrategyKind kind() const = 0;

    /** Observe the initial (pipeline-only, all degrees 1) design. */
    virtual void begin(const PointEval &init) = 0;

    /** Plan the next round; empty means the search is finished. */
    virtual std::vector<StrategyStep> plan() = 0;

    /**
     * Observe step @p index of the current plan, with its evaluation
     * when the step required one. Return false to abandon the rest of
     * the round and re-plan.
     */
    virtual bool consume(size_t index, const StrategyStep &step,
                         const PointEval *eval, SearchRecorder &rec) = 0;

    /** Called after every round, consumed fully or abandoned. */
    virtual void endRound(SearchRecorder &rec) { (void)rec; }

    /** The selected per-unit degrees once plan() returned empty. */
    virtual std::vector<std::int64_t> result() const = 0;
};

/** Instantiate one of the three drivers. */
std::unique_ptr<SearchStrategy> makeStrategy(StrategyKind kind,
                                             StrategyContext context);

} // namespace pom::dse

#endif // POM_DSE_STRATEGY_H
