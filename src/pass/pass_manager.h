/**
 * @file
 * PassManager: runs an ordered pass list over a PipelineState with
 * per-pass wall-clock timing, statistics collection, optional IR dumps
 * before/after each pass, and optional verification after each pass.
 * Pipelines are built programmatically (addPass) or from a textual
 * spec ("extract-stmts,schedule-apply,verify" with optional per-pass
 * options "pass{key=value,k2=v2}") resolved through the PassRegistry.
 *
 * A process-wide timing aggregator supports `pomc --timing`: every
 * PassManager::run() contributes its executions when aggregation is
 * enabled, so a DSE sweep that lowers thousands of candidate schedules
 * still reports a single per-pass breakdown at the end. The aggregator
 * is backed by the obs registries (one `pass.wall_ms.<pass>`
 * histogram sample per execution, `pass.stat.*` counters) and is safe
 * to feed from concurrent PassManagers.
 */

#ifndef POM_PASS_PASS_MANAGER_H
#define POM_PASS_PASS_MANAGER_H

#include <functional>
#include <iosfwd>
#include <utility>

#include "pass/pass.h"

namespace pom::pass {

/** One finished pass invocation. */
struct PassExecution
{
    std::string pass;
    double seconds = 0.0;
    std::map<std::string, std::int64_t> statistics;
};

/** PassManager behaviour switches. */
struct PassManagerOptions
{
    /** Run the IR verifier after every pass that produced/kept IR. */
    bool verifyAfterEach = false;

    /** Dump the textual IR around each pass to @p dumpStream. */
    bool dumpBeforeEach = false;
    bool dumpAfterEach = false;

    /** Destination for dumps; null means support::diagStream(). */
    std::ostream *dumpStream = nullptr;
};

/** Creates a pass from spec options. */
using PassFactory =
    std::function<std::unique_ptr<Pass>(const PassOptions &)>;

/** Global name -> factory table. Core IR passes self-register. */
class PassRegistry
{
  public:
    static PassRegistry &instance();

    /** Register a pass; fatal on duplicate names. */
    void add(const std::string &name, const std::string &description,
             PassFactory factory);

    bool known(const std::string &name) const;

    /** Instantiate; fatal on unknown names. */
    std::unique_ptr<Pass> create(const std::string &name,
                                 const PassOptions &options = {}) const;

    /** Sorted (name, description) pairs for --list-passes. */
    std::vector<std::pair<std::string, std::string>> list() const;

  private:
    PassRegistry() = default;

    struct Entry
    {
        std::string description;
        PassFactory factory;
    };
    std::map<std::string, Entry> entries_;
};

/**
 * Parse a pipeline spec "a,b{k=v},c" into (name, options) pairs.
 * Throws support::FatalError on malformed specs; names are not
 * resolved against the registry here.
 */
std::vector<std::pair<std::string, PassOptions>>
parsePipelineSpec(const std::string &spec);

/** Runs passes in order, recording timing and statistics. */
class PassManager
{
  public:
    explicit PassManager(PassManagerOptions options = {})
        : options_(options)
    {}

    void addPass(std::unique_ptr<Pass> pass);

    /** Append registry passes from a textual spec. Fatal on unknowns. */
    void addPipeline(const std::string &spec);

    size_t size() const { return passes_.size(); }

    /**
     * Run every pass over @p state. FatalError from a pass aborts the
     * pipeline (executions up to the failure stay recorded).
     */
    void run(PipelineState &state);

    /** Executions recorded by run() calls, in order. */
    const std::vector<PassExecution> &executions() const
    {
        return executions_;
    }

    /** Human-readable per-pass timing table for the recorded runs. */
    std::string timingReport() const;

  private:
    PassManagerOptions options_;
    std::vector<std::unique_ptr<Pass>> passes_;
    std::vector<PassExecution> executions_;
};

// ----- process-wide timing aggregation (pomc --timing) -------------------

/** Enable/disable global aggregation of PassManager executions. */
void setGlobalTimingEnabled(bool enabled);
bool globalTimingEnabled();

/** Drop all aggregated samples. */
void resetGlobalTiming();

/**
 * Aggregated per-pass breakdown: runs, total and average time, summed
 * statistics. Empty string when nothing was recorded.
 */
std::string globalTimingReport();

} // namespace pom::pass

#endif // POM_PASS_PASS_MANAGER_H
