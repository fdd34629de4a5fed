/**
 * @file
 * Seeded schedule fuzzer for the transform pipeline.
 *
 * Each fuzz case builds a fresh instance of a built-in workload,
 * generates a random-but-legal sequence of scheduling primitives
 * (interchange, split, tile, skew, after, fuse, pipeline, unroll,
 * array_partition), replays it through the DSL, and runs the
 * differential equivalence oracle. Legality has two layers:
 *
 *  - structural validity: a candidate op is kept only if the transform
 *    library applies it to the compute's polyhedral statement, which
 *    carries the ops kept for it so far (so ops name loops that exist
 *    at that point in the sequence and never reuse a name), and no op
 *    touches loop levels shared with another statement through
 *    after/fuse, where a one-sided restructuring would change the
 *    cross-statement interleaving;
 *  - dependence legality: a structural candidate is discarded unless
 *    check::schedulePreservesDependences() accepts the statement it
 *    produces.
 *
 * Ordering primitives (after/fuse) are semantic, so the oracle's
 * reference lowering applies them too; generating them is safe and
 * exercises the AST interleaving paths.
 *
 * A failing sequence is shrunk to a minimal reproducer by greedy
 * one-op removal and rendered as canonical POM DSL via
 * dsl::renderDsl(), so every failure is replayable from the report.
 */

#ifndef POM_CHECK_FUZZER_H
#define POM_CHECK_FUZZER_H

#include <cstdint>
#include <string>
#include <vector>

#include "workloads/workloads.h"

namespace pom::check {

/** One generated scheduling primitive, replayable onto a workload. */
struct ScheduleOp
{
    enum class Kind
    {
        Interchange, Split, Tile, Skew, After, Fuse,
        Pipeline, Unroll, Partition,
    };

    Kind kind = Kind::Interchange;
    std::string target;  ///< compute name (array name for Partition)
    std::vector<std::string> vars;
    std::vector<std::int64_t> factors;
    std::vector<std::string> newVars;
    std::string other;   ///< partner compute for After/Fuse
    std::string partitionKind;

    /** Render as a DSL-style call, e.g. "s.tile(i, j, 4, 4, ...)". */
    std::string str() const;
};

/** Fuzzer configuration. */
struct FuzzOptions
{
    unsigned seed = 1;

    /** Number of random schedules to try. */
    int cases = 25;

    /** Workload size (0 = per-workload default, kept interpreter-small). */
    std::int64_t size = 0;

    /**
     * Gate structural ops on the dependence-legality check. Disabling
     * this makes the fuzzer emit semantics-breaking schedules, which is
     * how the test suite proves the oracle catches miscompiles.
     */
    bool checkLegality = true;
};

/** One oracle failure with its (shrunk) reproducer. */
struct FuzzFailure
{
    int caseIndex = 0;
    std::string workload;
    std::int64_t size = 0;
    std::vector<ScheduleOp> ops; ///< minimal primitive sequence
    std::string message;         ///< oracle report or lowering crash
    std::string dsl;             ///< canonical DSL reproducer
};

/** Outcome of a fuzz run over one workload. */
struct FuzzResult
{
    std::string workload;
    std::int64_t size = 0;
    int casesRun = 0;
    int opsGenerated = 0;
    std::vector<FuzzFailure> failures;

    bool ok() const { return failures.empty(); }

    /** Multi-line human-readable report. */
    std::string summary() const;
};

/** Interpreter-friendly default fuzzing size for a workload. */
std::int64_t defaultFuzzSize(const std::string &workload);

/**
 * Replay a primitive sequence onto a fresh workload instance, recording
 * the ops as DSL directives. Returns false (leaving the workload in an
 * unspecified but safe state) if an op references a compute or array
 * that does not exist, or if the transform library refuses a loop op on
 * the compute's statement at its point in the sequence -- used by the
 * shrinker to reject invalid subsequences.
 */
bool applyScheduleOps(workloads::Workload &w,
                      const std::vector<ScheduleOp> &ops);

/**
 * Generate one random-but-legal primitive sequence for @p w,
 * deterministic in @p seed. The sequence is not applied; replay it with
 * applyScheduleOps() (on a fresh instance). Exposed so round-trip and
 * pipeline tests can cover fuzzer-shaped schedules directly.
 */
std::vector<ScheduleOp> generateSchedule(workloads::Workload &w,
                                         unsigned seed,
                                         const FuzzOptions &options = {});

/** Run @p options.cases random schedules against one workload. */
FuzzResult fuzzWorkload(const std::string &workload,
                        const FuzzOptions &options = {});

} // namespace pom::check

#endif // POM_CHECK_FUZZER_H
