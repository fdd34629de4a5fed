/**
 * @file
 * The HLS synthesis estimator: POM's substitute for Vitis HLS synthesis
 * reports. Implements the classic analytical model the paper's DSE
 * relies on (§VI.B, "the in-house model from [35][38]" = ScaleHLS /
 * COMBA):
 *
 *  - Pipelined loops: II = max(target, recurrence-MII, resource-MII).
 *    recMII = ceil(dependence latency / dependence distance) over the
 *    loop-carried dependences inside the pipeline; resMII from memory
 *    ports after array partitioning (dual-port banks).
 *  - Unrolled loops replicate operator instances (spatial copies);
 *    fully-unrolled reduction loops become operator chains that extend
 *    the recurrence latency.
 *  - Sequential loop nests either share operator hardware (resource
 *    reuse, POM's strategy for DNNs, Fig. 13) or instantiate distinct
 *    stages (dataflow, ScaleHLS's strategy).
 *
 * Latency is reported in cycles at the device's target clock; power is
 * a linear proxy over the used resources.
 */

#ifndef POM_HLS_ESTIMATOR_H
#define POM_HLS_ESTIMATOR_H

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "dsl/dsl.h"
#include "hls/device.h"
#include "lower/lower.h"

namespace pom::hls {

/**
 * An array-partition assignment: array name -> per-dimension factors.
 * An absent array (or all-ones factors) is unpartitioned; any factor
 * greater than one means cyclic banking, matching what the DSE's
 * applyPartitions() writes onto the function's placeholders.
 */
using PartitionPlan = std::map<std::string, std::vector<std::int64_t>>;

/** Per-pipelined-loop synthesis details. */
struct LoopReport
{
    std::string iterName;
    std::int64_t trip = 1;          ///< sequential iterations (flattened)
    std::optional<int> targetII;
    int achievedII = 1;
    std::uint64_t latency = 0;
    int recMII = 1;
    int resMII = 1;
};

/** The synthesis report for one design point. */
struct SynthesisReport
{
    std::uint64_t latencyCycles = 0;
    Resources resources;
    double powerW = 0.0;
    std::vector<LoopReport> loops; ///< pipelined loops, program order

    /**
     * Latency of each top-level loop nest (leader statement name ->
     * cycles), used by the DSE's bottleneck selection (§VI.B).
     */
    std::vector<std::pair<std::string, std::uint64_t>> nestLatencies;

    /** Worst achieved II across pipelined loops (1 if none). */
    int worstII() const;

    /** latency(base) / latency(this). */
    double speedupOver(const SynthesisReport &base) const;

    /** One-line summary with utilization percentages. */
    std::string str(const Device &device) const;
};

/** How sequential loop nests map onto hardware. */
enum class SharingMode
{
    Reuse,    ///< nests time-share operator hardware (POM)
    Dataflow, ///< each nest is a distinct pipeline stage (ScaleHLS DNN)
};

/**
 * The synthesis contribution of one top-level AST node (= one DSE
 * unit's loop nest). Holds only what the node's own subtree
 * determines: its latency, its compute resources, and its pipelined
 * loops. Everything cross-node -- the sharing fold, on-chip memory,
 * the power proxy -- lives in combineNodeReports(), so a NodeReport is
 * valid under any device budget and sharing mode and can be memoized
 * across candidate design points that keep the node's schedule.
 */
struct NodeReport
{
    std::string nest; ///< leader statement name ("?" when none)
    std::uint64_t latencyCycles = 0;
    Resources resources;           ///< compute only, no memory fold
    std::vector<LoopReport> loops; ///< pipelined loops, program order
};

/** Effective banking of one array under the estimator's rules. */
struct ArrayBanking
{
    std::int64_t banks = 1;
    bool complete = false;
};

/**
 * The banking @p plan gives @p array: unbanked when absent, else cyclic
 * over the product of its factors (plan partitions are always cyclic).
 */
ArrayBanking planBanking(const PartitionPlan &plan, const std::string &array);

/**
 * The banking the estimator applies to @p placeholder: planBanking() of
 * the override plan when non-null, else the placeholder's own partition
 * directives.
 */
ArrayBanking effectiveBanking(const dsl::Placeholder &placeholder,
                              const PartitionPlan *partitionOverride);

/** Estimator configuration. */
struct EstimatorOptions
{
    SharingMode sharing = SharingMode::Reuse;

    /**
     * When non-null, array banking comes from this plan instead of the
     * function's placeholder partition directives. The DSE engine,
     * which evaluates one candidate at a time on its calling thread,
     * uses it to estimate a candidate's partitioning without writing
     * it into the dsl::Function, so the function keeps its directives
     * until a final point applies them (estimating with the override
     * is equivalent to applyPartitions() + estimating). The pointer is
     * only read during estimate(); the plan must outlive the call.
     */
    const PartitionPlan *partitionOverride = nullptr;
};

/**
 * Produce a synthesis report for a lowered function.
 *
 * @param func The DSL function (array shapes / partition directives).
 * @param lowered Its lowered form (AST with HLS annotations + final
 *        polyhedral statements for dependence distances).
 */
SynthesisReport estimate(const dsl::Function &func,
                         const lower::LoweredFunction &lowered,
                         const EstimatorOptions &options = {});

/**
 * Per-node estimation: one NodeReport per top-level AST node, in
 * program order. The lowered function may contain any subset of the
 * design's statements -- a node's report depends only on its own
 * statements and the banking of the arrays they access, which is what
 * makes reports reusable across design points. Composes exactly:
 * combineNodeReports(estimateNodes(...)) is bit-identical to
 * estimate() on the same lowered function.
 */
std::vector<NodeReport> estimateNodes(const dsl::Function &func,
                                      const lower::LoweredFunction &lowered,
                                      const EstimatorOptions &options = {});

/**
 * Pure combiner folding node reports (in program order) into a
 * SynthesisReport: applies the sharing mode, charges on-chip memory
 * from @p func's arrays, and computes the power proxy.
 */
SynthesisReport combineNodeReports(const dsl::Function &func,
                                   const std::vector<NodeReport> &nodes,
                                   const EstimatorOptions &options = {});

/**
 * Publish @p report as the `hls.*` gauges: latency, resources, power,
 * worst II, and the latency of every top-level nest and the II of
 * every pipelined loop. A run calls this once, for the report it
 * prints; a search estimates many designs, so estimate() does not.
 * No-op when metrics are off.
 */
void publishReportGauges(const SynthesisReport &report);

} // namespace pom::hls

#endif // POM_HLS_ESTIMATOR_H
