/**
 * @file
 * Strategy re-implementations of the frameworks POM is compared against
 * (paper §II.C, §VII). Each baseline runs on the same substrate (DSL ->
 * polyhedral IR -> affine dialect -> synthesis estimator) but applies
 * the optimization strategy the paper attributes to it:
 *
 *  - Unoptimized: the input program as-is (the speedup denominator).
 *  - Pluto-like: CPU-oriented polyhedral scheduling -- locality tiling
 *    of the loop nest, no FPGA directives at all.
 *  - POLSCA-like: the Pluto schedule plus HLS pipelining of the
 *    innermost loop, but no dependence-aware restructuring and no array
 *    partitioning for large arrays (the paper's §VII.B observations).
 *  - ScaleHLS-like: loop-order optimization (interchange) applied
 *    uniformly to a nest plus a greedy tile/unroll/partition DSE --
 *    but no split-interchange-merge, no skewing, no bottleneck
 *    switching, dataflow-style (unshared) resources between nests, and
 *    a bounded design space that degrades to pipeline-only at very
 *    large problem sizes (Fig. 12's observed cliff at 8192).
 */

#ifndef POM_BASELINES_BASELINES_H
#define POM_BASELINES_BASELINES_H

#include <memory>
#include <string>

#include "dse/dse.h"
#include "dsl/dsl.h"
#include "hls/estimator.h"
#include "lower/lower.h"

namespace pom::baselines {

/** Outcome of running one baseline strategy. */
struct BaselineResult
{
    std::shared_ptr<const dse::SelectedDesign> design;
    hls::SynthesisReport report;
    double seconds = 0.0;
    std::string notes;

    /** POM only: the DSE journal (empty for the other baselines). */
    std::vector<obs::JournalEntry> journal;

    /** POM only: per-round Pareto frontier snapshots (journal v2). */
    std::vector<obs::FrontierRound> frontierRounds;

    /** POM only: this run's design-point cache hits and misses. */
    std::int64_t pointCacheHits = 0;
    std::int64_t pointCacheMisses = 0;
};

/** The frameworks a compile can run: `pomc --framework`/`--dse` and
 *  the `framework` of a pomd compile frame. */
enum class Framework
{
    Pom,
    ScaleHls,
    Polsca,
    Pluto,
    None, ///< the unoptimized input
};

/** Canonical lower-case name of a framework ("pom" | ...). */
const char *frameworkName(Framework framework);

/** Comma-separated list of valid framework names (for error messages). */
std::string frameworkNames();

/**
 * Parse a framework name. Returns false on an unknown name -- callers
 * must treat that as a hard error (never fall back to a default).
 */
bool parseFramework(const std::string &name, Framework &out);

/**
 * Run @p framework on @p func: the one dispatch over the runners below.
 * The Pluto-like and POLSCA-like schedules read no option.
 */
BaselineResult runFramework(Framework framework, dsl::Function &func,
                            const dse::DseOptions &options = {});

/** The input program without any optimization. */
BaselineResult runUnoptimized(dsl::Function &func);

/** Pluto-like locality tiling (32 x 32 tiles), no FPGA directives. */
BaselineResult runPlutoLike(dsl::Function &func);

/** POLSCA-like: Pluto tiling + innermost pipelining, no partitioning. */
BaselineResult runPolscaLike(dsl::Function &func);

/**
 * ScaleHLS-like: interchange + greedy tile/unroll/partition DSE under
 * @p options' budget(), maxParallelism and innerUnrollCap; plain
 * pipelining once a loop runs 8192 or more iterations.
 */
BaselineResult runScaleHlsLike(dsl::Function &func,
                               const dse::DseOptions &options = {});

/** POM itself (wraps dse::autoDSE) for uniform comparison tables. */
BaselineResult runPom(dsl::Function &func,
                      const dse::DseOptions &options = {});

} // namespace pom::baselines

#endif // POM_BASELINES_BASELINES_H
