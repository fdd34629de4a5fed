/**
 * @file
 * The end-to-end POM driver: the `codegen()` entry of the paper's DSL
 * (Fig. 4 line 9). Compiles a DSL function through all three IR layers
 * into synthesizable HLS C, running the two-stage DSE first when the
 * function asked for it (the f.auto_DSE() primitive), and returns the
 * synthesis report from the virtual-Vitis estimator.
 */

#ifndef POM_DRIVER_COMPILER_H
#define POM_DRIVER_COMPILER_H

#include <memory>

#include "dse/dse.h"
#include "dsl/dsl.h"
#include "hls/estimator.h"
#include "lower/lower.h"

namespace pom::driver {

/** End-to-end compilation result. */
struct CompileResult
{
    /** The annotated affine dialect, the polyhedral state and the
     *  synthesizable HLS C (design->hlsC()). */
    std::shared_ptr<const dse::SelectedDesign> design;

    /** Virtual-Vitis synthesis report for the design. */
    hls::SynthesisReport report;

    /** Report of the unoptimized program (speedup denominator). */
    hls::SynthesisReport baseline;

    /** DSE wall-clock (0 when DSE was not run). */
    double dseSeconds = 0.0;
};

/**
 * Compile a DSL function to HLS C (paper: codegen()): through the DSE
 * at its default options when the function called autoDSE(), else with
 * only the user's scheduling primitives applied.
 */
CompileResult compile(dsl::Function &func);

} // namespace pom::driver

#endif // POM_DRIVER_COMPILER_H
