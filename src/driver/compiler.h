/**
 * @file
 * The end-to-end POM driver: the `codegen()` entry of the paper's DSL
 * (Fig. 4 line 9). Compiles a DSL function through all three IR layers
 * into synthesizable HLS C, optionally running the two-stage DSE first
 * (the f.auto_DSE() primitive), and returns the synthesis report from
 * the virtual-Vitis estimator.
 */

#ifndef POM_DRIVER_COMPILER_H
#define POM_DRIVER_COMPILER_H

#include <string>

#include "dse/dse.h"
#include "dsl/dsl.h"
#include "hls/estimator.h"
#include "lower/lower.h"

namespace pom::driver {

/** Compilation options. */
struct CompileOptions
{
    /**
     * Run automatic DSE (overrides to true when the function called
     * autoDSE()). When false, only user-specified scheduling primitives
     * are applied.
     */
    bool autoDse = false;

    dse::DseOptions dseOptions;
};

/** End-to-end compilation result. */
struct CompileResult
{
    /** Synthesizable HLS C code. */
    std::string hlsCode;

    /** The annotated affine dialect and polyhedral state. */
    lower::LoweredFunction design;

    /** Virtual-Vitis synthesis report for the design. */
    hls::SynthesisReport report;

    /** Report of the unoptimized program (speedup denominator). */
    hls::SynthesisReport baseline;

    /** DSE wall-clock (0 when DSE was not run). */
    double dseSeconds = 0.0;
};

/** Compile a DSL function to HLS C (paper: codegen()). */
CompileResult compile(dsl::Function &func,
                      const CompileOptions &options = {});

} // namespace pom::driver

#endif // POM_DRIVER_COMPILER_H
