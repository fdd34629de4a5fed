/**
 * @file
 * Quickstart: the paper's Fig. 4 / Fig. 5 / Fig. 6 flow in one program.
 *
 * 1. Describe a matrix multiplication with the POM DSL (iterators,
 *    placeholders, one compute).
 * 2. Attach scheduling primitives: tile, pipeline, unroll, partition.
 * 3. codegen(): lower through the polyhedral IR to the annotated
 *    affine dialect, and emit synthesizable HLS C.
 *
 * Build and run:  ./build/examples/quickstart
 */

#include <cstdio>

#include "driver/compiler.h"
#include "dsl/dsl.h"

int
main()
{
    using namespace pom::dsl;

    // --- Algorithm specification (Fig. 4) -------------------------------
    pom::dsl::Function f("gemm");
    Var i("i", 0, 32), j("j", 0, 32), k("k", 0, 32);
    Placeholder A(f, "A", {32, 32}, ScalarKind::F32);
    Placeholder B(f, "B", {32, 32}, ScalarKind::F32);
    Placeholder C(f, "C", {32, 32}, ScalarKind::F32);
    Compute s(f, "s", {k, i, j}, A(i, j) + B(i, k) * C(k, j), A(i, j));

    // --- Schedule (Fig. 5 + Fig. 6) --------------------------------------
    Var i0("i0"), j0("j0"), i1("i1"), j1("j1");
    s.tile(i, j, 4, 4, i0, j0, i1, j1);
    s.pipeline(j0, 1);
    s.unroll(i1, 4);
    s.unroll(j1, 4);
    A.partition({4, 4}, "cyclic");

    // --- codegen() --------------------------------------------------------
    pom::driver::CompileResult result = pom::driver::compile(f);

    std::printf("---- synthesis report ----\n%s\n\n",
                result.report.str(pom::hls::Device::xc7z020()).c_str());
    std::printf("speedup over unscheduled code: %.1fx\n\n",
                result.report.speedupOver(result.baseline));
    std::printf("---- generated HLS C ----\n%s\n",
                result.design->hlsC().c_str());
    return 0;
}
