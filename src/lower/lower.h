/**
 * @file
 * The progressive lowering pipeline (paper Fig. 7): POM DSL ->
 * polyhedral statements (extraction + scheduling primitives) ->
 * polyhedral AST -> annotated affine dialect. Each stage is exposed
 * separately so the DSE engine and the tests can intervene between
 * layers.
 */

#ifndef POM_LOWER_LOWER_H
#define POM_LOWER_LOWER_H

#include <memory>
#include <vector>

#include "ast/build.h"
#include "dsl/dsl.h"
#include "ir/operation.h"
#include "transform/poly_stmt.h"

namespace pom::lower {

/** The result of lowering a DSL function to the affine dialect. */
struct LoweredFunction
{
    /** Annotated affine dialect (func.func). */
    std::unique_ptr<ir::Operation> func;

    /** The polyhedral AST the IR was generated from. */
    ast::AstNodePtr astRoot;

    /** Final polyhedral statements (after all transformations). */
    std::vector<transform::PolyStmt> stmts;
};

/**
 * Extract polyhedral statements from a DSL function: iteration domains
 * from iterator ranges, access relations from load/store expressions,
 * and sequential top-level schedules. No scheduling primitives are
 * applied yet.
 */
std::vector<transform::PolyStmt> extractStmts(const dsl::Function &func);

/**
 * Apply each compute's recorded scheduling primitives, in program
 * order, to the extracted statements. With @p ordering_only, only the
 * statement-ordering primitives (after/fuse) are applied -- these are
 * part of the program's semantics, unlike loop transformations and
 * hardware annotations, and must be present even in the "unoptimized"
 * baseline.
 */
void applyDirectives(std::vector<transform::PolyStmt> &stmts,
                     bool ordering_only = false);

/**
 * Attach HLS DEPENDENCE pragma hints (paper Section V.A): for each
 * pipelined loop level, every written array with no loop-carried
 * dependence at or below that level is provably inter-iteration
 * independent, and the generated code can assert it to the HLS tool.
 * Returns the number of (loop level, array) hints attached.
 */
std::size_t
annotateDependenceHints(std::vector<transform::PolyStmt> &stmts);

/** Generate annotated affine dialect from a polyhedral AST. */
std::unique_ptr<ir::Operation>
generateAffine(const dsl::Function &func,
               const std::vector<transform::PolyStmt> &stmts,
               const ast::AstNode &astRoot);

/** Build the polyhedral AST and generate annotated affine dialect. */
LoweredFunction lowerStmts(const dsl::Function &func,
                           std::vector<transform::PolyStmt> stmts);

/**
 * Estimation-only lowering of a statement subset: build just the
 * polyhedral AST over @p stmts and return it with the statements
 * (LoweredFunction::func stays null). This is the per-node entry the
 * incremental DSE uses to re-evaluate a single unit -- the estimator
 * reads only stmts + astRoot, and a node's AST subtree depends only on
 * its own statements, so the result is bit-identical to the matching
 * subtree of a full lowerStmts(). Skips the pass pipeline entirely
 * (no pragma hints, no IR): hls::estimateNodes never reads either.
 */
LoweredFunction lowerNodeStmts(std::vector<transform::PolyStmt> stmts);

/** Full pipeline: extract, apply primitives, build AST, generate IR. */
LoweredFunction lower(const dsl::Function &func);

/**
 * Register the front-end lowering passes (extract-stmts,
 * schedule-apply, annotate-pragmas, build-ast, ast-to-affine) with the
 * global PassRegistry. Idempotent; lower()/lowerStmts() call it, so
 * only direct PassManager users (pom-opt, tests) need it explicitly.
 */
void registerLoweringPasses();

/**
 * Extract the affine subscript of a DSL index expression over the given
 * iterator names. Fatal on non-affine forms (user error).
 */
poly::LinearExpr affineIndex(const dsl::ExprNode &node,
                             const std::vector<std::string> &iters);

/** Build the access relation list of a compute over its iterators. */
std::vector<poly::Access> accessesOf(const dsl::Compute &compute);

} // namespace pom::lower

#endif // POM_LOWER_LOWER_H
