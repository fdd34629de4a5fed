/**
 * @file
 * The progressive lowering pipeline (paper Fig. 7): POM DSL ->
 * polyhedral statements (extraction + scheduling primitives) ->
 * polyhedral AST -> annotated affine dialect. lower() is five direct
 * calls, each traced as one `lower.*` span: extract, schedule,
 * annotate (HLS DEPENDENCE hints), ast and affine. The first two
 * stages are exposed separately so the DSE engine, the baselines and
 * the tests can transform the statements before lowerStmts() runs the
 * last three.
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
 * order, to the statements extracted from @p func; each statement's
 * compute and an after/fuse anchor's statement are found by name. An
 * anchor that is a compute of another function is fatal. With
 * @p ordering_only, only the statement-ordering primitives (after/fuse)
 * are applied -- these are part of the program's semantics, unlike loop
 * transformations and hardware annotations, and must be present even
 * in the "unoptimized" baseline.
 */
void applyDirectives(const dsl::Function &func,
                     std::vector<transform::PolyStmt> &stmts,
                     bool ordering_only = false);

/**
 * Lower already scheduled statements: attach the HLS DEPENDENCE pragma
 * hints of pipelined loops (paper Section V.A), build the polyhedral
 * AST and generate annotated affine dialect.
 */
LoweredFunction lowerStmts(const dsl::Function &func,
                           std::vector<transform::PolyStmt> stmts);

/**
 * Estimation-only lowering of a statement subset: build just the
 * polyhedral AST over @p node's statements into its astRoot
 * (LoweredFunction::func stays null). This is the per-node entry the
 * incremental DSE uses to estimate a single unit -- the estimator
 * reads only stmts + astRoot, and a node's AST subtree depends only on
 * its own statements, so the result is bit-identical to the matching
 * subtree of a full lowerStmts(). Skips the pragma hints and the IR:
 * hls::estimateNodes never reads either.
 */
void lowerNodeStmts(LoweredFunction &node);

/**
 * The unscheduled design: extract the statements, apply only their
 * ordering primitives (after/fuse) and lower. This is the semantic
 * reference of the oracle and the baseline every search starts from.
 */
LoweredFunction lowerUnscheduled(const dsl::Function &func);

/** Full pipeline: extract, apply primitives, build AST, generate IR. */
LoweredFunction lower(const dsl::Function &func);

} // namespace pom::lower

#endif // POM_LOWER_LOWER_H
