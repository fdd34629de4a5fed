/**
 * @file
 * The polyhedral AST (paper §V.B): the tree produced from a union of
 * iteration domains and schedules, with four node kinds — for, if, block
 * and user — mirroring isl's ast_build output. Hardware-optimization
 * annotations (pipeline / unroll) ride on for-nodes so the next IR layer
 * can turn them into HLS pragma attributes.
 */

#ifndef POM_AST_AST_H
#define POM_AST_AST_H

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "poly/affine_map.h"
#include "poly/integer_set.h"

namespace pom::ast {

/** Hardware directives attached to one loop dimension. */
struct HwAnnotation
{
    /** Target initiation interval; nullopt = not pipelined. */
    std::optional<int> pipelineII;

    /** Unroll factor; 1 = no unrolling, 0 = full unroll. */
    std::int64_t unrollFactor = 1;

    /**
     * Arrays proven free of loop-carried dependences within this
     * (pipelined) loop; emitted as `#pragma HLS dependence variable=X
     * inter false` hints (paper SectionV.A: dependence identification
     * "can serve as a hint to users, directing them to set the HLS
     * DEPENDENCE pragma").
     */
    std::vector<std::string> independentArrays;

    /** Scheduling equality (II + unroll); hints may differ per member. */
    bool
    sameScheduleAs(const HwAnnotation &o) const
    {
        return pipelineII == o.pipelineII && unrollFactor == o.unrollFactor;
    }
};

class AstNode;
using AstNodePtr = std::unique_ptr<AstNode>;

/** One node of the polyhedral AST. */
class AstNode
{
  public:
    enum class Kind { For, If, Block, User };

    explicit AstNode(Kind kind) : kind_(kind) {}

    Kind kind() const { return kind_; }

  private:
    Kind kind_;

  public:

    // --- For nodes -----------------------------------------------------
    /** Loop iterator name (unique within the nest path). */
    std::string iterName;

    /**
     * Loop bounds: iter >= max over lower of ceilDiv(expr, divisor) and
     * iter <= min over upper of floorDiv(expr, divisor). Bound
     * expressions are over the enclosing AST iterators (outer loops
     * first); their dimensionality equals this loop's depth + 1 with a
     * zero coefficient at the loop's own position.
     */
    poly::DimBounds bounds;

    /** Hardware annotation for this loop. */
    HwAnnotation hw;

    // --- If nodes ------------------------------------------------------
    /** Guard constraints over the enclosing AST iterators. */
    std::vector<poly::Constraint> conditions;

    // --- User nodes ----------------------------------------------------
    /** Name of the statement (compute) this instance belongs to. */
    std::string stmtName;

    /**
     * Map from the enclosing AST iterators to the statement's original
     * iterator tuple, used to rewrite the statement body.
     */
    poly::AffineMap iterMap;

    // --- For / If / Block ----------------------------------------------
    std::vector<AstNodePtr> children;

    /** Pretty-print the subtree (for debugging and golden tests). */
    std::string str(int indent = 0) const;
};

/** Create a node of the given kind. */
AstNodePtr makeNode(AstNode::Kind kind);

} // namespace pom::ast

#endif // POM_AST_AST_H
