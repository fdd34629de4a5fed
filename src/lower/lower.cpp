#include "lower/lower.h"

#include <cmath>
#include <map>

#include "ir/builder.h"
#include "obs/obs.h"
#include "support/diagnostics.h"
#include "support/string_util.h"

namespace pom::lower {

using dsl::BinOp;
using dsl::ExprNode;
using dsl::UnOp;
using poly::AffineMap;
using poly::IntegerSet;
using poly::LinearExpr;

namespace {

/**
 * A subscript constant or factor as an int64. Fatal unless @p v is an
 * integer that int64 holds: a fraction would be silently truncated, and
 * an out-of-range cast is undefined behaviour.
 */
std::int64_t
integerConstant(double v)
{
    // -2^63 and 2^63 are exact doubles; NaN fails the first test.
    if (v != std::floor(v) || v < -0x1p63 || v >= 0x1p63)
        support::fatal("array subscript uses non-integer constant");
    return static_cast<std::int64_t>(v);
}

/**
 * The affine subscript of a DSL index expression over the given
 * iterator names. Fatal on non-affine forms (user error).
 */
LinearExpr
affineIndex(const ExprNode &node, const std::vector<std::string> &iters)
{
    size_t n = iters.size();
    switch (node.kind) {
      case ExprNode::Kind::Const:
        return LinearExpr::constant(n, integerConstant(node.value));
      case ExprNode::Kind::Iter: {
        for (size_t i = 0; i < n; ++i) {
            if (iters[i] == node.iterName)
                return LinearExpr::dim(n, i);
        }
        support::fatal("subscript references unknown iterator '" +
                       node.iterName + "'");
      }
      case ExprNode::Kind::Binary: {
        if (node.binOp == BinOp::Add) {
            return affineIndex(*node.lhs, iters) +
                   affineIndex(*node.rhs, iters);
        }
        if (node.binOp == BinOp::Sub) {
            return affineIndex(*node.lhs, iters) -
                   affineIndex(*node.rhs, iters);
        }
        if (node.binOp == BinOp::Mul) {
            // One side must be a constant.
            if (node.lhs->kind == ExprNode::Kind::Const) {
                return affineIndex(*node.rhs, iters)
                    .scaled(integerConstant(node.lhs->value));
            }
            if (node.rhs->kind == ExprNode::Kind::Const) {
                return affineIndex(*node.lhs, iters)
                    .scaled(integerConstant(node.rhs->value));
            }
        }
        support::fatal("non-affine array subscript");
      }
      default:
        support::fatal("non-affine array subscript");
    }
}

/** Collect the accesses of an expression tree (reads). */
void
collectLoads(const ExprNode &node, const std::vector<std::string> &iters,
             std::vector<poly::Access> &out)
{
    switch (node.kind) {
      case ExprNode::Kind::Load: {
        std::vector<LinearExpr> subs;
        subs.reserve(node.indices.size());
        for (const auto &idx : node.indices)
            subs.push_back(affineIndex(*idx, iters));
        out.push_back(poly::Access{node.array->name(),
                                   AffineMap(iters, std::move(subs)),
                                   false});
        for (const auto &idx : node.indices)
            collectLoads(*idx, iters, out); // nested loads are rejected
        break;
      }
      case ExprNode::Kind::Binary:
        collectLoads(*node.lhs, iters, out);
        collectLoads(*node.rhs, iters, out);
        break;
      case ExprNode::Kind::Unary:
        collectLoads(*node.lhs, iters, out);
        break;
      default:
        break;
    }
}

/** The access relation list of a compute over its iterators. */
std::vector<poly::Access>
accessesOf(const dsl::Compute &compute)
{
    std::vector<std::string> iters;
    iters.reserve(compute.iters().size());
    for (const auto &v : compute.iters())
        iters.push_back(v.name());

    std::vector<poly::Access> accesses;
    // The destination store first.
    const ExprNode &dest = *compute.dest().node();
    POM_ASSERT(dest.kind == ExprNode::Kind::Load, "dest must be an access");
    {
        std::vector<LinearExpr> subs;
        for (const auto &idx : dest.indices)
            subs.push_back(affineIndex(*idx, iters));
        if (subs.size() != dest.array->shape().size()) {
            support::fatal("destination access of '" + compute.name() +
                           "' has wrong rank for '" + dest.array->name() +
                           "'");
        }
        accesses.push_back(poly::Access{dest.array->name(),
                                        AffineMap(iters, std::move(subs)),
                                        true});
    }
    collectLoads(*compute.rhs().node(), iters, accesses);
    for (const auto &a : accesses) {
        const dsl::Placeholder *p =
            compute.function().findPlaceholder(a.array);
        POM_ASSERT(p != nullptr, "access to unregistered placeholder");
        if (a.map.numResults() != p->shape().size()) {
            support::fatal("access to '" + a.array + "' in compute '" +
                           compute.name() + "' has wrong rank");
        }
    }
    return accesses;
}

} // namespace

std::vector<transform::PolyStmt>
extractStmts(const dsl::Function &func)
{
    if (func.computes().empty())
        support::fatal("function '" + func.name() + "' has no computes");
    const auto &computes = func.computes();
    std::vector<transform::PolyStmt> stmts;
    stmts.reserve(computes.size());
    for (std::size_t i = 0; i < computes.size(); ++i) {
        const dsl::Compute *c = computes[i];
        std::vector<std::string> names;
        std::vector<std::int64_t> lows, highs;
        for (const auto &v : c->iters()) {
            names.push_back(v.name());
            lows.push_back(v.lo());
            highs.push_back(v.hi() - 1); // DSL ranges are half-open
        }
        transform::PolyStmt stmt;
        stmt.sched = ast::ScheduledStmt::identity(
            c->name(), IntegerSet::box(names, lows, highs));
        // Leave room between top-level betas so `after` can interleave.
        stmt.sched.betas[0] = 16 * static_cast<std::int64_t>(i);
        stmt.accesses = accessesOf(*c);
        stmts.push_back(std::move(stmt));
    }
    return stmts;
}

void
applyDirectives(const dsl::Function &func,
                std::vector<transform::PolyStmt> &stmts,
                bool ordering_only)
{
    // An after/fuse anchor is the statement of the same name, and only
    // when the anchor compute belongs to @p func.
    auto anchorOf = [&](const dsl::Compute &other) -> transform::PolyStmt & {
        if (&other.function() == &func) {
            for (auto &s : stmts) {
                if (s.sched.name == other.name())
                    return s;
            }
        }
        support::fatal("after/fuse references a compute outside this "
                       "function");
    };

    for (auto &stmt : stmts) {
        const dsl::Compute *compute = func.findCompute(stmt.sched.name);
        POM_ASSERT(compute != nullptr, "statement ", stmt.sched.name,
                   " has no compute in function ", func.name());
        for (const auto &d : compute->directives()) {
            using K = dsl::Directive::Kind;
            if (ordering_only && d.kind != K::After && d.kind != K::Fuse)
                continue;
            switch (d.kind) {
              case K::Interchange:
                transform::interchange(stmt, d.vars[0], d.vars[1]);
                break;
              case K::Split:
                transform::split(stmt, d.vars[0], d.factors[0],
                                 d.newVars[0], d.newVars[1]);
                break;
              case K::Tile:
                transform::tile(stmt, d.vars[0], d.vars[1], d.factors[0],
                                d.factors[1], d.newVars[0], d.newVars[1],
                                d.newVars[2], d.newVars[3]);
                break;
              case K::Skew:
                transform::skew(stmt, d.vars[0], d.vars[1], d.factors[0],
                                d.newVars[0], d.newVars[1]);
                break;
              case K::After: {
                const transform::PolyStmt &anchor = anchorOf(*d.other);
                size_t shared = 0;
                if (!d.vars.empty())
                    shared = anchor.dimIndex(d.vars[0]) + 1;
                transform::placeAfter(stmt, anchor, shared);
                break;
              }
              case K::Fuse:
                transform::fuseInto(stmt, anchorOf(*d.other));
                break;
              case K::Pipeline:
                transform::setPipeline(stmt, d.vars[0],
                                       static_cast<int>(d.factors[0]));
                break;
              case K::Unroll:
                transform::setUnroll(stmt, d.vars[0], d.factors[0]);
                break;
            }
        }
    }
}

namespace {

/** Generates annotated affine dialect from the polyhedral AST. */
class IrGen
{
  public:
    explicit IrGen(const dsl::Function &func) : func_(func) {}

    std::unique_ptr<ir::Operation>
    run(const ast::AstNode &root)
    {
        auto fn = ir::OpBuilder::makeFunc(func_.name());
        for (const dsl::Placeholder *p : func_.placeholders()) {
            ir::Type type = ir::Type::memref(p->elementType(), p->shape());
            arrays_[p->name()] =
                ir::OpBuilder::addFuncArg(*fn, type, p->name());
            if (!p->partitionFactors().empty()) {
                fn->setAttr("hls.partition." + p->name(),
                            ir::Attribute(p->partitionFactors()));
                fn->setAttr("hls.partition_kind." + p->name(),
                            ir::Attribute(p->partitionKind()));
            }
        }
        ir::OpBuilder builder(&fn->region(0));
        std::vector<ir::Value *> ivs;
        emit(root, builder, ivs);
        return fn;
    }

  private:
    void
    emit(const ast::AstNode &node, ir::OpBuilder &builder,
         std::vector<ir::Value *> &ivs)
    {
        switch (node.kind()) {
          case ast::AstNode::Kind::Block:
            for (const auto &c : node.children)
                emit(*c, builder, ivs);
            break;
          case ast::AstNode::Kind::For: {
            ir::Operation *loop =
                builder.createFor(node.bounds, node.iterName, ivs);
            if (node.hw.pipelineII) {
                loop->setAttr(ir::kAttrPipelineII,
                              ir::Attribute(
                                  std::int64_t(*node.hw.pipelineII)));
            }
            if (node.hw.unrollFactor != 1) {
                loop->setAttr(ir::kAttrUnroll,
                              ir::Attribute(node.hw.unrollFactor));
            }
            if (!node.hw.independentArrays.empty()) {
                loop->setAttr(ir::kAttrDependenceFree,
                              ir::Attribute(support::join(
                                  node.hw.independentArrays, ",")));
            }
            ir::OpBuilder inner(&loop->region(0));
            ivs.push_back(loop->region(0).argument(0));
            for (const auto &c : node.children)
                emit(*c, inner, ivs);
            ivs.pop_back();
            break;
          }
          case ast::AstNode::Kind::If: {
            ir::Operation *guard =
                builder.createIf(node.conditions, ivs);
            ir::OpBuilder inner(&guard->region(0));
            for (const auto &c : node.children)
                emit(*c, inner, ivs);
            break;
          }
          case ast::AstNode::Kind::User:
            emitStatement(node, builder, ivs);
            break;
        }
    }

    void
    emitStatement(const ast::AstNode &node, ir::OpBuilder &builder,
                  std::vector<ir::Value *> &ivs)
    {
        const dsl::Compute *found = func_.findCompute(node.stmtName);
        POM_ASSERT(found != nullptr, "AST references unknown statement ",
                   node.stmtName);
        const dsl::Compute &compute = *found;
        POM_ASSERT(node.iterMap.numDomainDims() == ivs.size(),
                   "iteration depth mismatch for ", node.stmtName);

        std::vector<std::string> orig_iters;
        for (const auto &v : compute.iters())
            orig_iters.push_back(v.name());

        ir::ScalarKind kind =
            compute.dest().node()->array->elementType();
        ir::Value *value = emitExpr(*compute.rhs().node(), orig_iters,
                                    node.iterMap, kind, builder, ivs);

        const ExprNode &dest = *compute.dest().node();
        builder.createStore(value, arrays_.at(dest.array->name()),
                            accessMap(dest, orig_iters, node.iterMap),
                            ivs);
    }

    AffineMap
    accessMap(const ExprNode &load,
              const std::vector<std::string> &orig_iters,
              const AffineMap &iter_map) const
    {
        std::vector<LinearExpr> subs;
        for (const auto &idx : load.indices)
            subs.push_back(affineIndex(*idx, orig_iters));
        AffineMap over_orig(orig_iters, std::move(subs));
        return over_orig.compose(iter_map);
    }

    ir::Value *
    emitExpr(const ExprNode &node,
             const std::vector<std::string> &orig_iters,
             const AffineMap &iter_map, ir::ScalarKind kind,
             ir::OpBuilder &builder, std::vector<ir::Value *> &ivs)
    {
        bool flt = ir::isFloat(kind);
        switch (node.kind) {
          case ExprNode::Kind::Const:
            return builder.createConstant(node.value,
                                          ir::Type::scalar(kind));
          case ExprNode::Kind::Iter:
            support::fatal("iterator used as a value is not supported in "
                           "compute expressions");
          case ExprNode::Kind::Load:
            return builder.createLoad(
                arrays_.at(node.array->name()),
                accessMap(node, orig_iters, iter_map), ivs);
          case ExprNode::Kind::Binary: {
            ir::Value *lhs = emitExpr(*node.lhs, orig_iters, iter_map,
                                      kind, builder, ivs);
            ir::Value *rhs = emitExpr(*node.rhs, orig_iters, iter_map,
                                      kind, builder, ivs);
            std::string name;
            switch (node.binOp) {
              case BinOp::Add: name = flt ? "arith.addf" : "arith.addi";
                break;
              case BinOp::Sub: name = flt ? "arith.subf" : "arith.subi";
                break;
              case BinOp::Mul: name = flt ? "arith.mulf" : "arith.muli";
                break;
              case BinOp::Div: name = "arith.divf"; break;
              case BinOp::Max: name = "arith.maxf"; break;
              case BinOp::Min: name = "arith.minf"; break;
            }
            return builder.createBinary(name, lhs, rhs);
          }
          case ExprNode::Kind::Unary: {
            ir::Value *lhs = emitExpr(*node.lhs, orig_iters, iter_map,
                                      kind, builder, ivs);
            std::string name;
            switch (node.unOp) {
              case UnOp::Neg: name = "arith.negf"; break;
              case UnOp::Sqrt: name = "math.sqrt"; break;
              case UnOp::Exp: name = "math.exp"; break;
            }
            return builder.createUnary(name, lhs);
          }
        }
        support::fatal("unreachable expression kind");
    }

    const dsl::Function &func_;
    std::map<std::string, ir::Value *> arrays_;
};

/**
 * Attach HLS DEPENDENCE pragma hints (paper Section V.A): for each
 * pipelined loop level, every written array with no loop-carried
 * dependence at or below that level is provably inter-iteration
 * independent, and the generated code can assert it to the HLS tool.
 */
void
annotateDependenceHints(std::vector<transform::PolyStmt> &stmts)
{
    for (auto &stmt : stmts) {
        bool any_pipeline = false;
        for (const auto &hw : stmt.sched.hwPerDim)
            any_pipeline |= hw.pipelineII.has_value();
        if (!any_pipeline)
            continue;
        auto deps = transform::carriedDependences(stmt);
        for (size_t p = 0; p < stmt.numDims(); ++p) {
            auto &hw = stmt.sched.hwPerDim[p];
            if (!hw.pipelineII)
                continue;
            hw.independentArrays.clear();
            for (const auto &acc : stmt.accesses) {
                if (!acc.isWrite)
                    continue;
                bool carried_inside = false;
                for (const auto &d : deps) {
                    if (d.array == acc.array && d.level >= p)
                        carried_inside = true;
                }
                if (!carried_inside)
                    hw.independentArrays.push_back(acc.array);
            }
        }
    }
}

/** The polyhedral AST of the statements' schedules. */
ast::AstNodePtr
buildAstOf(const std::vector<transform::PolyStmt> &stmts)
{
    std::vector<ast::ScheduledStmt> sched;
    sched.reserve(stmts.size());
    for (const auto &s : stmts)
        sched.push_back(s.sched);
    return ast::buildAst(sched);
}

/** Extract the statements and apply their (ordering) primitives. */
std::vector<transform::PolyStmt>
scheduledStmts(const dsl::Function &func, bool ordering_only)
{
    std::vector<transform::PolyStmt> stmts;
    {
        obs::Span span("lower.extract", "lower");
        stmts = extractStmts(func);
    }
    obs::Span span("lower.schedule", "lower");
    applyDirectives(func, stmts, ordering_only);
    return stmts;
}

} // namespace

LoweredFunction
lowerStmts(const dsl::Function &func,
           std::vector<transform::PolyStmt> stmts)
{
    {
        obs::Span span("lower.annotate", "lower");
        annotateDependenceHints(stmts);
    }
    LoweredFunction out;
    {
        obs::Span span("lower.ast", "lower");
        out.astRoot = buildAstOf(stmts);
    }
    {
        obs::Span span("lower.affine", "lower");
        out.func = IrGen(func).run(*out.astRoot);
    }
    out.stmts = std::move(stmts);
    return out;
}

void
lowerNodeStmts(LoweredFunction &node)
{
    node.astRoot = buildAstOf(node.stmts);
}

LoweredFunction
lowerUnscheduled(const dsl::Function &func)
{
    return lowerStmts(func, scheduledStmts(func, /*ordering_only=*/true));
}

LoweredFunction
lower(const dsl::Function &func)
{
    return lowerStmts(func, scheduledStmts(func, /*ordering_only=*/false));
}

} // namespace pom::lower
