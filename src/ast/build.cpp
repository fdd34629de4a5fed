#include "ast/build.h"

#include <algorithm>
#include <numeric>

#include "support/diagnostics.h"

namespace pom::ast {

using pom::poly::Constraint;
using pom::poly::DimBounds;
using pom::poly::IntegerSet;
using pom::poly::LinearExpr;

ScheduledStmt
ScheduledStmt::identity(std::string name, poly::IntegerSet domain)
{
    ScheduledStmt s;
    s.name = std::move(name);
    s.betas.assign(domain.numDims() + 1, 0);
    s.origMap = poly::AffineMap::identity(domain.dimNames());
    s.hwPerDim.assign(domain.numDims(), HwAnnotation{});
    s.domain = std::move(domain);
    return s;
}

namespace {

/** Recursive AST builder state. */
class Builder
{
  public:
    explicit Builder(const std::vector<ScheduledStmt> &stmts)
        : stmts_(stmts)
    {}

    AstNodePtr
    run()
    {
        std::vector<size_t> all(stmts_.size());
        std::iota(all.begin(), all.end(), 0);
        IntegerSet ctx(std::vector<std::string>{}); // 0-dim universe
        auto root = makeNode(AstNode::Kind::Block);
        buildLevel(all, 0, ctx, *root);
        if (root->children.size() == 1)
            return std::move(root->children.front());
        return root;
    }

  private:
    /**
     * Emit AST nodes for @p group (statement indices), all of which agree
     * on the loop structure above @p level, into @p parent. @p ctx is the
     * set of constraints enforced by the enclosing loops (over the outer
     * AST iterators).
     */
    void
    buildLevel(const std::vector<size_t> &group, size_t level,
               const IntegerSet &ctx, AstNode &parent)
    {
        // Order by the static (beta) coordinate at this level.
        std::vector<size_t> order = group;
        std::stable_sort(order.begin(), order.end(),
            [&](size_t a, size_t b) {
                return stmts_[a].betas.at(level) < stmts_[b].betas.at(level);
            });

        size_t pos = 0;
        while (pos < order.size()) {
            std::int64_t beta = stmts_[order[pos]].betas.at(level);
            std::vector<size_t> sub;
            while (pos < order.size() &&
                   stmts_[order[pos]].betas.at(level) == beta) {
                sub.push_back(order[pos]);
                ++pos;
            }
            emitGroup(sub, level, ctx, parent);
        }
    }

    /** Emit one beta-group: either user leaves or a shared for-loop. */
    void
    emitGroup(const std::vector<size_t> &sub, size_t level,
              const IntegerSet &ctx, AstNode &parent)
    {
        bool any_leaf = false, any_deep = false;
        for (size_t idx : sub) {
            if (stmts_[idx].domain.numDims() == level)
                any_leaf = true;
            else
                any_deep = true;
        }
        if (any_leaf && any_deep) {
            pom::support::fatal(
                "schedule groups a statement instance with a loop at "
                "level " + std::to_string(level));
        }
        if (any_leaf) {
            for (size_t idx : sub)
                emitUser(idx, ctx, parent);
            return;
        }

        // A shared loop. All members must agree on the bounds here.
        const ScheduledStmt &leader = stmts_[sub.front()];
        DimBounds bounds = leader.domain.boundsForCodegen(level);
        if (bounds.lower.empty() || bounds.upper.empty()) {
            pom::support::fatal("statement '" + leader.name +
                                "' has an unbounded loop dimension " +
                                std::to_string(level));
        }
        for (size_t idx : sub) {
            if (idx == sub.front())
                continue;
            DimBounds other = stmts_[idx].domain.boundsForCodegen(level);
            if (!(other == bounds)) {
                pom::support::fatal(
                    "cannot fuse statements '" + leader.name + "' and '" +
                    stmts_[idx].name + "': loop bounds differ at level " +
                    std::to_string(level));
            }
            if (!stmts_[idx].hwPerDim.at(level).sameScheduleAs(
                    leader.hwPerDim.at(level))) {
                pom::support::fatal(
                    "fused statements disagree on hardware annotation at "
                    "level " + std::to_string(level));
            }
        }

        // Prune bounds that the enclosing loops already guarantee (e.g.
        // the residual bound of an exactly-dividing tile), so the
        // emitted code avoids pointless min()/max() forms.
        pruneBounds(bounds, ctx, level);

        auto loop = makeNode(AstNode::Kind::For);
        loop->iterName = leader.domain.dimName(level);
        loop->bounds = bounds;
        loop->hw = leader.hwPerDim.at(level);
        // Union the dependence-pragma hints of all fused members.
        for (size_t idx : sub) {
            for (const auto &a :
                 stmts_[idx].hwPerDim.at(level).independentArrays) {
                auto &list = loop->hw.independentArrays;
                if (std::find(list.begin(), list.end(), a) == list.end())
                    list.push_back(a);
            }
        }
        std::sort(loop->hw.independentArrays.begin(),
                  loop->hw.independentArrays.end());

        // Extend the context with this loop's bound constraints.
        IntegerSet inner = ctx.withDimsInserted(level, {loop->iterName});
        for (const auto &b : bounds.lower) {
            // divisor * d_level - expr >= 0
            LinearExpr c =
                LinearExpr::dim(level + 1, level).scaled(b.divisor) - b.expr;
            inner.addInequality(c);
        }
        for (const auto &b : bounds.upper) {
            LinearExpr c =
                b.expr - LinearExpr::dim(level + 1, level).scaled(b.divisor);
            inner.addInequality(c);
        }

        buildLevel(sub, level + 1, inner, *loop);
        parent.children.push_back(std::move(loop));
    }

    /**
     * Remove loop bounds implied by the context plus the other bounds.
     * Bound constraints: lower => divisor*d_level - expr >= 0, upper =>
     * expr - divisor*d_level >= 0, over level+1 dims.
     */
    static void
    pruneBounds(poly::DimBounds &bounds, const IntegerSet &ctx,
                size_t level)
    {
        auto asConstraint = [&](const poly::Bound &b, bool lower) {
            LinearExpr d =
                LinearExpr::dim(level + 1, level).scaled(b.divisor);
            return Constraint{lower ? d - b.expr : b.expr - d, false};
        };
        auto prune = [&](std::vector<poly::Bound> &list, bool lower) {
            if (list.size() < 2)
                return;
            for (size_t c = 0; c < list.size() && list.size() > 1;) {
                IntegerSet rest = ctx.withDimsInserted(level, {"__b"});
                for (size_t o = 0; o < list.size(); ++o) {
                    if (o == c)
                        continue;
                    rest.addInequality(
                        asConstraint(list[o], lower).expr);
                }
                for (const auto &other :
                     lower ? bounds.upper : bounds.lower) {
                    rest.addInequality(
                        asConstraint(other, !lower).expr);
                }
                if (rest.implies(asConstraint(list[c], lower)))
                    list.erase(list.begin() + c);
                else
                    ++c;
            }
        };
        prune(bounds.lower, true);
        prune(bounds.upper, false);
    }

    /** Emit a user node, guarded by any non-implied domain constraints. */
    void
    emitUser(size_t idx, const IntegerSet &ctx, AstNode &parent)
    {
        const ScheduledStmt &stmt = stmts_[idx];
        POM_ASSERT(ctx.numDims() == stmt.domain.numDims(),
                   "context/domain depth mismatch for ", stmt.name);

        std::vector<Constraint> guards;
        for (size_t r = 0; r < stmt.domain.numConstraints(); ++r) {
            Constraint c = stmt.domain.constraint(r);
            if (!ctx.implies(c))
                guards.push_back(std::move(c));
        }

        auto user = makeNode(AstNode::Kind::User);
        user->stmtName = stmt.name;
        user->iterMap = stmt.origMap;

        if (guards.empty()) {
            parent.children.push_back(std::move(user));
            return;
        }
        auto guard = makeNode(AstNode::Kind::If);
        guard->conditions = std::move(guards);
        guard->children.push_back(std::move(user));
        parent.children.push_back(std::move(guard));
    }

    const std::vector<ScheduledStmt> &stmts_;
};

void
validate(const ScheduledStmt &s)
{
    size_t n = s.domain.numDims();
    if (s.betas.size() != n + 1) {
        pom::support::fatal("statement '" + s.name + "': beta vector size " +
                            std::to_string(s.betas.size()) +
                            " != numDims + 1");
    }
    if (s.origMap.numDomainDims() != n) {
        pom::support::fatal("statement '" + s.name +
                            "': origin map arity mismatch");
    }
    if (s.hwPerDim.size() != n) {
        pom::support::fatal("statement '" + s.name +
                            "': hardware annotation count mismatch");
    }
}

} // namespace

AstNodePtr
buildAst(const std::vector<ScheduledStmt> &stmts)
{
    if (stmts.empty())
        pom::support::fatal("buildAst called with no statements");
    for (const auto &s : stmts)
        validate(s);
    Builder builder(stmts);
    return builder.run();
}

} // namespace pom::ast
