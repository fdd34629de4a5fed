#include "graph/dependence_graph.h"

#include <algorithm>
#include <functional>
#include <sstream>

#include "support/diagnostics.h"

namespace pom::graph {

std::string
Hint::str() const
{
    switch (kind) {
      case Kind::None:
        return "no tight dependence";
      case Kind::Interchange:
        return "interchange level " + std::to_string(fromLevel) +
               " with innermost level " + std::to_string(toLevel);
      case Kind::Skew:
        return "skew to free the innermost level";
    }
    return "?";
}

DependenceGraph::DependenceGraph(
    const std::vector<transform::PolyStmt> &stmts)
{
    for (size_t i = 0; i < stmts.size(); ++i) {
        NodeInfo node;
        node.index = i;
        node.stmt = &stmts[i];
        analyzeNode(node);
        nodes_.push_back(std::move(node));
    }
    // Coarse edges: a write in one compute feeding any access of a later
    // compute (program order; Fig. 8 steps 1-2 use the dependence map of
    // load/store sets).
    for (size_t i = 0; i < stmts.size(); ++i) {
        for (size_t j = i + 1; j < stmts.size(); ++j) {
            if (poly::producesFor(stmts[i].accesses, stmts[j].accesses))
                edges_.push_back(Edge{i, j});
        }
    }
}

void
DependenceGraph::analyzeNode(NodeInfo &node)
{
    node.selfDeps = transform::selfDependences(*node.stmt);
    size_t n = node.stmt->numDims();
    node.innermostCarried = false;
    node.reductionDims.clear();
    if (n == 0)
        return;

    std::vector<bool> carried(n, false);
    for (const auto &d : node.selfDeps) {
        carried[d.level] = true;
        if (d.level == n - 1)
            node.innermostCarried = true;
    }
    // Reduction dims: a level that carries dependences whose distance is
    // zero in every other dimension (Fig. 8 step 3: GEMM's k has
    // distance vector (0, 0, 1)).
    for (size_t l = 0; l < n; ++l) {
        if (!carried[l])
            continue;
        bool pure = !node.selfDeps.empty();
        for (const auto &d : node.selfDeps) {
            if (d.level != l) {
                pure = false;
                break;
            }
            for (size_t k = 0; k < n; ++k) {
                if (k == l)
                    continue;
                if (!d.distLo[k] || !d.distHi[k] || *d.distLo[k] != 0 ||
                    *d.distHi[k] != 0) {
                    pure = false;
                    break;
                }
            }
        }
        if (pure)
            node.reductionDims.push_back(l);
    }
}

std::vector<std::vector<size_t>>
DependenceGraph::collectPaths() const
{
    std::vector<std::vector<size_t>> adj(nodes_.size());
    std::vector<int> in_degree(nodes_.size(), 0);
    std::vector<bool> has_out(nodes_.size(), false);
    for (const auto &e : edges_) {
        adj[e.from].push_back(e.to);
        ++in_degree[e.to];
        has_out[e.from] = true;
    }

    std::vector<std::vector<size_t>> paths;
    std::vector<size_t> current;
    std::function<void(size_t)> dfs = [&](size_t node) {
        current.push_back(node);
        if (adj[node].empty()) {
            paths.push_back(current);
        } else {
            for (size_t next : adj[node])
                dfs(next);
        }
        current.pop_back();
    };
    for (size_t i = 0; i < nodes_.size(); ++i) {
        if (in_degree[i] == 0)
            dfs(i);
    }
    return paths;
}

bool
DependenceGraph::interchangeIsLegal(size_t index, size_t a, size_t b) const
{
    const NodeInfo &node = nodes_.at(index);
    size_t n = node.stmt->numDims();
    POM_ASSERT(a < n && b < n, "interchange level out of range");
    std::vector<size_t> order(n);
    for (size_t i = 0; i < n; ++i)
        order[i] = i;
    std::swap(order[a], order[b]);

    for (const auto &d : node.selfDeps) {
        // The permuted distance vector must stay lexicographically
        // positive. Unknown entries are conservatively illegal unless a
        // strictly positive entry precedes them.
        bool decided = false;
        for (size_t pos = 0; pos < n && !decided; ++pos) {
            size_t k = order[pos];
            if (d.distLo[k] && *d.distLo[k] > 0) {
                decided = true; // strictly positive first -> legal dep
            } else if (d.distLo[k] && d.distHi[k] && *d.distLo[k] == 0 &&
                       *d.distHi[k] == 0) {
                continue; // zero: look further
            } else {
                return false; // could be negative first -> illegal
            }
        }
        // All-zero would be a loop-independent dep; it cannot be carried,
        // so reaching here without decision means distances were zero.
    }
    return true;
}

namespace {

/**
 * Level carrying a dependence after permuting its distance vector, or
 * the dimension count when the carrying level cannot be proven to move
 * off the innermost position (unknown signs are conservative).
 */
size_t
carriedLevelAfterPerm(const poly::Dependence &dep,
                      const std::vector<size_t> &order)
{
    size_t n = order.size();
    for (size_t pos = 0; pos < n; ++pos) {
        size_t k = order[pos];
        if (dep.distLo[k] && *dep.distLo[k] > 0)
            return pos;
        if (dep.distLo[k] && dep.distHi[k] && *dep.distLo[k] == 0 &&
            *dep.distHi[k] == 0) {
            continue;
        }
        return n; // unknown sign: assume the worst
    }
    return n;
}

} // namespace

Hint
DependenceGraph::suggest(size_t index) const
{
    const NodeInfo &node = nodes_.at(index);
    size_t n = node.stmt->numDims();
    Hint hint;
    if (!node.innermostCarried || n < 2)
        return hint;

    std::vector<bool> carried(n, false);
    for (const auto &d : node.selfDeps)
        carried[d.level] = true;

    // Step 1: a dependence-free outer level that can legally move
    // innermost (the Fig. 8 guidance for GEMM-style reductions).
    for (size_t l = 0; l < n - 1; ++l) {
        if (carried[l])
            continue;
        if (interchangeIsLegal(index, l, n - 1)) {
            hint.kind = Hint::Kind::Interchange;
            hint.fromLevel = l;
            hint.toLevel = n - 1;
            return hint;
        }
    }

    // Step 2: no free level; an interchange may still pull every
    // dependence off the innermost position (this is what makes a
    // skewed Seidel nest converge: skew first, then interchange).
    for (size_t l = 0; l + 1 < n; ++l) {
        if (!interchangeIsLegal(index, l, n - 1))
            continue;
        std::vector<size_t> order(n);
        for (size_t i = 0; i < n; ++i)
            order[i] = i;
        std::swap(order[l], order[n - 1]);
        bool frees_innermost = true;
        for (const auto &d : node.selfDeps) {
            if (carriedLevelAfterPerm(d, order) >= n - 1) {
                frees_innermost = false;
                break;
            }
        }
        if (frees_innermost) {
            hint.kind = Hint::Kind::Interchange;
            hint.fromLevel = l;
            hint.toLevel = n - 1;
            return hint;
        }
    }

    // If some level is dependence-free, stage 2 can still extract
    // parallelism there (unroll the free level, pipeline above the
    // reduction suffix, e.g. convolutions) -- no restructuring needed.
    for (size_t l = 0; l < n; ++l) {
        if (!carried[l])
            return hint; // Kind::None
    }

    // Step 3: every level carries a dependence; restructure the
    // iteration space (paper §VI.A: "leverage other transformations such
    // as loop splitting and loop skewing").
    hint.kind = Hint::Kind::Skew;
    return hint;
}

std::string
DependenceGraph::str() const
{
    std::ostringstream os;
    os << "dependence graph: " << nodes_.size() << " nodes, "
       << edges_.size() << " edges\n";
    for (const auto &node : nodes_) {
        os << "  [" << node.index << "] " << node.stmt->sched.name;
        if (!node.reductionDims.empty()) {
            os << " reduction_dims=";
            for (size_t d : node.reductionDims)
                os << d << " ";
        }
        if (node.innermostCarried)
            os << " (innermost carried)";
        os << "\n";
        for (const auto &d : node.selfDeps)
            os << "    dep " << d.str() << "\n";
    }
    for (const auto &e : edges_) {
        os << "  edge " << nodes_[e.from].stmt->sched.name << " -> "
           << nodes_[e.to].stmt->sched.name << "\n";
    }
    return os.str();
}

} // namespace pom::graph
