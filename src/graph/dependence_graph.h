/**
 * @file
 * The dependence graph IR (paper §V.A, Fig. 8): the first IR layer.
 * Nodes are computes (nested loops); edges are coarse-grained
 * producer/consumer relations extracted from load/store sets. On top of
 * the graph, fine-grained analysis computes per-node loop-carried
 * dependences (distance/direction vectors, reduction dimensions) and
 * derives transformation hints ("loop-carried dependence in node S4 can
 * be alleviated using loop interchange") that drive DSE stage 1.
 */

#ifndef POM_GRAPH_DEPENDENCE_GRAPH_H
#define POM_GRAPH_DEPENDENCE_GRAPH_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "poly/dependence.h"
#include "transform/poly_stmt.h"

namespace pom::graph {

/** A transformation hint produced by fine-grained analysis. */
struct Hint
{
    enum class Kind
    {
        None,               ///< no tight loop-carried dependence
        Interchange,        ///< move a dependence-free level innermost
        Skew,               ///< no free level: skew to create one
    };

    Kind kind = Kind::None;

    /** For Interchange: the level to move innermost. */
    size_t fromLevel = 0;

    /** For Interchange: the (innermost) level it replaces. */
    size_t toLevel = 0;

    std::string str() const;
};

/** Per-node analysis results. */
struct NodeInfo
{
    size_t index = 0;
    const transform::PolyStmt *stmt = nullptr;

    /** Loop-carried self dependences, in the transformed loop order. */
    std::vector<poly::Dependence> selfDeps;

    /**
     * Dimensions that act as reductions: every dependence distance is
     * zero except at this level (e.g. k in GEMM, Fig. 8 step 3).
     */
    std::vector<size_t> reductionDims;

    /** True if some dependence is carried at the innermost level. */
    bool innermostCarried = false;
};

/** One coarse dependence edge (producer -> consumer). */
struct Edge
{
    size_t from = 0;
    size_t to = 0;
};

/** The dependence graph over a function's polyhedral statements. */
class DependenceGraph
{
  public:
    /**
     * Build the graph: coarse edges from access sets, fine-grained
     * analysis per node.
     */
    explicit DependenceGraph(const std::vector<transform::PolyStmt> &stmts);

    const std::vector<NodeInfo> &nodes() const { return nodes_; }
    const std::vector<Edge> &edges() const { return edges_; }

    /**
     * All data paths source->sink via DFS (paper Fig. 8 step 4), as
     * node-index sequences. Isolated nodes form singleton paths.
     */
    std::vector<std::vector<size_t>> collectPaths() const;

    /**
     * Suggest a transformation for node @p index that relieves its tight
     * loop-carried dependence, if any (paper §VI.A).
     */
    Hint suggest(size_t index) const;

    /**
     * Would interchanging levels @p a and @p b of node @p index keep all
     * dependences lexicographically positive? Conservative: unknown
     * distance signs count as illegal.
     */
    bool interchangeIsLegal(size_t index, size_t a, size_t b) const;

    /** Render nodes, edges and per-node dependences. */
    std::string str() const;

  private:
    void analyzeNode(NodeInfo &node);

    std::vector<NodeInfo> nodes_;
    std::vector<Edge> edges_;
};

} // namespace pom::graph

#endif // POM_GRAPH_DEPENDENCE_GRAPH_H
