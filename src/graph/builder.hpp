/**
 * @file
 * Edge-list to CSR graph construction.
 */

#pragma once

#include <vector>

#include "graph/digraph.hpp"

namespace digraph::graph {

/**
 * Result of GraphBuilder::append — the extended graph plus the edge-delta
 * journal that lets downstream consumers (incremental preprocessing, the
 * evolving engine's warm start) work in O(|batch|) instead of re-deriving
 * the delta with O(m) hasEdge probes.
 *
 * Edge ids are positional in the (src, dst)-sorted CSR, so inserting an
 * edge shifts every id behind its insertion point; `old_to_new` records
 * the shift for every surviving old edge and `fresh_ids` the final ids of
 * the accepted batch edges.
 */
struct GraphDelta
{
    /** The extended graph (old edges keep their weights). */
    DirectedGraph graph;
    /** Accepted batch edges — first-occurrence deduplicated, self-loops
     *  and already-present (src, dst) pairs dropped — sorted by
     *  (src, dst). */
    std::vector<Edge> fresh;
    /** Edge id of fresh[i] in `graph`. */
    std::vector<EdgeId> fresh_ids;
    /** New edge id of every old edge (size = old numEdges()). */
    std::vector<EdgeId> old_to_new;
    /** Vertex count before the append. */
    VertexId old_num_vertices = 0;
};

/**
 * Accumulates edges and finalizes them into an immutable DirectedGraph.
 *
 * Edges are sorted by (src, dst); self-loops and duplicate (src, dst) pairs
 * can optionally be removed (duplicates keep the first weight seen).
 */
class GraphBuilder
{
  public:
    /** @param num_vertices Vertex-count hint; grows if edges exceed it. */
    explicit GraphBuilder(VertexId num_vertices = 0)
        : num_vertices_(num_vertices)
    {}

    /** Add a directed edge. */
    void
    addEdge(VertexId src, VertexId dst, Value weight = 1.0)
    {
        edges_.push_back({src, dst, weight});
    }

    /** Append a batch of edges. */
    void addEdges(const std::vector<Edge> &edges);

    /** Drop self-loops during build(). Default true. */
    void setRemoveSelfLoops(bool on) { remove_self_loops_ = on; }

    /** Deduplicate parallel edges during build(). Default true. */
    void setDeduplicate(bool on) { deduplicate_ = on; }

    /**
     * Build the CSR graph. The builder is left empty afterwards.
     * Isolated vertices up to the max id (or the constructor hint) are kept.
     */
    DirectedGraph build();

    /**
     * Extend @p base with @p batch without re-adding its m existing
     * edges: each adjacency row is merged with the (sorted) accepted
     * batch edges of its source, costing O(n + m + |batch| log |batch|)
     * instead of the O((m + |batch|) log (m + |batch|)) full re-sort a
     * rebuild through build() pays.
     *
     * Batch normalization matches the evolving-graph insert contract:
     * self-loops are dropped, (src, dst) pairs already in @p base are
     * dropped (existing weights win), and intra-batch repeats collapse to
     * their first occurrence (hash-set dedupe, O(|batch|)).
     */
    static GraphDelta append(const DirectedGraph &base,
                             const std::vector<Edge> &batch);

  private:
    VertexId num_vertices_;
    std::vector<Edge> edges_;
    bool remove_self_loops_ = true;
    bool deduplicate_ = true;
};

} // namespace digraph::graph
