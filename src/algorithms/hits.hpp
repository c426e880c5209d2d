/**
 * @file
 * HITS hubs & authorities [Kleinberg 1999].
 *
 * Unlike the engine algorithms, HITS alternates two coupled propagation
 * directions (authority mass flows along edges, hub mass against them),
 * so it is provided as a standalone power iteration over the CSR graph —
 * an analysis utility complementing the engine-driven centralities
 * (PageRank, Katz).
 */

#pragma once

#include <utility>
#include <vector>

#include "algorithms/algorithm.hpp"
#include "common/types.hpp"
#include "graph/digraph.hpp"

namespace digraph::algorithms {

/** Result of a HITS computation. */
struct HitsScores
{
    /** Authority score per vertex (L2-normalized). */
    std::vector<Value> authority;
    /** Hub score per vertex (L2-normalized). */
    std::vector<Value> hub;
    /** Power iterations executed. */
    unsigned iterations = 0;
};

/**
 * Power-iterate HITS until the maximum per-vertex change drops below
 * @p eps or @p max_iterations is reached.
 */
HitsScores computeHits(const graph::DirectedGraph &g,
                       unsigned max_iterations = 100, double eps = 1e-9);

/**
 * Engine-facing adapter over the standalone power iteration, so "hits"
 * is constructible through the algorithm factory (job specs, the
 * service, the CLI). The coupled two-direction propagation does not fit
 * the edge-distributive interface, so the scores are computed at
 * construction and served as an instantly-converged state: every vertex
 * starts at its authority score and inactive, and no edge ever pushes.
 */
/** Kernel policy of the Hits adapter: the state is already converged
 *  at init, so every hook is a no-op (no activations, no pushes). */
struct HitsPolicy
{
    static constexpr bool kUsesWeight = false;
    static constexpr bool kUsesOutDegree = false;

    bool
    processEdge(Value, Value &, EdgeId, Value, std::uint32_t,
                Value &) const
    {
        return false;
    }

    bool mergeMaster(Value &, Value) const { return false; }

    Value pushValue(Value current, Value) const { return current; }

    bool hasPush(Value, Value) const { return false; }

    Value pull(Value master, Value) const { return master; }
};

class Hits : public PolicyAlgorithm<HitsPolicy>
{
  public:
    explicit Hits(const graph::DirectedGraph &g)
        : PolicyAlgorithm(HitsPolicy{}), scores_(computeHits(g))
    {}

    std::string name() const override { return "hits"; }

    std::string kernelTag() const override { return "hits"; }

    Value
    initVertex(const graph::DirectedGraph &, VertexId v) const override
    {
        return scores_.authority[v];
    }

    bool
    initActive(const graph::DirectedGraph &, VertexId) const override
    {
        return false;
    }

    /** Precomputed per-graph state is not warm-start portable. */
    bool supportsIncremental() const override { return false; }

    /** The full precomputed scores (hub side included). */
    const HitsScores &scores() const { return scores_; }

  private:
    HitsScores scores_;
};

} // namespace digraph::algorithms
