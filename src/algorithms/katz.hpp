/**
 * @file
 * Katz centrality: x(v) = beta + alpha * sum_{u->v} x(u).
 *
 * Same asynchronous delta-accumulation scheme as PageRank; converges for
 * alpha < 1 / max_in_degree (checked at construction against the graph),
 * since the update is then a contraction.
 *
 * The per-edge math lives in KatzPolicy so the engine's specialized wave
 * kernels inline it without virtual dispatch.
 */

#pragma once

#include "algorithms/algorithm.hpp"
#include "common/logging.hpp"

namespace digraph::algorithms {

/** Non-virtual Katz kernel policy (see PolicyAlgorithm). */
struct KatzPolicy
{
    double alpha;
    double eps;

    static constexpr bool kUsesWeight = false;
    static constexpr bool kUsesOutDegree = false;

    bool
    processEdge(Value src, Value &edge_state, EdgeId, Value,
                std::uint32_t, Value &dst) const
    {
        const Value delta = src - edge_state;
        if (delta == 0.0)
            return false;
        edge_state = src;
        const Value push = alpha * delta;
        dst += push;
        return push > eps || push < -eps;
    }

    bool
    mergeMaster(Value &master, Value pushed) const
    {
        master += pushed;
        return pushed > eps || pushed < -eps;
    }

    Value pushValue(Value current, Value at_load) const
    {
        return current - at_load;
    }

    bool hasPush(Value current, Value at_load) const
    {
        return current != at_load;
    }

    Value pull(Value master, Value) const { return master; }
};

/** Asynchronous delta Katz centrality. */
class Katz : public PolicyAlgorithm<KatzPolicy>
{
  public:
    /**
     * @param g     Graph (used to validate the contraction condition).
     * @param alpha Attenuation factor; must satisfy
     *              alpha * max_in_degree < 1.
     * @param beta  Base score.
     * @param eps   Activation threshold.
     */
    explicit Katz(const graph::DirectedGraph &g, double alpha = 0.0,
                  double beta = 1.0, double eps = 1e-6)
        : PolicyAlgorithm(KatzPolicy{alpha, eps}), beta_(beta)
    {
        std::size_t max_in = 1;
        for (VertexId v = 0; v < g.numVertices(); ++v)
            max_in = std::max(max_in, g.inDegree(v));
        if (policy_.alpha == 0.0)
            policy_.alpha = 0.5 / static_cast<double>(max_in);
        if (policy_.alpha * static_cast<double>(max_in) >= 1.0) {
            fatal("Katz: alpha ", policy_.alpha,
                  " violates the contraction "
                  "condition for max in-degree ", max_in);
        }
    }

    std::string name() const override { return "katz"; }
    std::string kernelTag() const override { return "katz"; }

    Value
    initVertex(const graph::DirectedGraph &, VertexId) const override
    {
        return beta_;
    }

    Value
    warmEdgeState(const graph::DirectedGraph &, EdgeId,
                  Value src_state) const override
    {
        return src_state; // contribution already delivered
    }

    double epsilon() const override { return policy_.eps; }
    double resultTolerance() const override { return 256.0 * policy_.eps; }

    /** Effective attenuation factor. */
    double alpha() const { return policy_.alpha; }

  private:
    double beta_;
};

} // namespace digraph::algorithms
