/**
 * @file
 * Delta-accumulative PageRank [29].
 *
 * Fixed point: x(v) = (1-d) + d * sum_{u->v} x(u) / outdeg(u).
 * Each edge caches the last source rank it propagated (E_val); processing
 * pushes only the difference, so contributions are counted exactly once
 * regardless of processing order — the standard asynchronous-PageRank
 * contraction argument guarantees convergence to the synchronous fixed
 * point.
 *
 * The per-edge math lives in PageRankPolicy so the engine's specialized
 * wave kernels inline it without virtual dispatch; the PageRank class is
 * the virtual adapter every other engine family uses.
 */

#pragma once

#include "algorithms/algorithm.hpp"

namespace digraph::algorithms {

/** Non-virtual PageRank kernel policy (see PolicyAlgorithm). */
struct PageRankPolicy
{
    double damping;
    double eps;

    static constexpr bool kUsesWeight = false;
    static constexpr bool kUsesOutDegree = true;

    bool
    processEdge(Value src, Value &edge_state, EdgeId, Value,
                std::uint32_t src_out_degree, Value &dst) const
    {
        const Value delta = src - edge_state;
        if (delta == 0.0)
            return false;
        edge_state = src;
        const Value push =
            damping * delta /
            static_cast<Value>(src_out_degree ? src_out_degree : 1);
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

/** Asynchronous delta PageRank. */
class PageRank : public PolicyAlgorithm<PageRankPolicy>
{
  public:
    /** @param damping d in [0,1). @param eps activation threshold. */
    explicit PageRank(double damping = 0.85, double eps = 1e-6)
        : PolicyAlgorithm(PageRankPolicy{damping, eps})
    {}

    std::string name() const override { return "pagerank"; }
    std::string kernelTag() const override { return "pagerank"; }

    Value
    initVertex(const graph::DirectedGraph &, VertexId) const override
    {
        return 1.0 - policy_.damping;
    }

    bool supportsIncremental() const override
    {
        // Per-edge contributions are normalized by degrees, which shift
        // under insertions; a warm start would mis-account old pushes.
        return false;
    }

    double epsilon() const override { return policy_.eps; }
    double resultTolerance() const override { return 256.0 * policy_.eps; }

    /** Damping factor. */
    double damping() const { return policy_.damping; }
};

} // namespace digraph::algorithms
