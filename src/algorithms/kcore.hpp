/**
 * @file
 * Iterative k-core peeling [14], adapted to directed propagation.
 *
 * A vertex is *alive* while its alive in-degree is at least k. State =
 * current alive in-degree; when a source dies, each of its out-edges
 * reports the death exactly once (the E_val cache is the reported flag)
 * and decrements its target. Counts only decrease, so the peeling is
 * monotone and order-independent.
 *
 * The per-edge math lives in KCorePolicy so the engine's specialized
 * wave kernels inline it without virtual dispatch. Note mergeMaster is
 * state-dependent (activation fires on crossing the threshold), so the
 * algorithm stays in the bitwise ordered-replay merge family.
 */

#pragma once

#include "algorithms/algorithm.hpp"

namespace digraph::algorithms {

/** Non-virtual k-core kernel policy (see PolicyAlgorithm). */
struct KCorePolicy
{
    Value k;

    static constexpr bool kUsesWeight = false;
    static constexpr bool kUsesOutDegree = false;

    bool
    processEdge(Value src, Value &edge_state, EdgeId, Value,
                std::uint32_t, Value &dst) const
    {
        if (src >= k || edge_state != 0.0)
            return false;
        edge_state = 1.0; // death reported exactly once
        const Value before = dst;
        dst -= 1.0;
        return before >= k && dst < k; // activation on crossing
    }

    bool
    mergeMaster(Value &master, Value pushed) const
    {
        const Value before = master;
        master += pushed;
        return pushed != 0.0 && before >= k && master < k;
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

/** Directed k-core peeling (alive in-degree threshold). */
class KCore : public PolicyAlgorithm<KCorePolicy>
{
  public:
    /** @param k Core threshold. */
    explicit KCore(unsigned k = 3)
        : PolicyAlgorithm(KCorePolicy{static_cast<Value>(k)})
    {}

    std::string name() const override { return "kcore"; }
    std::string kernelTag() const override { return "kcore"; }

    Value
    initVertex(const graph::DirectedGraph &g, VertexId v) const override
    {
        return static_cast<Value>(g.inDegree(v));
    }

    double resultTolerance() const override { return 1e-9; }

    bool supportsIncremental() const override
    {
        // Insertions raise in-degrees, which could revive dead vertices;
        // the monotone peeling cannot move states upward.
        return false;
    }

    /** True when a final state value means the vertex is in the k-core. */
    bool alive(Value state) const { return state >= policy_.k; }

    /** The threshold k. */
    Value threshold() const { return policy_.k; }
};

} // namespace digraph::algorithms
