/**
 * @file
 * Connected-component labeling by min-label propagation.
 *
 * On a symmetrized graph (see graph::withBidirectionalRatio(g, 1.0)) this
 * computes weakly connected components; on a plain directed graph it
 * computes the "min reachable ancestor label" fixed point. Monotone, so
 * any processing order converges to the same result.
 *
 * The per-edge math lives in WccPolicy so the engine's specialized wave
 * kernels inline it without virtual dispatch.
 */

#pragma once

#include "algorithms/algorithm.hpp"

namespace digraph::algorithms {

/** Non-virtual min-label kernel policy (see PolicyAlgorithm). */
struct WccPolicy
{
    static constexpr bool kUsesWeight = false;
    static constexpr bool kUsesOutDegree = false;

    bool
    processEdge(Value src, Value &, EdgeId, Value, std::uint32_t,
                Value &dst) const
    {
        if (src < dst) {
            dst = src;
            return true;
        }
        return false;
    }

    bool
    mergeMaster(Value &master, Value pushed) const
    {
        if (pushed < master) {
            master = pushed;
            return true;
        }
        return false;
    }

    Value pushValue(Value current, Value) const { return current; }

    bool hasPush(Value current, Value at_load) const
    {
        return current < at_load;
    }

    Value pull(Value master, Value mirror) const
    {
        return master < mirror ? master : mirror;
    }
};

/** Min-label propagation (WCC on symmetrized inputs). */
class Wcc : public PolicyAlgorithm<WccPolicy>
{
  public:
    Wcc() : PolicyAlgorithm(WccPolicy{}) {}

    std::string name() const override { return "wcc"; }
    std::string kernelTag() const override { return "wcc"; }

    Value
    initVertex(const graph::DirectedGraph &, VertexId v) const override
    {
        return static_cast<Value>(v);
    }

    double resultTolerance() const override { return 1e-9; }
};

} // namespace digraph::algorithms
