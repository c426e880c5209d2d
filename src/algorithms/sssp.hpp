/**
 * @file
 * Single-source shortest paths [28] and BFS, as monotone min-plus
 * propagation. Monotonicity makes every processing order safe; the edge
 * cache (E_val) is unused.
 *
 * The per-edge math lives in SsspPolicy / BfsPolicy so the engine's
 * specialized wave kernels inline it without virtual dispatch.
 */

#pragma once

#include <limits>

#include "algorithms/algorithm.hpp"

namespace digraph::algorithms {

/** Non-virtual SSSP kernel policy (see PolicyAlgorithm). */
struct SsspPolicy
{
    static constexpr bool kUsesWeight = true;
    static constexpr bool kUsesOutDegree = false;

    bool
    processEdge(Value src, Value &, EdgeId, Value weight, std::uint32_t,
                Value &dst) const
    {
        const Value cand = src + weight;
        if (cand < dst) {
            dst = cand;
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

/** BFS policy: SSSP with unit edge weights (weight load compiled out). */
struct BfsPolicy : SsspPolicy
{
    static constexpr bool kUsesWeight = false;

    bool
    processEdge(Value src, Value &, EdgeId, Value, std::uint32_t,
                Value &dst) const
    {
        const Value cand = src + 1.0;
        if (cand < dst) {
            dst = cand;
            return true;
        }
        return false;
    }
};

/** Asynchronous SSSP (non-negative weights). */
class Sssp : public PolicyAlgorithm<SsspPolicy>
{
  public:
    /** @param source Source vertex. */
    explicit Sssp(VertexId source = 0)
        : PolicyAlgorithm(SsspPolicy{}), source_(source)
    {}

    std::string name() const override { return "sssp"; }
    std::string kernelTag() const override { return "sssp"; }

    Value
    initVertex(const graph::DirectedGraph &, VertexId v) const override
    {
        return v == source_ ? 0.0
                            : std::numeric_limits<Value>::infinity();
    }

    bool
    initActive(const graph::DirectedGraph &, VertexId v) const override
    {
        return v == source_;
    }

    double resultTolerance() const override { return 1e-9; }

    /** Source vertex. */
    VertexId source() const { return source_; }

  private:
    VertexId source_;
};

/** BFS = SSSP with unit edge weights. */
class Bfs : public PolicyAlgorithm<BfsPolicy>
{
  public:
    explicit Bfs(VertexId source = 0)
        : PolicyAlgorithm(BfsPolicy{}), source_(source)
    {}

    std::string name() const override { return "bfs"; }
    std::string kernelTag() const override { return "bfs"; }

    Value
    initVertex(const graph::DirectedGraph &, VertexId v) const override
    {
        return v == source_ ? 0.0
                            : std::numeric_limits<Value>::infinity();
    }

    bool
    initActive(const graph::DirectedGraph &, VertexId v) const override
    {
        return v == source_;
    }

    double resultTolerance() const override { return 1e-9; }

    /** Source vertex. */
    VertexId source() const { return source_; }

  private:
    VertexId source_;
};

} // namespace digraph::algorithms
