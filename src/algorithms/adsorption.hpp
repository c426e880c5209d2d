/**
 * @file
 * Adsorption label propagation [3] (single-label score variant).
 *
 * Fixed point: x(v) = p_inj * inj(v) + p_cont * sum_{u->v} w'(u,v) x(u),
 * where w'(u,v) normalizes each vertex's incoming weights to sum to one —
 * the contraction (p_cont < 1) guarantees convergence under asynchronous
 * delta propagation, using the same per-edge cache trick as PageRank.
 *
 * The per-edge math lives in AdsorptionPolicy so the engine's specialized
 * wave kernels inline it without virtual dispatch. The policy carries a
 * raw pointer into the class-owned normalized-weight table; the class
 * fixes it up after building the table.
 */

#pragma once

#include <vector>

#include "algorithms/algorithm.hpp"

namespace digraph::algorithms {

/** Non-virtual adsorption kernel policy (see PolicyAlgorithm). */
struct AdsorptionPolicy
{
    double p_cont;
    double eps;
    /** Per-edge normalized weight: w(e) / in-weight-sum(target(e)). */
    const Value *norm = nullptr;

    static constexpr bool kUsesWeight = false;
    static constexpr bool kUsesOutDegree = false;

    bool
    processEdge(Value src, Value &edge_state, EdgeId edge_id, Value,
                std::uint32_t, Value &dst) const
    {
        const Value delta = src - edge_state;
        if (delta == 0.0)
            return false;
        edge_state = src;
        const Value push = p_cont * norm[edge_id] * delta;
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

/** Asynchronous adsorption score propagation. */
class Adsorption : public PolicyAlgorithm<AdsorptionPolicy>
{
  public:
    /**
     * @param g          Graph (normalized in-weights are precomputed).
     * @param seed_every Every seed_every-th vertex is an injection seed.
     * @param p_inj      Injection probability.
     * @param p_cont     Continuation probability (< 1).
     * @param eps        Activation threshold.
     */
    explicit Adsorption(const graph::DirectedGraph &g,
                        VertexId seed_every = 97, double p_inj = 0.25,
                        double p_cont = 0.75, double eps = 1e-6);

    std::string name() const override { return "adsorption"; }
    std::string kernelTag() const override { return "adsorption"; }

    Value initVertex(const graph::DirectedGraph &g,
                     VertexId v) const override;

    bool supportsIncremental() const override
    {
        // Per-edge contributions are normalized by degrees, which shift
        // under insertions; a warm start would mis-account old pushes.
        return false;
    }

    double epsilon() const override { return policy_.eps; }
    double resultTolerance() const override { return 256.0 * policy_.eps; }

  private:
    bool isSeed(VertexId v) const { return v % seed_every_ == 0; }

    VertexId seed_every_;
    double p_inj_;
    std::vector<Value> norm_weight_;
};

} // namespace digraph::algorithms
