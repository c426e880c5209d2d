/**
 * @file
 * The vertex-program interface shared by every engine (DiGraph, the
 * Gunrock-like BSP baseline, the Groute-like async baseline, and the
 * sequential reference).
 *
 * Algorithms are expressed as *edge-distributive accumulative updates*, a
 * GAS [8] formulation adapted to edge-disjoint path processing: each
 * directed edge carries a private cache slot (the paper's E_val) holding
 * the last source contribution it propagated, so an edge can be processed
 * any number of times, in any order, on any replica, and the fixed point
 * is unchanged. Monotone algorithms (SSSP, BFS, WCC) ignore the cache;
 * accumulative ones (PageRank, Adsorption, k-core) push only the *delta*
 * since their last propagation.
 *
 * Master/mirror synchronization (Section 3.2.2) is algorithm-mediated:
 * a mirror pushes pushValue(current, at_load) and the master folds it in
 * with mergeMaster().
 */

#pragma once

#include <memory>
#include <string>

#include "common/types.hpp"
#include "graph/digraph.hpp"

namespace digraph::algorithms {

/**
 * Abstract iterative directed-graph algorithm.
 *
 * Implementations must be stateless with respect to execution (all mutable
 * state lives in the engine's vertex/edge arrays) so one instance can be
 * shared by concurrent engines.
 */
class Algorithm
{
  public:
    virtual ~Algorithm() = default;

    /** Short name ("pagerank", "sssp", ...). */
    virtual std::string name() const = 0;

    /** Initial state of vertex @p v. */
    virtual Value initVertex(const graph::DirectedGraph &g,
                             VertexId v) const = 0;

    /** Initial per-edge cache value (E_val) of edge @p e. */
    virtual Value
    initEdge(const graph::DirectedGraph &g, EdgeId e) const
    {
        (void)g;
        (void)e;
        return 0.0;
    }

    /** Whether vertex @p v starts active. */
    virtual bool
    initActive(const graph::DirectedGraph &g, VertexId v) const
    {
        (void)g;
        (void)v;
        return true;
    }

    /**
     * Process the directed edge @p edge_id from a vertex with state
     * @p src to a vertex with state @p dst.
     *
     * @param src            Current source state (the replica's view).
     * @param edge_state     Private per-edge cache (E_val slot).
     * @param edge_id        Original graph edge id.
     * @param weight         Edge weight.
     * @param src_out_degree Out-degree of the source vertex.
     * @param dst            Destination state, updated in place.
     * @return true when @p dst changed enough that the destination vertex
     *         must be (re)activated.
     */
    virtual bool processEdge(Value src, Value &edge_state, EdgeId edge_id,
                             Value weight, std::uint32_t src_out_degree,
                             Value &dst) const = 0;

    /**
     * Fold a mirror push into the master state.
     * @return true when the master changed enough to activate consumers.
     */
    virtual bool mergeMaster(Value &master, Value pushed) const = 0;

    /** The value a mirror pushes, given its current state and the
     *  snapshot taken when its partition was loaded. */
    virtual Value pushValue(Value current, Value at_load) const = 0;

    /** Whether the mirror has anything worth pushing. */
    virtual bool hasPush(Value current, Value at_load) const = 0;

    /** Refresh a mirror from the master at partition load. */
    virtual Value
    pull(Value master, Value mirror) const
    {
        (void)mirror;
        return master;
    }

    /**
     * Edge-cache value consistent with an already-converged source state
     * @p src_state (used by warm starts on evolving graphs: existing
     * edges must not re-push mass the destination already absorbed).
     * Monotone algorithms ignore the cache and keep the default.
     */
    virtual Value
    warmEdgeState(const graph::DirectedGraph &g, EdgeId e,
                  Value src_state) const
    {
        (void)src_state;
        return initEdge(g, e);
    }

    /**
     * Whether a converged state remains a valid warm start after edge
     * insertions (false for algorithms whose states may need to move
     * against their propagation direction, e.g. k-core counts grow when
     * in-edges appear).
     */
    virtual bool supportsIncremental() const { return true; }

    /** Activation / convergence threshold. */
    virtual double epsilon() const { return 1e-9; }

    /** Tolerance for comparing two engines' final states in tests. */
    virtual double resultTolerance() const { return 1e-6; }

    /**
     * Registry tag of the compile-time kernel policy whose processing
     * semantics this algorithm realizes ("" = none; the engine then
     * falls back to virtual dispatch in the wave hot loop). The tag is
     * an execution-semantics contract: a subclass that overrides any
     * processing method (processEdge / mergeMaster / pushValue /
     * hasPush / pull) with DIFFERENT semantics must override
     * kernelTag() to return "" or the specialized kernel will bypass
     * the override entirely. Subclasses that only add bookkeeping may
     * keep the inherited tag — the hot loop then provably never enters
     * their virtual methods (see tests/test_wave_kernels.cpp).
     */
    virtual std::string kernelTag() const { return ""; }
};

/**
 * CRTP/static-policy adapter: implements the virtual processing methods
 * by forwarding to a copyable, non-virtual @p Policy struct. The policy
 * is the single source of truth for the algorithm's per-edge math — the
 * specialized wave kernels (src/engine/wave_kernel.cpp) copy the policy
 * and call it directly, inlined, with zero virtual dispatch, while every
 * other engine family keeps using the virtual interface below. A policy
 * must provide processEdge / mergeMaster / pushValue / hasPush / pull
 * with the same signatures (minus virtual) plus the compile-time flags
 *   static constexpr bool kUsesWeight;     // reads the weight argument
 *   static constexpr bool kUsesOutDegree;  // reads src_out_degree
 * so dead argument loads compile out of the specialized inner loop.
 */
template <class Policy>
class PolicyAlgorithm : public Algorithm
{
  public:
    using KernelPolicy = Policy;

    explicit PolicyAlgorithm(Policy policy) : policy_(std::move(policy)) {}

    /** The policy copied into specialized kernels. */
    const Policy &kernelPolicy() const { return policy_; }

    bool
    processEdge(Value src, Value &edge_state, EdgeId edge_id, Value weight,
                std::uint32_t src_out_degree, Value &dst) const override
    {
        return policy_.processEdge(src, edge_state, edge_id, weight,
                                   src_out_degree, dst);
    }

    bool
    mergeMaster(Value &master, Value pushed) const override
    {
        return policy_.mergeMaster(master, pushed);
    }

    Value
    pushValue(Value current, Value at_load) const override
    {
        return policy_.pushValue(current, at_load);
    }

    bool
    hasPush(Value current, Value at_load) const override
    {
        return policy_.hasPush(current, at_load);
    }

    Value
    pull(Value master, Value mirror) const override
    {
        return policy_.pull(master, mirror);
    }

  protected:
    Policy policy_;
};

/** Shared handle to an algorithm. */
using AlgorithmPtr = std::shared_ptr<const Algorithm>;

} // namespace digraph::algorithms
