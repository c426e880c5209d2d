/**
 * @file
 * Batched multi-source algorithms (DESIGN.md §17): K independent
 * single-source queries executed as K value *lanes* over one traversal.
 *
 * A LaneAlgorithm runs the same edge-distributive update rule in every
 * lane — only the initial state differs per lane (the seed / reset
 * vector). That restriction is what lets the engine process all K lanes
 * of an edge in one pass: the per-edge math is lane-oblivious, so the
 * one wave body runs the scalar kernel policies unchanged on each lane
 * of a K-value stripe (a scalar algorithm is the K = 1 run).
 *
 * Lane semantics contract: lane l of a K-wide run must converge to the
 * same fixed point as a scalar run of the equivalent single-source
 * algorithm (the oracle tests in tests/test_multisource.cpp pin this,
 * bitwise for monotone policies and to resultTolerance() for the
 * accumulative family).
 */

#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "algorithms/algorithm.hpp"
#include "algorithms/pagerank.hpp"
#include "algorithms/sssp.hpp"
#include "common/logging.hpp"
#include "common/types.hpp"

namespace digraph::algorithms {

/** Engine-wide cap on lanes per job (activation masks are uint64_t). */
inline constexpr unsigned kMaxValueLanes = 64;

/**
 * An algorithm whose runs carry lanes() independent value lanes.
 *
 * The per-edge processing interface is inherited unchanged from
 * Algorithm — it is applied to every lane — while initialization gains
 * a lane dimension. The scalar initVertex/initActive entry points are
 * final and route to lane 0, so a LaneAlgorithm handed to a
 * lane-oblivious engine (the baselines) computes lane 0.
 */
class LaneAlgorithm : public Algorithm
{
  public:
    /** Number of value lanes K (1 <= K <= kMaxValueLanes). */
    virtual unsigned lanes() const = 0;

    /** Initial state of vertex @p v in lane @p lane. */
    virtual Value initVertexLane(const graph::DirectedGraph &g, VertexId v,
                                 unsigned lane) const = 0;

    /** Whether vertex @p v starts active in lane @p lane. */
    virtual bool initActiveLane(const graph::DirectedGraph &g, VertexId v,
                                unsigned lane) const = 0;

    /** Initial per-edge cache value of edge @p e in lane @p lane. */
    virtual Value
    initEdgeLane(const graph::DirectedGraph &g, EdgeId e,
                 unsigned lane) const
    {
        (void)g;
        (void)e;
        (void)lane;
        return 0.0;
    }

    Value
    initVertex(const graph::DirectedGraph &g, VertexId v) const final
    {
        return initVertexLane(g, v, 0);
    }

    bool
    initActive(const graph::DirectedGraph &g, VertexId v) const final
    {
        return initActiveLane(g, v, 0);
    }

    Value
    initEdge(const graph::DirectedGraph &g, EdgeId e) const final
    {
        return initEdgeLane(g, e, 0);
    }
};

/**
 * Policy adapter for lane algorithms — the LaneAlgorithm counterpart of
 * PolicyAlgorithm (a parallel adapter rather than a mixin, to keep the
 * hierarchy diamond-free). The engine copies the policy into its
 * 1-lane wave body at lanes() == 1, or its run-time-K body otherwise,
 * and runs it per lane with zero virtual dispatch; lane resolution
 * (wave_kernel.cpp) matches on kernelTag() + a dynamic_cast to this
 * adapter, mirroring the scalar tryResolve contract.
 */
template <class Policy>
class LanePolicyAlgorithm : public LaneAlgorithm
{
  public:
    using KernelPolicy = Policy;

    explicit LanePolicyAlgorithm(Policy policy)
        : policy_(std::move(policy))
    {}

    /** The policy copied into the specialized wave body. */
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

/**
 * Batched personalized PageRank: lane l solves
 *   x_l(v) = (1-d)*[v == seed_l] + d * sum_{u->v} x_l(u) / outdeg(u)
 * (the teleport vector concentrated on seed_l), using the same
 * delta-accumulative PageRankPolicy as the global algorithm.
 */
class Ppr : public LanePolicyAlgorithm<PageRankPolicy>
{
  public:
    /** @param seeds One seed vertex per lane (1..kMaxValueLanes). */
    explicit Ppr(std::vector<VertexId> seeds, double damping = 0.85,
                 double eps = 1e-6)
        : LanePolicyAlgorithm(PageRankPolicy{damping, eps}),
          seeds_(std::move(seeds))
    {
        if (seeds_.empty() || seeds_.size() > kMaxValueLanes) {
            fatal("Ppr: need 1..", kMaxValueLanes, " seeds, got ",
                  seeds_.size());
        }
    }

    std::string name() const override { return "ppr"; }
    std::string kernelTag() const override { return "pagerank"; }

    unsigned
    lanes() const override
    {
        return static_cast<unsigned>(seeds_.size());
    }

    Value
    initVertexLane(const graph::DirectedGraph &, VertexId v,
                   unsigned lane) const override
    {
        return v == seeds_[lane] ? 1.0 - policy_.damping : 0.0;
    }

    bool
    initActiveLane(const graph::DirectedGraph &, VertexId v,
                   unsigned lane) const override
    {
        return v == seeds_[lane];
    }

    bool supportsIncremental() const override { return false; }

    double epsilon() const override { return policy_.eps; }
    double resultTolerance() const override { return 256.0 * policy_.eps; }

    /** Per-lane seed vertices. */
    const std::vector<VertexId> &seeds() const { return seeds_; }

  private:
    std::vector<VertexId> seeds_;
};

/**
 * Multi-source BFS: lane l runs unit-weight min-plus propagation from
 * sources_[l] (BfsPolicy, monotone — lanes are bitwise equal to scalar
 * Bfs runs).
 */
class MsBfs : public LanePolicyAlgorithm<BfsPolicy>
{
  public:
    /** @param sources One source vertex per lane (1..kMaxValueLanes). */
    explicit MsBfs(std::vector<VertexId> sources)
        : LanePolicyAlgorithm(BfsPolicy{}), sources_(std::move(sources))
    {
        if (sources_.empty() || sources_.size() > kMaxValueLanes) {
            fatal("MsBfs: need 1..", kMaxValueLanes, " sources, got ",
                  sources_.size());
        }
    }

    std::string name() const override { return "msbfs"; }
    std::string kernelTag() const override { return "bfs"; }

    unsigned
    lanes() const override
    {
        return static_cast<unsigned>(sources_.size());
    }

    Value
    initVertexLane(const graph::DirectedGraph &, VertexId v,
                   unsigned lane) const override
    {
        return v == sources_[lane]
                   ? 0.0
                   : std::numeric_limits<Value>::infinity();
    }

    bool
    initActiveLane(const graph::DirectedGraph &, VertexId v,
                   unsigned lane) const override
    {
        return v == sources_[lane];
    }

    double resultTolerance() const override { return 1e-9; }

    /** Per-lane source vertices. */
    const std::vector<VertexId> &sources() const { return sources_; }

  private:
    std::vector<VertexId> sources_;
};

/**
 * Scalar single-seed personalized PageRank — the per-lane oracle the
 * multi-source tests compare against. Init-only subclass of PageRank:
 * the processing semantics (and therefore the kernelTag) are inherited
 * unchanged, so it runs the specialized scalar pagerank kernel.
 */
class PprSingle : public PageRank
{
  public:
    explicit PprSingle(VertexId seed, double damping = 0.85,
                       double eps = 1e-6)
        : PageRank(damping, eps), seed_(seed)
    {}

    std::string name() const override { return "ppr1"; }

    Value
    initVertex(const graph::DirectedGraph &, VertexId v) const override
    {
        return v == seed_ ? 1.0 - damping() : 0.0;
    }

    bool
    initActive(const graph::DirectedGraph &, VertexId v) const override
    {
        return v == seed_;
    }

    /** Seed vertex (lane's teleport target). */
    VertexId seed() const { return seed_; }

  private:
    VertexId seed_;
};

} // namespace digraph::algorithms
