/**
 * @file
 * Dispatching layer of the execution substrate (DESIGN.md §12): the
 * immutable partition-dependency structures (precursor lists, the
 * interference matrix, partition SCC groups and their condensed DAG)
 * plus the scheduling policies that consume them — upstream-quiescence
 * readiness, topological/in-advance partition selection, the wave
 * dispatch order, Pri(p) path priority ordering, and the lane-binning
 * work-stealing cost model.
 *
 * Like ReplicaSync, a Dispatcher is built once per preprocessing result
 * and is read-only afterwards (shareable across concurrent jobs); all
 * per-run inputs (activation flags, wave stamps) are passed in.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "engine/options.hpp"
#include "engine/replica_sync.hpp"
#include "graph/digraph.hpp"
#include "partition/preprocess.hpp"
#include "storage/path_storage.hpp"

namespace digraph::engine {

class Dispatcher
{
  public:
    /** Build every dependency structure (called once; @p pre must
     *  outlive the dispatcher). */
    void build(const partition::Preprocessed &pre,
               const ReplicaSync &sync,
               const storage::PathLayout &layout, VertexId num_vertices);

    /**
     * Groups blocked at wave start: a group is blocked while any group
     * transitively upstream of it has an active partition — the paper's
     * "dispatch when the precursors are inactive", evaluated against
     * full upstream convergence rather than the momentary worklist
     * flags.
     */
    std::vector<std::uint8_t>
    blockedGroups(const std::vector<std::uint8_t> &partition_active) const;

    /**
     * Among active, unblocked partitions not yet dispatched in this
     * wave pick (lowest layer, id) — topological dispatch order. With
     * @p blocked == nullptr the call realizes the paper's "in advance"
     * execution: the active partition with the fewest active direct
     * precursors runs even though upstream work remains.
     */
    PartitionId
    choosePartition(const std::vector<std::uint64_t> &stamp,
                    std::uint64_t wave,
                    const std::vector<std::uint8_t> *blocked,
                    const std::vector<std::uint8_t> &partition_active,
                    bool dag_dispatch) const;

    /**
     * Reorder @p batch into the wave's dispatch order: the
     * concatenation of greedy vertex-disjoint chunks taken in batch
     * (priority) order — the first remaining partition always opens a
     * chunk, a later one joins only if it shares no vertex with any
     * member. The dispatches then run one at a time in this order.
     * It differs from batch order only when a chunk holds two or more
     * partitions; the order is paper-facing (DESIGN.md §6).
     */
    void waveOrder(std::vector<PartitionId> &batch) const;

    /**
     * Path scheduling (Section 3.2.3): stable-sort @p active_paths by
     * descending Pri(p) = alpha * avgDeg(p) * activeCount(p) -
     * layer(p). @p active_counts is parallel to the incoming order.
     */
    void orderByPriority(std::vector<PathId> &active_paths,
                         const std::vector<std::uint32_t> &active_counts)
        const;

    /**
     * Simulated cost of one local round: paths are packed into lane
     * bins by work units (longest first); work stealing spreads bins
     * over several SMXs of the device. A path's work is its processed
     * edges at full cost plus a cheap coalesced skip-scan of its
     * inactive positions. Returns per work-stealing group: kernel
     * cycles (group 0 chains on the home SMX; surplus groups steal).
     *
     * Lane (K-wide) rounds additionally pass @p extra_lane_edges —
     * per path, the count of active value lanes beyond the first over
     * its processed edge stripes. Those lanes ride the leader lane's
     * instruction stream as predicated vector lanes: the edge decode
     * (E_idx pair, weight, out-degree) is paid once per stripe, so an
     * extra lane costs only its coalesced S_val/E_val stripe words —
     * @p per_lane_cycles, a fraction of @p per_edge_cycles. Scalar
     * rounds pass nullptr and are costed exactly as before.
     */
    std::vector<double>
    roundCost(const EngineOptions &options, double per_edge_cycles,
              const std::vector<PathId> &active_paths,
              const std::vector<std::uint64_t> &processed_edges,
              std::uint64_t proxy_pushes, std::uint64_t atomic_pushes,
              const std::vector<std::uint64_t> *extra_lane_edges =
                  nullptr,
              double per_lane_cycles = 0.0) const;

    /** Direct precursor partitions of @p q (deduped, from the DAG). */
    const std::vector<PartitionId> &precursors(PartitionId q) const
    {
        return precursor_parts_[q];
    }

    /** Dependency SCC group of partition @p q. */
    SccId group(PartitionId q) const { return partition_group_[q]; }

    /** Byte footprint of partition @p q. */
    std::size_t partitionBytes(PartitionId q) const
    {
        return partition_bytes_[q];
    }

    /** Pri(p) scaling factor alpha = 1 / (maxAvgDeg * maxN). */
    double priAlpha() const { return pri_alpha_; }

    /** Host bytes of the shared dependency structures. */
    std::size_t memoryBytes() const;

  private:
    /** The preprocessing result the structures were built from (layer /
     *  avg-degree / partition tables consumed by the policies). */
    const partition::Preprocessed *pre_ = nullptr;
    PartitionId nparts_ = 0;
    /** Per-partition precursor partitions (deduped, from the DAG). */
    std::vector<std::vector<PartitionId>> precursor_parts_;
    /** Symmetric partition-interference matrix (nparts x nparts, row
     *  major): set when two partitions mirror a common vertex. Only
     *  mutually non-interfering partitions share a waveOrder() chunk. */
    std::vector<std::uint8_t> interference_;
    /** Partitions mirroring a very-high-fanout (hub) vertex; treated as
     *  interfering with everything (keeps the matrix build O(fanout
     *  cap * occurrences) instead of quadratic in the hub fanout). */
    std::vector<std::uint8_t> interferes_all_;
    /** SCC group of each partition in the partition dependency graph:
     *  partitions of one group form a dependency cycle and iterate
     *  together; a group is *ready* when no group transitively upstream
     *  of it holds an active partition (checked at wave start). */
    std::vector<SccId> partition_group_;
    /** Condensed DAG over partition groups. */
    graph::DirectedGraph group_dag_;
    /** Topological order of the group DAG. */
    std::vector<VertexId> group_topo_;
    /** Per-partition byte footprint. */
    std::vector<std::size_t> partition_bytes_;
    /** Pri(p) scaling factor alpha = 1 / (maxAvgDeg * maxN). */
    double pri_alpha_ = 1.0;
};

} // namespace digraph::engine
