/**
 * @file
 * Replica-synchronization layer of the execution substrate (DESIGN.md
 * §12): the immutable vertex-replication indexes (slot ownership,
 * occurrence / consumer / mirror CSRs) plus the batched master<->mirror
 * synchronization operations that run against a job's ValuePlane.
 *
 * A ReplicaSync instance is built once per preprocessing result and is
 * strictly read-only afterwards, so any number of concurrent jobs may
 * share one instance; all mutable state lives in the ValuePlane passed
 * into each operation.
 */

#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "algorithms/algorithm.hpp"
#include "common/types.hpp"
#include "graph/digraph.hpp"
#include "partition/preprocess.hpp"
#include "storage/path_storage.hpp"

namespace digraph::engine {

class ValuePlane;

/** Proxy-vs-atomic push split of one mirror-push phase (feeds the
 *  simulated sync-cost model). */
struct PushStats
{
    std::uint64_t proxy_pushes = 0;
    std::uint64_t atomic_pushes = 0;
};

/** Sort @p changed ascending and OR-merge duplicate vertices' masks in
 *  the parallel @p changed_lanes — the lane twin of the sort + unique
 *  a scalar changed-vertex list gets. */
inline void
sortMergeChangedLanes(std::vector<VertexId> &changed,
                      std::vector<std::uint64_t> &changed_lanes)
{
    std::vector<std::pair<VertexId, std::uint64_t>> pairs;
    pairs.reserve(changed.size());
    for (std::size_t i = 0; i < changed.size(); ++i)
        pairs.emplace_back(changed[i], changed_lanes[i]);
    std::sort(pairs.begin(), pairs.end(),
              [](const auto &a, const auto &b) {
                  return a.first < b.first;
              });
    changed.clear();
    changed_lanes.clear();
    for (const auto &[v, mask] : pairs) {
        if (!changed.empty() && changed.back() == v) {
            changed_lanes.back() |= mask;
        } else {
            changed.push_back(v);
            changed_lanes.push_back(mask);
        }
    }
}

/**
 * Shared, immutable replica indexes + the master/mirror sync operations.
 */
class ReplicaSync
{
  public:
    /** Build every index from @p pre / @p layout (called once). */
    void build(const partition::Preprocessed &pre,
               const storage::PathLayout &layout, VertexId num_vertices);

    /** Path owning E_idx slot @p slot. */
    PathId pathOfSlot(std::uint64_t slot) const
    {
        return path_of_slot_[slot];
    }

    /** True when the slot is a source position (not a path tail). */
    bool isSrcSlot(std::uint64_t slot) const { return is_src_slot_[slot]; }

    /** Partition of path @p p. */
    PartitionId partitionOfPath(PathId p) const
    {
        return partition_of_path_[p];
    }

    /** Partition owning E_idx slot @p slot. */
    PartitionId partitionOfSlot(std::uint64_t slot) const
    {
        return partition_of_path_[path_of_slot_[slot]];
    }

    /** Occurrence slots of vertex @p v (ascending). */
    std::span<const std::uint64_t>
    occurrences(VertexId v) const
    {
        return {occur_slots_.data() + occur_offsets_[v],
                occur_slots_.data() + occur_offsets_[v + 1]};
    }

    /** Partitions holding ANY occurrence of @p v (deduplicated). */
    std::span<const PartitionId>
    mirrorPartitions(VertexId v) const
    {
        return {mirror_parts_.data() + mirror_offsets_[v],
                mirror_parts_.data() + mirror_offsets_[v + 1]};
    }

    /** Partitions holding a SOURCE occurrence of @p v (deduplicated). */
    std::span<const PartitionId>
    consumerPartitions(VertexId v) const
    {
        return {consumer_parts_.data() + consumer_offsets_[v],
                consumer_parts_.data() + consumer_offsets_[v + 1]};
    }

    /** Total E_idx slots covered by the indexes. */
    std::size_t numSlots() const { return path_of_slot_.size(); }

    /** Entries of the mirror CSR: one per (vertex, partition holding an
     *  occurrence of it) pair. ValuePlane keeps a stale-queue pending
     *  flag (lane runs: mask) per entry. */
    std::size_t numMirrorEntries() const { return mirror_parts_.size(); }

    /** Mirror-CSR entry of the pair (@p v, @p p), or numMirrorEntries()
     *  when @p p holds no occurrence of @p v. */
    std::uint64_t
    mirrorEntry(VertexId v, PartitionId p) const
    {
        const auto begin = mirror_parts_.begin();
        const auto lo =
            begin + static_cast<std::ptrdiff_t>(mirror_offsets_[v]);
        const auto hi =
            begin + static_cast<std::ptrdiff_t>(mirror_offsets_[v + 1]);
        const auto it = std::lower_bound(lo, hi, p);
        return it != hi && *it == p
                   ? static_cast<std::uint64_t>(it - begin)
                   : mirror_parts_.size();
    }

    // --- batched sync operations (mutate only @p plane) ---

    /** Activate every source occurrence of @p v and mark the owning
     *  partitions active (initial activation / warm-start seeds /
     *  degrade-recovery reseeding). */
    void activateVertex(ValuePlane &plane, VertexId v) const;

    /**
     * Consume partition @p p's stale-vertex queue: clear each queued
     * vertex's pending flag, and for each local slot that has not
     * absorbed the vertex's current master version, update the slot's
     * seen version and activate it when it is a source slot. Vertices
     * with such a slot are appended to @p stale_vertices in queue
     * order; they drive the ring master-refresh pulls at replay, which
     * only sum bytes per home device, so the order does not matter.
     * fanOutChanged() enqueues each vertex at most once, so the queue
     * needs no sort or dedupe here. Replaces a dispatch-start full
     * version scan of the slot range.
     */
    void convertStaleQueue(ValuePlane &plane, PartitionId p,
                           std::uint64_t slot_lo, std::uint64_t slot_hi,
                           std::vector<VertexId> &stale_vertices) const;

    /**
     * Mirror->master push phase over partition @p p's dirty-slot
     * worklist (ascending slot order): each mirror with a pending push
     * merges straight into its master in V_val, and masters whose merge
     * reported an activation-worthy change are collected into
     * @p changed (sorted/deduplicated). With @p journal (fault
     * tolerance on) every pushed master is marked checkpoint-dirty
     * before its merge. Returns the proxy/atomic split. @p AlgoT is
     * either a non-virtual kernel policy (specialized wave kernels —
     * the merge math inlines into the batch loop) or
     * algorithms::Algorithm (generic fallback). Defined in
     * replica_sync_impl.hpp.
     */
    template <class AlgoT>
    PushStats
    pushDirtyMirrorsT(ValuePlane &plane, PartitionId p, const AlgoT &algo,
                      const graph::DirectedGraph &g, bool use_proxy,
                      std::uint32_t proxy_indegree_threshold, bool journal,
                      std::vector<VertexId> &changed) const;

    /**
     * Refresh phase: re-pull and re-activate partition-local mirrors
     * ([slot_lo, slot_hi)) of each vertex in @p changed from its master
     * (the proxy-vertex effect — accumulated results are reusable
     * within the next local round). Defined in replica_sync_impl.hpp.
     */
    template <class AlgoT>
    void refreshLocalMirrorsT(ValuePlane &plane, const AlgoT &algo,
                              std::uint64_t slot_lo, std::uint64_t slot_hi,
                              const std::vector<VertexId> &changed) const;

    /**
     * Barrier activation fan-out of the @p changed masters merged by
     * partition @p p's dispatch: feed the stale queues of the other
     * mirroring partitions and wake the other consumer partitions
     * (partition @p p refreshed its own mirrors during the dispatch).
     * A vertex is appended to a partition's queue only when its pending
     * flag for that partition (ValuePlane::stale_pending) is clear, and
     * the flag is then set, so each queue holds a vertex at most once
     * and never outgrows the partition's mirror entries. Partitions
     * woken from inactive are appended to @p activated_parts (unsorted;
     * caller dedups) for the notification transfers.
     */
    void fanOutChanged(ValuePlane &plane, PartitionId p,
                       const std::vector<VertexId> &changed,
                       std::vector<PartitionId> &activated_parts) const;

    // --- K-wide lane variants (batched multi-source mode; each is the
    // stripe-wise analogue of its scalar twin, and at K == 1 performs
    // exactly the scalar operation on the lane arrays — the bit-identity
    // lever tests/test_multisource.cpp pins) ---

    /** Activate lane @p lane of every source occurrence of @p v and
     *  mark the owning partitions active. */
    void activateVertexLane(ValuePlane &plane, VertexId v,
                            unsigned lane) const;

    /** Lane variant of convertStaleQueue(): a stale slot re-activates
     *  exactly the lanes the fan-outs flagged as changed since the
     *  partition last ran (the entry's ValuePlane::stale_pending_lanes
     *  mask, taken and cleared here) — one lane's progress never
     *  schedules edge work for the other K-1 lanes. @p stale_lanes
     *  collects each stale vertex's changed-lane mask (parallel to
     *  @p stale_vertices) so the transport can delta-encode the refresh
     *  pull instead of shipping all K lane values. */
    void convertStaleQueueLanes(ValuePlane &plane, PartitionId p,
                                std::uint64_t slot_lo,
                                std::uint64_t slot_hi,
                                std::vector<VertexId> &stale_vertices,
                                std::vector<std::uint64_t> &stale_lanes)
        const;

    /** Lane variant of pushDirtyMirrorsT(): every lane of a dirty slot
     *  with a pending push merges into its lane master in place;
     *  @p changed collects masters where ANY lane changed
     *  activation-worthily, with the per-vertex mask of changed lanes
     *  in @p changed_lanes (parallel). Lane runs exclude fault
     *  tolerance, so nothing is journaled. Defined in
     *  replica_sync_impl.hpp. */
    template <class AlgoT>
    PushStats
    pushDirtyMirrorsLanesT(ValuePlane &plane, PartitionId p,
                           const AlgoT &algo,
                           const graph::DirectedGraph &g, bool use_proxy,
                           std::uint32_t proxy_indegree_threshold,
                           std::vector<VertexId> &changed,
                           std::vector<std::uint64_t> &changed_lanes)
        const;

    /** Lane variant of refreshLocalMirrorsT(): pulls every lane of the
     *  in-range mirrors from the lane master stripe and re-activates
     *  the changed lanes (@p changed_lanes parallel to @p changed) of
     *  source slots. Defined in replica_sync_impl.hpp. */
    template <class AlgoT>
    void refreshLocalMirrorsLanesT(
        ValuePlane &plane, const AlgoT &algo, std::uint64_t slot_lo,
        std::uint64_t slot_hi, const std::vector<VertexId> &changed,
        const std::vector<std::uint64_t> &changed_lanes) const;

    /** Lane variant of fanOutChanged(): the per-vertex changed-lane
     *  mask (@p changed_lanes parallel to @p changed) is ORed into the
     *  entry's ValuePlane::stale_pending_lanes; the vertex is enqueued
     *  only when that mask was zero. */
    void fanOutChangedLanes(ValuePlane &plane, PartitionId p,
                            const std::vector<VertexId> &changed,
                            const std::vector<std::uint64_t> &changed_lanes,
                            std::vector<PartitionId> &activated_parts) const;

    /** Host bytes of the shared indexes. */
    std::size_t memoryBytes() const;

  private:
    /** Path owning each E_idx slot. */
    std::vector<PathId> path_of_slot_;
    /** Whether each slot is a source position (not a path tail). */
    std::vector<std::uint8_t> is_src_slot_;
    /** Partition of each path. */
    std::vector<PartitionId> partition_of_path_;
    /** CSR: vertex -> its occurrence slots across all paths. */
    std::vector<std::uint64_t> occur_offsets_;
    std::vector<std::uint64_t> occur_slots_;
    /** CSR: vertex -> partitions holding one of its source occurrences
     *  (deduplicated; used for activation fan-out). */
    std::vector<std::uint64_t> consumer_offsets_;
    std::vector<PartitionId> consumer_parts_;
    /** CSR: vertex -> partitions holding ANY occurrence (deduplicated,
     *  ascending; used for the stale-vertex queue fan-out at the wave
     *  barrier). */
    std::vector<std::uint64_t> mirror_offsets_;
    std::vector<PartitionId> mirror_parts_;
};

} // namespace digraph::engine
