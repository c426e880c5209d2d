/**
 * @file
 * Replica-synchronization layer of the execution substrate (DESIGN.md
 * §12): the immutable vertex-replication indexes (slot ownership, the
 * occurrence CSR and the mirror CSR with its per-entry slot slices and
 * consumer flags) plus the batched master<->mirror synchronization
 * operations that run against a job's ValuePlane.
 *
 * A ReplicaSync instance is built once per preprocessing result and is
 * strictly read-only afterwards, so any number of concurrent jobs may
 * share one instance; all mutable state lives in the ValuePlane passed
 * into each operation.
 *
 * A mirror entry is one (vertex, partition holding an occurrence of it)
 * pair. The stale queues hold entry ids, and each entry knows its slice
 * of the vertex's occurrence slots (contiguous, because a partition owns
 * a contiguous slot range), so converting a queued entry reads its slots
 * directly, the local refresh finds a partition's mirrors of a vertex
 * by searching only the vertex's partitions, and the barrier fan-out
 * walks one CSR.
 *
 * Every operation works on K-value stripes and lane masks: a changed
 * master carries the mask of its changed lanes, and activation and
 * stale-queue flags are per lane. A 1-lane run's only lane is bit 0;
 * the templated operations take the wave body's LanesCT, so at
 * LanesCT = 1 they compile to plain scalar loops.
 */

#pragma once

#include <cstdint>
#include <span>
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

/** Id of one mirror-CSR entry; 32-bit like VertexId (ReplicaSync::build
 *  rejects a substrate with more entries). */
using MirrorEntryId = std::uint32_t;

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

    /** Partitions holding ANY occurrence of @p v (deduplicated). */
    std::span<const PartitionId>
    mirrorPartitions(VertexId v) const
    {
        return {mirror_parts_.data() + mirror_offsets_[v],
                mirror_parts_.data() + mirror_offsets_[v + 1]};
    }

    /** Total E_idx slots covered by the indexes. */
    std::size_t numSlots() const { return path_of_slot_.size(); }

    /** Entries of the mirror CSR: one per (vertex, partition holding an
     *  occurrence of it) pair. ValuePlane keeps a stale-queue pending
     *  flag (K > 1: lane mask) per entry. */
    std::size_t numMirrorEntries() const { return mirror_parts_.size(); }

    /** Partition of mirror entry @p k. */
    PartitionId entryPartition(MirrorEntryId k) const
    {
        return mirror_parts_[k];
    }

    // --- batched sync operations (mutate only @p plane) ---

    /** Activate lanes @p lanes of every source occurrence of @p v and
     *  mark the owning partitions active (initial activation /
     *  warm-start seeds). */
    void activateVertex(ValuePlane &plane, VertexId v,
                        std::uint64_t lanes) const;

    /**
     * Consume partition @p p's stale queue of mirror entries: take each
     * queued entry's pending lanes, and for each slot of the entry's
     * slot slice that has not absorbed the vertex's current master
     * version, update the slot's seen version and activate exactly
     * those lanes when it is a source slot — one lane's progress never
     * schedules edge work for the other K-1 lanes. Vertices with such a
     * slot are appended to @p stale_vertices in queue order, and on
     * K > 1 runs their pending masks to @p stale_lanes (parallel), so
     * the transport can delta-encode the refresh pull. The pulls only
     * sum bytes per home device, so the order does not matter.
     * fanOutChanged() enqueues each entry at most once, so the queue
     * needs no sort or dedupe here, and the entry's slice needs no
     * search. Replaces a dispatch-start full version scan of the slot
     * range. Defined in replica_sync_impl.hpp.
     */
    template <unsigned LanesCT>
    void convertStaleQueue(ValuePlane &plane, PartitionId p,
                           std::vector<VertexId> &stale_vertices,
                           std::vector<std::uint64_t> &stale_lanes) const;

    /**
     * Mirror->master push phase over partition @p p's dirty-slot
     * worklist, which arrives in ascending slot order (see the
     * definition): each lane of a dirty mirror with a pending push
     * merges straight into its master lane in V_val (one mark covers
     * all K lanes of the written mirror), and masters where any lane's
     * merge reported an activation-worthy change are collected into
     * @p changed once each, in first-change order, with their
     * changed-lane masks ORed in @p changed_lanes on K > 1 runs
     * (ValuePlane::dedupeChanged()). With @p journal (fault tolerance
     * on, 1-lane runs only) every pushed master is marked
     * checkpoint-dirty before its merge. Returns the proxy/atomic
     * split, one push per lane. @p AlgoT is the wave kernel's
     * non-virtual policy, so the merge math inlines into the batch
     * loop. Defined in replica_sync_impl.hpp.
     */
    template <class AlgoT, unsigned LanesCT>
    PushStats
    pushDirtyMirrorsT(ValuePlane &plane, PartitionId p, const AlgoT &algo,
                      const graph::DirectedGraph &g, bool use_proxy,
                      std::uint32_t proxy_indegree_threshold, bool journal,
                      std::vector<VertexId> &changed,
                      std::vector<std::uint64_t> &changed_lanes) const;

    /**
     * Refresh phase: re-pull every lane of partition @p p's mirrors of
     * each vertex in @p changed (pushDirtyMirrorsT() found each at one
     * of @p p's slots) from its master (the proxy-vertex effect —
     * accumulated results are reusable within the next local round),
     * and re-activate the changed lanes (@p changed_lanes, as
     * pushDirtyMirrorsT() left it) of source slots. The mirrors are the
     * slot slice of the vertex's mirror entry for @p p, found by a
     * search of the vertex's mirroring partitions. Defined in
     * replica_sync_impl.hpp.
     */
    template <class AlgoT, unsigned LanesCT>
    void refreshLocalMirrorsT(
        ValuePlane &plane, const AlgoT &algo, PartitionId p,
        const std::vector<VertexId> &changed,
        const std::vector<std::uint64_t> &changed_lanes) const;

    /**
     * Barrier activation fan-out of the @p changed masters merged by
     * partition @p p's dispatch (changed-lane masks in
     * @p changed_lanes on K > 1 runs), one walk over each vertex's
     * mirror entries: feed the stale queues of the other mirroring
     * partitions and wake the other consumer partitions (partition
     * @p p refreshed its own mirrors during the dispatch). The changed
     * lanes are added to the entry's pending lanes
     * (ValuePlane::addPending), and the entry is appended to its
     * partition's queue only when none were pending, so each queue
     * holds an entry at most once and never outgrows the partition's
     * mirror entries. Partitions woken from inactive are appended to
     * @p activated_parts (unsorted; caller dedups) for the notification
     * transfers.
     */
    void fanOutChanged(ValuePlane &plane, PartitionId p,
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
    /** Every vertex's occurrence slots across all paths, ascending per
     *  vertex, vertices in id order (the occurrence CSR; its offsets are
     *  the entry slices' bounds below). */
    std::vector<std::uint64_t> occur_slots_;
    /** CSR: vertex -> partitions holding ANY occurrence (deduplicated,
     *  ascending): the mirror entries. */
    std::vector<std::uint64_t> mirror_offsets_;
    std::vector<PartitionId> mirror_parts_;
    /** Per mirror entry k (size numMirrorEntries() + 1): its slots are
     *  occur_slots_[entry_slot_offsets_[k], entry_slot_offsets_[k+1]),
     *  ascending. A vertex's entries tile its occurrence list in order,
     *  so one offsets array covers every slice, and vertex v's whole
     *  list starts at entry_slot_offsets_[mirror_offsets_[v]]. */
    std::vector<std::uint64_t> entry_slot_offsets_;
    /** Per mirror entry: whether the partition holds a source occurrence
     *  of the vertex (it consumes the master's changes). */
    std::vector<std::uint8_t> entry_consumer_;
};

} // namespace digraph::engine
