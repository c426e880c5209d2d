/**
 * @file
 * Replica-synchronization layer of the execution substrate (DESIGN.md
 * §12): the immutable vertex-replication indexes (slot ownership, the
 * mirror entries with their vertices and slot slices, and the mirror
 * CSR from each vertex to its partitions, consumer flags and entries)
 * plus the batched master<->mirror synchronization operations that run
 * against a job's ValuePlane.
 *
 * A ReplicaSync instance is built once per preprocessing result and is
 * strictly read-only afterwards, so any number of concurrent jobs may
 * share one instance; all mutable state lives in the ValuePlane passed
 * into each operation.
 *
 * A mirror entry is one (vertex, partition holding an occurrence of it)
 * pair. Entries are numbered partition by partition, so a partition's
 * entries, and their slot slices, are contiguous; each entry knows its
 * vertex and each slot its entry. Mirror staleness is
 * pulled: a dispatch compares its own entries' absorbed versions with
 * the master versions (absorbStaleMirrors), and the barrier only bumps
 * versions and wakes consumer partitions (wakeConsumers), from the
 * changed masters' entries or from the inactive partitions' entries,
 * whichever is fewer. Changed masters travel as the dispatching
 * partition's mirror entries, so neither the local refresh nor the
 * barrier searches.
 *
 * Every operation works on K-value stripes and lane masks: a changed
 * master carries the mask of its changed lanes, and absorption
 * activates only the lanes whose version is newer than the entry's. A
 * 1-lane run's only lane is bit 0; the templated operations take the
 * wave body's LanesCT, so at LanesCT = 1 they compile to plain scalar
 * loops.
 */

#pragma once

#include <cstdint>
#include <ranges>
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

    /** Mirror entries: one per (vertex, partition holding an occurrence
     *  of it) pair. Ids are partition-major (partitionEntries());
     *  ValuePlane keeps an absorbed master version per entry. */
    std::size_t numMirrorEntries() const { return entry_vertex_.size(); }

    /** Vertex of mirror entry @p k. */
    VertexId entryVertex(MirrorEntryId k) const { return entry_vertex_[k]; }

    /** Partition @p q's mirror entries, a contiguous id range: first
     *  the consumer entries (q holds a source occurrence of the vertex,
     *  so it consumes the master's changes), then the entries of
     *  vertices q holds only at path tails, each run in vertex order. */
    std::ranges::iota_view<MirrorEntryId, MirrorEntryId>
    partitionEntries(PartitionId q) const
    {
        return {static_cast<MirrorEntryId>(part_entry_offsets_[q]),
                static_cast<MirrorEntryId>(part_entry_offsets_[q + 1])};
    }

    /** The consumer prefix of partitionEntries(@p q). */
    std::ranges::iota_view<MirrorEntryId, MirrorEntryId>
    partitionConsumerEntries(PartitionId q) const
    {
        return {static_cast<MirrorEntryId>(part_entry_offsets_[q]),
                static_cast<MirrorEntryId>(part_consumer_ends_[q])};
    }

    // --- batched sync operations (mutate only @p plane) ---

    /** Activate lanes @p lanes of every source occurrence of @p v and
     *  mark the owning partitions active (initial activation /
     *  warm-start seeds). */
    void activateVertex(ValuePlane &plane, VertexId v,
                        std::uint64_t lanes) const;

    /**
     * Dispatch-start pull of partition @p p's stale mirrors (the
     * paper's refresh of mirrors from their masters when a partition is
     * loaded, §3.2.2): each of p's mirror entries whose absorbed version
     * (ValuePlane::entry_seen) differs from its vertex's master version
     * absorbs it. The entry takes the lanes changed since its version
     * (ValuePlane::lanesSince; 1-lane runs: lane 0), activates exactly
     * those lanes on every source slot of its slice — one lane's
     * progress never schedules edge work for the other K-1 lanes — and
     * appends its vertex to @p stale_vertices, and on K > 1 runs the
     * lanes to @p stale_lanes (parallel), so the transport can
     * delta-encode the refresh pull. Tail-only entries are absorbed
     * too: they activate nothing but still pay their refresh pull.
     * Every slot of a stale entry is stale: the entry's partition
     * refreshed all of them, at its last dispatch start or barrier,
     * before the version moved. The vertices come in p's entry order;
     * the pulls only sum bytes per home device, so the order does not
     * matter. Defined in replica_sync_impl.hpp.
     */
    template <unsigned LanesCT>
    void absorbStaleMirrors(ValuePlane &plane, PartitionId p,
                            std::vector<VertexId> &stale_vertices,
                            std::vector<std::uint64_t> &stale_lanes) const;

    /**
     * Mirror->master push phase over partition @p p's dirty-slot
     * worklist, which arrives in ascending slot order (see the
     * definition): each lane of a dirty mirror with a pending push
     * merges straight into its master lane in V_val (one mark covers
     * all K lanes of the written mirror), and masters where any lane's
     * merge reported an activation-worthy change are collected into
     * @p changed once each as p's mirror entry of the vertex, in
     * first-change order, with their changed-lane masks ORed in
     * @p changed_lanes on K > 1 runs (ValuePlane::dedupeChanged()).
     * With @p journal (fault tolerance on, 1-lane runs only) every
     * pushed master is marked checkpoint-dirty before its merge.
     * Returns the proxy/atomic split, one push per lane. @p AlgoT is
     * the wave kernel's non-virtual policy, so the merge math inlines
     * into the batch loop. Defined in replica_sync_impl.hpp.
     */
    template <class AlgoT, unsigned LanesCT>
    PushStats
    pushDirtyMirrorsT(ValuePlane &plane, PartitionId p, const AlgoT &algo,
                      const graph::DirectedGraph &g, bool use_proxy,
                      std::uint32_t proxy_indegree_threshold, bool journal,
                      std::vector<MirrorEntryId> &changed,
                      std::vector<std::uint64_t> &changed_lanes) const;

    /**
     * Refresh phase: re-pull every lane of the mirrors in the slot
     * slices of the @p changed entries (partition p's entries, as
     * pushDirtyMirrorsT() left them) from their masters (the
     * proxy-vertex effect — accumulated results are reusable within the
     * next local round), and re-activate the changed lanes
     * (@p changed_lanes) of source slots. Defined in
     * replica_sync_impl.hpp.
     */
    template <class AlgoT, unsigned LanesCT>
    void refreshLocalMirrorsT(
        ValuePlane &plane, const AlgoT &algo,
        const std::vector<MirrorEntryId> &changed,
        const std::vector<std::uint64_t> &changed_lanes) const;

    /**
     * Barrier wake of partition @p p's dispatch: mark active every
     * inactive partition q != p that consumes one of the @p changed
     * masters (p's mirror entries of them, as deduplicated by the
     * ValuePlane::dedupeChanged() call that returned @p changed_stamp),
     * and append each woken partition once to @p activated_parts for
     * the notification transfers. One of two walks does it, whichever
     * visits fewer entries, both counts read from offsets:
     *  - push: every mirror entry of each changed master
     *    (pushWakeVisits());
     *  - pull: the consumer entries of each inactive q != p, up to the
     *    first whose vertex that call kept (ValuePlane::keptBy;
     *    pullWakeVisits()).
     * Ties go to push. The woken set is the same either way; only the
     * order of @p activated_parts differs, and the notifications sum
     * bytes per device and take a maximum per destination.
     */
    void wakeConsumers(ValuePlane &plane, PartitionId p,
                       const std::vector<MirrorEntryId> &changed,
                       std::uint32_t changed_stamp,
                       std::vector<PartitionId> &activated_parts) const;

    /** Entries the push side of wakeConsumers() visits. */
    std::uint64_t
    pushWakeVisits(const std::vector<MirrorEntryId> &changed) const;

    /** Entries the pull side of wakeConsumers() visits at most, with
     *  @p p dispatching; stops counting once above @p cap. */
    std::uint64_t pullWakeVisits(const ValuePlane &plane, PartitionId p,
                                 std::uint64_t cap) const;

    /** Host bytes of the shared indexes. */
    std::size_t memoryBytes() const;

  private:
    /** Path owning each E_idx slot. */
    std::vector<PathId> path_of_slot_;
    /** Whether each slot is a source position (not a path tail). */
    std::vector<std::uint8_t> is_src_slot_;
    /** Partition of each path. */
    std::vector<PartitionId> partition_of_path_;
    /** CSR: vertex -> partitions holding ANY occurrence (deduplicated,
     *  ascending), with whether each holds a source occurrence and the
     *  mirror entry id of each (vertex, partition) pair. */
    std::vector<std::uint64_t> mirror_offsets_;
    std::vector<PartitionId> mirror_parts_;
    std::vector<std::uint8_t> mirror_consumer_;
    std::vector<MirrorEntryId> vertex_entries_;
    /** Per mirror entry id: its vertex. */
    std::vector<VertexId> entry_vertex_;
    /** Per mirror entry id k (size numMirrorEntries() + 1): its slots
     *  are occur_slots_[entry_slot_offsets_[k],
     *  entry_slot_offsets_[k+1]), ascending; the entries tile
     *  occur_slots_ in id order. */
    std::vector<std::uint64_t> entry_slot_offsets_;
    std::vector<std::uint64_t> occur_slots_;
    /** Per E_idx slot: the mirror entry of (its vertex, its partition). */
    std::vector<MirrorEntryId> slot_entry_;
    /** Per partition q: its entry ids are [part_entry_offsets_[q],
     *  part_entry_offsets_[q+1]), consumer entries below
     *  part_consumer_ends_[q]. */
    std::vector<std::uint64_t> part_entry_offsets_;
    std::vector<std::uint64_t> part_consumer_ends_;
};

} // namespace digraph::engine
