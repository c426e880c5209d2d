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
 *
 * Every operation works on K-value stripes and lane masks: a changed
 * master carries the mask of its changed lanes, and activation and
 * stale-queue flags are per lane. A 1-lane run's only lane is bit 0;
 * the templated operations take the wave body's LanesCT, so at
 * LanesCT = 1 they compile to plain scalar loops.
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

/**
 * Sort @p changed ascending and merge duplicate vertices. On K > 1 runs
 * @p changed_lanes holds each entry's changed-lane mask (parallel) and
 * duplicates OR their masks; 1-lane runs keep no masks (empty).
 */
template <unsigned LanesCT>
void
mergeChanged(std::vector<VertexId> &changed,
             std::vector<std::uint64_t> &changed_lanes)
{
    if constexpr (LanesCT != 1) {
        if (!changed_lanes.empty()) {
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
            return;
        }
    }
    std::sort(changed.begin(), changed.end());
    changed.erase(std::unique(changed.begin(), changed.end()),
                  changed.end());
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

    /** Total E_idx slots covered by the indexes. */
    std::size_t numSlots() const { return path_of_slot_.size(); }

    /** Entries of the mirror CSR: one per (vertex, partition holding an
     *  occurrence of it) pair. ValuePlane keeps a stale-queue pending
     *  flag (K > 1: lane mask) per entry. */
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

    /** Activate lanes @p lanes of every source occurrence of @p v and
     *  mark the owning partitions active (initial activation /
     *  warm-start seeds). */
    void activateVertex(ValuePlane &plane, VertexId v,
                        std::uint64_t lanes) const;

    /**
     * Consume partition @p p's stale-vertex queue: take each queued
     * vertex's pending lanes, and for each local slot that has not
     * absorbed the vertex's current master version, update the slot's
     * seen version and activate exactly those lanes when it is a source
     * slot — one lane's progress never schedules edge work for the
     * other K-1 lanes. Vertices with such a slot are appended to
     * @p stale_vertices in queue order, and on K > 1 runs their pending
     * masks to @p stale_lanes (parallel), so the transport can
     * delta-encode the refresh pull. The pulls only sum bytes per home
     * device, so the order does not matter. fanOutChanged() enqueues
     * each vertex at most once, so the queue needs no sort or dedupe
     * here. Replaces a dispatch-start full version scan of the slot
     * range. Defined in replica_sync_impl.hpp.
     */
    template <unsigned LanesCT>
    void convertStaleQueue(ValuePlane &plane, PartitionId p,
                           std::uint64_t slot_lo, std::uint64_t slot_hi,
                           std::vector<VertexId> &stale_vertices,
                           std::vector<std::uint64_t> &stale_lanes) const;

    /**
     * Mirror->master push phase over partition @p p's dirty-slot
     * worklist (ascending slot order): each lane of a dirty mirror with
     * a pending push merges straight into its master lane in V_val (one
     * mark covers all K lanes of the written mirror), and masters where
     * any lane's merge reported an activation-worthy change are
     * collected into @p changed, with their changed-lane masks in
     * @p changed_lanes on K > 1 runs (merged by mergeChanged()). With
     * @p journal (fault tolerance on, 1-lane runs only) every pushed
     * master is marked checkpoint-dirty before its merge. Returns the
     * proxy/atomic split, one push per lane. @p AlgoT is the wave
     * kernel's non-virtual policy, so the merge math inlines into the
     * batch loop. Defined in replica_sync_impl.hpp.
     */
    template <class AlgoT, unsigned LanesCT>
    PushStats
    pushDirtyMirrorsT(ValuePlane &plane, PartitionId p, const AlgoT &algo,
                      const graph::DirectedGraph &g, bool use_proxy,
                      std::uint32_t proxy_indegree_threshold, bool journal,
                      std::vector<VertexId> &changed,
                      std::vector<std::uint64_t> &changed_lanes) const;

    /**
     * Refresh phase: re-pull every lane of the partition-local mirrors
     * ([slot_lo, slot_hi)) of each vertex in @p changed from its master
     * (the proxy-vertex effect — accumulated results are reusable
     * within the next local round), and re-activate the changed lanes
     * (@p changed_lanes, as pushDirtyMirrorsT() left it) of source
     * slots. Defined in replica_sync_impl.hpp.
     */
    template <class AlgoT, unsigned LanesCT>
    void refreshLocalMirrorsT(
        ValuePlane &plane, const AlgoT &algo, std::uint64_t slot_lo,
        std::uint64_t slot_hi, const std::vector<VertexId> &changed,
        const std::vector<std::uint64_t> &changed_lanes) const;

    /**
     * Barrier activation fan-out of the @p changed masters merged by
     * partition @p p's dispatch (changed-lane masks in
     * @p changed_lanes on K > 1 runs): feed the stale queues of the
     * other mirroring partitions and wake the other consumer partitions
     * (partition @p p refreshed its own mirrors during the dispatch).
     * The changed lanes are added to the entry's pending lanes
     * (ValuePlane::addPending), and the vertex is appended to the
     * partition's queue only when none were pending, so each queue
     * holds a vertex at most once and never outgrows the partition's
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
