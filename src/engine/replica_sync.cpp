#include "engine/replica_sync.hpp"

#include <algorithm>

#include "engine/replica_sync_impl.hpp"
#include "engine/value_plane.hpp"

namespace digraph::engine {

void
ReplicaSync::build(const partition::Preprocessed &pre,
                   const storage::PathLayout &layout,
                   VertexId num_vertices)
{
    const PathId np = pre.paths.numPaths();
    const PartitionId nparts = pre.numPartitions();

    // Path of each slot, partition of each path.
    path_of_slot_.resize(layout.numSlots());
    is_src_slot_.assign(layout.numSlots(), 0);
    for (PathId p = 0; p < np; ++p) {
        for (std::uint64_t s = layout.pathOffset(p);
             s < layout.pathOffset(p + 1); ++s) {
            path_of_slot_[s] = p;
            is_src_slot_[s] = s + 1 < layout.pathOffset(p + 1);
        }
    }
    partition_of_path_.resize(np);
    for (PartitionId q = 0; q < nparts; ++q) {
        for (std::uint32_t p = pre.partition_offsets[q];
             p < pre.partition_offsets[q + 1]; ++p) {
            partition_of_path_[p] = q;
        }
    }

    // Occurrence CSR: vertex -> slots.
    const auto e_idx = layout.eIdx();
    occur_offsets_.assign(num_vertices + 1, 0);
    for (const VertexId v : e_idx)
        ++occur_offsets_[v + 1];
    for (VertexId v = 0; v < num_vertices; ++v)
        occur_offsets_[v + 1] += occur_offsets_[v];
    occur_slots_.resize(e_idx.size());
    {
        std::vector<std::uint64_t> cursor(occur_offsets_.begin(),
                                          occur_offsets_.end() - 1);
        for (std::uint64_t s = 0; s < e_idx.size(); ++s)
            occur_slots_[cursor[e_idx[s]]++] = s;
    }

    // Consumer-partition CSR (vertex -> partitions with a source
    // occurrence) and mirror-partition CSR (vertex -> partitions with any
    // occurrence), both deduplicated. A vertex's occurrence slots are
    // ascending and partitions own contiguous path (hence slot) ranges,
    // so the partition sequence along the occurrence list is already
    // non-decreasing: one streaming pass with a last-seen compare
    // replaces a per-vertex sort/unique scratch loop.
    consumer_offsets_.assign(num_vertices + 1, 0);
    consumer_parts_.clear();
    mirror_offsets_.assign(num_vertices + 1, 0);
    mirror_parts_.clear();
    for (VertexId v = 0; v < num_vertices; ++v) {
        PartitionId last_consumer = kInvalidPartition;
        PartitionId last_mirror = kInvalidPartition;
        for (std::uint64_t k = occur_offsets_[v];
             k < occur_offsets_[v + 1]; ++k) {
            const std::uint64_t slot = occur_slots_[k];
            const PartitionId part =
                partition_of_path_[path_of_slot_[slot]];
            if (part != last_mirror) {
                mirror_parts_.push_back(part);
                last_mirror = part;
            }
            if (is_src_slot_[slot] && part != last_consumer) {
                consumer_parts_.push_back(part);
                last_consumer = part;
            }
        }
        consumer_offsets_[v + 1] = consumer_parts_.size();
        mirror_offsets_[v + 1] = mirror_parts_.size();
    }
}

void
ReplicaSync::activateVertex(ValuePlane &plane, VertexId v) const
{
    for (std::uint64_t k = occur_offsets_[v]; k < occur_offsets_[v + 1];
         ++k) {
        const std::uint64_t slot = occur_slots_[k];
        if (is_src_slot_[slot]) {
            plane.activateSlot(slot);
            plane.partition_active[partitionOfSlot(slot)] = 1;
        }
    }
}

void
ReplicaSync::convertStaleQueue(ValuePlane &plane, PartitionId p,
                               std::uint64_t slot_lo,
                               std::uint64_t slot_hi,
                               std::vector<VertexId> &stale_vertices) const
{
    auto &queue = plane.stale_queue[p];
    for (const VertexId v : queue) {
        plane.stale_pending[mirrorEntry(v, p)] = 0;
        bool any_stale = false;
        const auto occ_begin =
            occur_slots_.begin() +
            static_cast<std::ptrdiff_t>(occur_offsets_[v]);
        const auto occ_end =
            occur_slots_.begin() +
            static_cast<std::ptrdiff_t>(occur_offsets_[v + 1]);
        for (auto it = std::lower_bound(occ_begin, occ_end, slot_lo);
             it != occ_end && *it < slot_hi; ++it) {
            const std::uint64_t slot = *it;
            if (plane.slot_seen_version[slot] !=
                plane.master_version[v]) {
                any_stale = true;
                plane.slot_seen_version[slot] = plane.master_version[v];
                if (is_src_slot_[slot])
                    plane.activateSlot(slot);
            }
        }
        if (any_stale)
            stale_vertices.push_back(v);
    }
    queue.clear();
}

PushStats
ReplicaSync::pushDirtyMirrors(
    ValuePlane &plane, PartitionId p, const algorithms::Algorithm &algo,
    const graph::DirectedGraph &g, bool use_proxy,
    std::uint32_t proxy_indegree_threshold,
    std::unordered_map<VertexId, Value> &overlay,
    std::vector<std::pair<VertexId, Value>> &pushes,
    std::vector<VertexId> &changed) const
{
    // Virtual-dispatch wrapper over the shared template (single source
    // of truth for the batch merge — see replica_sync_impl.hpp).
    return pushDirtyMirrorsT<algorithms::Algorithm, true>(
        plane, p, algo, g, use_proxy, proxy_indegree_threshold, overlay,
        pushes, changed);
}

void
ReplicaSync::refreshLocalMirrors(
    ValuePlane &plane, const algorithms::Algorithm &algo,
    std::uint64_t slot_lo, std::uint64_t slot_hi,
    const std::unordered_map<VertexId, Value> &overlay,
    const std::vector<VertexId> &changed) const
{
    refreshLocalMirrorsT<algorithms::Algorithm>(plane, algo, slot_lo,
                                                slot_hi, overlay, changed);
}

void
ReplicaSync::fanOutChanged(
    ValuePlane &plane, PartitionId p,
    const std::vector<VertexId> &changed,
    const std::unordered_map<VertexId, Value> &overlay,
    std::vector<PartitionId> &activated_parts) const
{
    for (const VertexId v : changed) {
        const Value master = plane.storage.vVal(v);
        const auto ov = overlay.find(v);
        const bool self_current =
            ov != overlay.end() && ov->second == master;
        for (std::uint64_t k = mirror_offsets_[v];
             k < mirror_offsets_[v + 1]; ++k) {
            const PartitionId part = mirror_parts_[k];
            if ((part == p && self_current) || plane.stale_pending[k])
                continue;
            plane.stale_pending[k] = 1;
            plane.stale_queue[part].push_back(v);
        }
        for (std::uint64_t k = consumer_offsets_[v];
             k < consumer_offsets_[v + 1]; ++k) {
            const PartitionId part = consumer_parts_[k];
            if (part == p) {
                if (!self_current)
                    plane.partition_active[p] = 1;
                continue;
            }
            if (!plane.partition_active[part]) {
                // Gate only on the activation that wakes the partition
                // up; later batches are picked up whenever it runs.
                plane.partition_active[part] = 1;
                activated_parts.push_back(part);
            }
        }
    }
}

void
ReplicaSync::activateVertexLane(ValuePlane &plane, VertexId v,
                                unsigned lane) const
{
    for (std::uint64_t k = occur_offsets_[v]; k < occur_offsets_[v + 1];
         ++k) {
        const std::uint64_t slot = occur_slots_[k];
        if (is_src_slot_[slot]) {
            plane.activateSlotLane(slot, lane);
            plane.partition_active[partitionOfSlot(slot)] = 1;
        }
    }
}

void
ReplicaSync::convertStaleQueueLanes(
    ValuePlane &plane, PartitionId p, std::uint64_t slot_lo,
    std::uint64_t slot_hi, std::vector<VertexId> &stale_vertices,
    std::vector<std::uint64_t> &stale_lanes) const
{
    auto &queue = plane.stale_queue[p];
    for (const VertexId v : queue) {
        // The OR of every fan-out's changed lanes since this partition
        // last ran (the same master may change in different lanes
        // across waves before it runs).
        std::uint64_t &pending =
            plane.stale_pending_lanes[mirrorEntry(v, p)];
        const std::uint64_t lanes_mask = pending;
        pending = 0;
        bool any_stale = false;
        const auto occ_begin =
            occur_slots_.begin() +
            static_cast<std::ptrdiff_t>(occur_offsets_[v]);
        const auto occ_end =
            occur_slots_.begin() +
            static_cast<std::ptrdiff_t>(occur_offsets_[v + 1]);
        for (auto it = std::lower_bound(occ_begin, occ_end, slot_lo);
             it != occ_end && *it < slot_hi; ++it) {
            const std::uint64_t slot = *it;
            if (plane.slot_seen_version[slot] !=
                plane.master_version[v]) {
                any_stale = true;
                plane.slot_seen_version[slot] = plane.master_version[v];
                if (is_src_slot_[slot])
                    plane.activateSlotLanesMask(slot, lanes_mask);
            }
        }
        if (any_stale) {
            stale_vertices.push_back(v);
            stale_lanes.push_back(lanes_mask);
        }
    }
    queue.clear();
}

void
ReplicaSync::fanOutChangedLanes(
    ValuePlane &plane, PartitionId p,
    const std::vector<VertexId> &changed,
    const std::vector<std::uint64_t> &changed_lanes,
    const LaneOverlay &overlay,
    std::vector<PartitionId> &activated_parts) const
{
    const unsigned lanes = plane.lane_count;
    for (std::size_t i = 0; i < changed.size(); ++i) {
        const VertexId v = changed[i];
        const Value *master =
            &plane.lane_v[static_cast<std::size_t>(v) * lanes];
        const Value *ov = overlay.find(v, lanes);
        bool self_current = ov != nullptr;
        if (self_current) {
            for (unsigned l = 0; l < lanes; ++l) {
                if (ov[l] != master[l]) {
                    self_current = false;
                    break;
                }
            }
        }
        for (std::uint64_t k = mirror_offsets_[v];
             k < mirror_offsets_[v + 1]; ++k) {
            const PartitionId part = mirror_parts_[k];
            if (part == p && self_current)
                continue;
            std::uint64_t &pending = plane.stale_pending_lanes[k];
            if (pending == 0)
                plane.stale_queue[part].push_back(v);
            pending |= changed_lanes[i];
        }
        for (std::uint64_t k = consumer_offsets_[v];
             k < consumer_offsets_[v + 1]; ++k) {
            const PartitionId part = consumer_parts_[k];
            if (part == p) {
                if (!self_current)
                    plane.partition_active[p] = 1;
                continue;
            }
            if (!plane.partition_active[part]) {
                plane.partition_active[part] = 1;
                activated_parts.push_back(part);
            }
        }
    }
}

std::size_t
ReplicaSync::memoryBytes() const
{
    return path_of_slot_.size() * sizeof(PathId) +
           is_src_slot_.size() * sizeof(std::uint8_t) +
           partition_of_path_.size() * sizeof(PartitionId) +
           (occur_offsets_.size() + occur_slots_.size()) *
               sizeof(std::uint64_t) +
           consumer_offsets_.size() * sizeof(std::uint64_t) +
           consumer_parts_.size() * sizeof(PartitionId) +
           mirror_offsets_.size() * sizeof(std::uint64_t) +
           mirror_parts_.size() * sizeof(PartitionId);
}

} // namespace digraph::engine
