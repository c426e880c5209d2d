#include "engine/replica_sync.hpp"

#include <algorithm>

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
ReplicaSync::activateVertex(ValuePlane &plane, VertexId v,
                            std::uint64_t lanes) const
{
    for (std::uint64_t k = occur_offsets_[v]; k < occur_offsets_[v + 1];
         ++k) {
        const std::uint64_t slot = occur_slots_[k];
        if (is_src_slot_[slot]) {
            plane.activateSlot(slot, lanes);
            plane.partition_active[partitionOfSlot(slot)] = 1;
        }
    }
}

void
ReplicaSync::fanOutChanged(ValuePlane &plane, PartitionId p,
                           const std::vector<VertexId> &changed,
                           const std::vector<std::uint64_t> &changed_lanes,
                           std::vector<PartitionId> &activated_parts) const
{
    // The activation width is read once, not per mirror entry.
    const bool masked = plane.laneMasked();
    for (std::size_t i = 0; i < changed.size(); ++i) {
        const VertexId v = changed[i];
        const std::uint64_t lanes = masked ? changed_lanes[i] : 1;
        for (std::uint64_t k = mirror_offsets_[v];
             k < mirror_offsets_[v + 1]; ++k) {
            const PartitionId part = mirror_parts_[k];
            if (part != p && (masked ? plane.addPending<0>(k, lanes)
                                     : plane.addPending<1>(k, lanes)))
                plane.stale_queue[part].push_back(v);
        }
        for (std::uint64_t k = consumer_offsets_[v];
             k < consumer_offsets_[v + 1]; ++k) {
            const PartitionId part = consumer_parts_[k];
            if (part != p && !plane.partition_active[part]) {
                // Gate only on the activation that wakes the partition
                // up; later batches are picked up whenever it runs.
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
