#include "engine/replica_sync.hpp"

#include <limits>

#include "common/logging.hpp"
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

    // Occurrence CSR: vertex -> slots. Its offsets are needed only
    // here: the entry slices below carry the same bounds.
    const auto e_idx = layout.eIdx();
    std::vector<std::uint64_t> occur_offsets(num_vertices + 1, 0);
    for (const VertexId v : e_idx)
        ++occur_offsets[v + 1];
    for (VertexId v = 0; v < num_vertices; ++v)
        occur_offsets[v + 1] += occur_offsets[v];
    occur_slots_.resize(e_idx.size());
    {
        std::vector<std::uint64_t> cursor(occur_offsets.begin(),
                                          occur_offsets.end() - 1);
        for (std::uint64_t s = 0; s < e_idx.size(); ++s)
            occur_slots_[cursor[e_idx[s]]++] = s;
    }

    // Mirror entries: one per (vertex, partition holding an occurrence
    // of it) pair. A vertex's occurrence slots are ascending and
    // partitions own contiguous path (hence slot) ranges, so the
    // partition sequence along the occurrence list is non-decreasing:
    // each run of one partition is one entry, and its slots are a
    // contiguous slice of the list. The entries are counted first so
    // every per-entry array is sized exactly.
    const auto partition_at = [&](std::uint64_t k) {
        return partition_of_path_[path_of_slot_[occur_slots_[k]]];
    };
    mirror_offsets_.assign(num_vertices + 1, 0);
    for (VertexId v = 0; v < num_vertices; ++v) {
        std::uint64_t entries = 0;
        PartitionId last = kInvalidPartition;
        for (std::uint64_t k = occur_offsets[v];
             k < occur_offsets[v + 1]; ++k) {
            const PartitionId part = partition_at(k);
            entries += part != last;
            last = part;
        }
        mirror_offsets_[v + 1] = mirror_offsets_[v] + entries;
    }
    const std::uint64_t nentries = mirror_offsets_[num_vertices];
    if (nentries > std::numeric_limits<MirrorEntryId>::max()) {
        fatal("ReplicaSync::build: ", nentries,
              " mirror entries do not fit a 32-bit stale-queue entry id");
    }
    mirror_parts_.resize(nentries);
    entry_slot_offsets_.resize(nentries + 1);
    entry_consumer_.assign(nentries, 0);
    std::uint64_t entry = 0;
    for (VertexId v = 0; v < num_vertices; ++v) {
        PartitionId last = kInvalidPartition;
        for (std::uint64_t k = occur_offsets[v];
             k < occur_offsets[v + 1]; ++k) {
            const PartitionId part = partition_at(k);
            if (part != last) {
                mirror_parts_[entry] = part;
                entry_slot_offsets_[entry] = k;
                ++entry;
                last = part;
            }
            if (is_src_slot_[occur_slots_[k]])
                entry_consumer_[entry - 1] = 1;
        }
    }
    entry_slot_offsets_[nentries] = occur_slots_.size();
}

void
ReplicaSync::activateVertex(ValuePlane &plane, VertexId v,
                            std::uint64_t lanes) const
{
    for (std::uint64_t k = entry_slot_offsets_[mirror_offsets_[v]];
         k < entry_slot_offsets_[mirror_offsets_[v + 1]]; ++k) {
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
            if (part == p)
                continue;
            if (masked ? plane.addPending<0>(k, lanes)
                       : plane.addPending<1>(k, lanes))
                plane.stale_queue[part].push_back(
                    static_cast<MirrorEntryId>(k));
            if (entry_consumer_[k] && !plane.partition_active[part]) {
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
           occur_slots_.size() * sizeof(std::uint64_t) +
           mirror_offsets_.size() * sizeof(std::uint64_t) +
           mirror_parts_.size() * sizeof(PartitionId) +
           entry_slot_offsets_.size() * sizeof(std::uint64_t) +
           entry_consumer_.size() * sizeof(std::uint8_t);
}

} // namespace digraph::engine
