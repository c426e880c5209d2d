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

    // Occurrence list by vertex: vertex -> slots, ascending. Only the
    // build reads it; the entries below keep its slices.
    const auto e_idx = layout.eIdx();
    std::vector<std::uint64_t> occur_offsets(num_vertices + 1, 0);
    for (const VertexId v : e_idx)
        ++occur_offsets[v + 1];
    for (VertexId v = 0; v < num_vertices; ++v)
        occur_offsets[v + 1] += occur_offsets[v];
    std::vector<std::uint64_t> by_vertex(e_idx.size());
    {
        std::vector<std::uint64_t> cursor(occur_offsets.begin(),
                                          occur_offsets.end() - 1);
        for (std::uint64_t s = 0; s < e_idx.size(); ++s)
            by_vertex[cursor[e_idx[s]]++] = s;
    }

    // Mirror entries: one per (vertex, partition holding an occurrence
    // of it) pair. A vertex's occurrence slots are ascending and
    // partitions own contiguous path (hence slot) ranges, so the
    // partition sequence along the occurrence list is non-decreasing:
    // each run of one partition is one entry, and its slots are a
    // contiguous slice of the list. The entries are counted first so
    // every per-entry array is sized exactly.
    const auto partition_at = [&](std::uint64_t k) {
        return partition_of_path_[path_of_slot_[by_vertex[k]]];
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
              " mirror entries do not fit a 32-bit mirror entry id");
    }

    // The mirror CSR in vertex order: each run's partition, whether it
    // holds a source slot, and where its slots start in by_vertex.
    mirror_parts_.resize(nentries);
    mirror_consumer_.assign(nentries, 0);
    std::vector<std::uint64_t> run_start(nentries + 1);
    std::uint64_t run = 0;
    for (VertexId v = 0; v < num_vertices; ++v) {
        PartitionId last = kInvalidPartition;
        for (std::uint64_t k = occur_offsets[v];
             k < occur_offsets[v + 1]; ++k) {
            const PartitionId part = partition_at(k);
            if (part != last) {
                mirror_parts_[run] = part;
                run_start[run] = k;
                ++run;
                last = part;
            }
            if (is_src_slot_[by_vertex[k]])
                mirror_consumer_[run - 1] = 1;
        }
    }
    run_start[nentries] = by_vertex.size();

    // Entry ids are partition-major: each partition's consumer entries,
    // then the entries of vertices it holds only at path tails, each
    // run in vertex order. A counting pass sizes both runs of every
    // partition, and a stable placement numbers the entries.
    part_entry_offsets_.assign(nparts + 1, 0);
    part_consumer_ends_.assign(nparts, 0);
    for (std::uint64_t j = 0; j < nentries; ++j) {
        ++part_entry_offsets_[mirror_parts_[j] + 1];
        part_consumer_ends_[mirror_parts_[j]] += mirror_consumer_[j];
    }
    for (PartitionId q = 0; q < nparts; ++q) {
        part_entry_offsets_[q + 1] += part_entry_offsets_[q];
        part_consumer_ends_[q] += part_entry_offsets_[q];
    }
    vertex_entries_.resize(nentries);
    {
        std::vector<std::uint64_t> consumer_cursor(
            part_entry_offsets_.begin(), part_entry_offsets_.end() - 1);
        std::vector<std::uint64_t> tail_cursor(part_consumer_ends_);
        for (std::uint64_t j = 0; j < nentries; ++j) {
            auto &cursor = mirror_consumer_[j] ? consumer_cursor
                                               : tail_cursor;
            vertex_entries_[j] =
                static_cast<MirrorEntryId>(cursor[mirror_parts_[j]]++);
        }
    }

    // Lay each entry's vertex and slot slice out by id, so a
    // partition's entries and their slots are contiguous.
    entry_vertex_.resize(nentries);
    entry_slot_offsets_.assign(nentries + 1, 0);
    for (VertexId v = 0; v < num_vertices; ++v) {
        for (std::uint64_t j = mirror_offsets_[v];
             j < mirror_offsets_[v + 1]; ++j) {
            const MirrorEntryId k = vertex_entries_[j];
            entry_vertex_[k] = v;
            entry_slot_offsets_[k + 1] = run_start[j + 1] - run_start[j];
        }
    }
    for (std::uint64_t k = 0; k < nentries; ++k)
        entry_slot_offsets_[k + 1] += entry_slot_offsets_[k];
    occur_slots_.resize(by_vertex.size());
    slot_entry_.resize(by_vertex.size());
    for (std::uint64_t j = 0; j < nentries; ++j) {
        const MirrorEntryId k = vertex_entries_[j];
        std::uint64_t out = entry_slot_offsets_[k];
        for (std::uint64_t i = run_start[j]; i < run_start[j + 1]; ++i) {
            occur_slots_[out++] = by_vertex[i];
            slot_entry_[by_vertex[i]] = k;
        }
    }
}

void
ReplicaSync::activateVertex(ValuePlane &plane, VertexId v,
                            std::uint64_t lanes) const
{
    for (std::uint64_t j = mirror_offsets_[v]; j < mirror_offsets_[v + 1];
         ++j) {
        const MirrorEntryId k = vertex_entries_[j];
        for (std::uint64_t i = entry_slot_offsets_[k];
             i < entry_slot_offsets_[k + 1]; ++i) {
            const std::uint64_t slot = occur_slots_[i];
            if (is_src_slot_[slot]) {
                plane.activateSlot(slot, lanes);
                plane.partition_active[mirror_parts_[j]] = 1;
            }
        }
    }
}

std::uint64_t
ReplicaSync::pushWakeVisits(const std::vector<MirrorEntryId> &changed) const
{
    std::uint64_t visits = 0;
    for (const MirrorEntryId k : changed) {
        const VertexId v = entry_vertex_[k];
        visits += mirror_offsets_[v + 1] - mirror_offsets_[v];
    }
    return visits;
}

std::uint64_t
ReplicaSync::pullWakeVisits(const ValuePlane &plane, PartitionId p,
                            std::uint64_t cap) const
{
    std::uint64_t visits = 0;
    const auto nparts = static_cast<PartitionId>(part_consumer_ends_.size());
    for (PartitionId q = 0; q < nparts && visits <= cap; ++q) {
        if (q != p && !plane.partition_active[q])
            visits += partitionConsumerEntries(q).size();
    }
    return visits;
}

void
ReplicaSync::wakeConsumers(ValuePlane &plane, PartitionId p,
                           const std::vector<MirrorEntryId> &changed,
                           std::uint32_t changed_stamp,
                           std::vector<PartitionId> &activated_parts) const
{
    // Each side sets a partition's flag before appending it, so each
    // woken partition is appended once.
    const std::uint64_t push_visits = pushWakeVisits(changed);
    if (push_visits <= pullWakeVisits(plane, p, push_visits)) {
        for (const MirrorEntryId k : changed) {
            const VertexId v = entry_vertex_[k];
            for (std::uint64_t j = mirror_offsets_[v];
                 j < mirror_offsets_[v + 1]; ++j) {
                // One branch on the rare outcome: the three conditions
                // vary from entry to entry in no predictable pattern,
                // and branching on each cost about half the walk's time.
                const PartitionId q = mirror_parts_[j];
                if (mirror_consumer_[j] & (q != p) &
                    (plane.partition_active[q] == 0)) {
                    plane.partition_active[q] = 1;
                    activated_parts.push_back(q);
                }
            }
        }
        return;
    }
    const auto nparts = static_cast<PartitionId>(part_consumer_ends_.size());
    for (PartitionId q = 0; q < nparts; ++q) {
        if (q == p || plane.partition_active[q])
            continue;
        for (const MirrorEntryId k : partitionConsumerEntries(q)) {
            if (plane.keptBy(entry_vertex_[k], changed_stamp)) {
                plane.partition_active[q] = 1;
                activated_parts.push_back(q);
                break;
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
           mirror_consumer_.size() * sizeof(std::uint8_t) +
           vertex_entries_.size() * sizeof(MirrorEntryId) +
           entry_vertex_.size() * sizeof(VertexId) +
           entry_slot_offsets_.size() * sizeof(std::uint64_t) +
           slot_entry_.size() * sizeof(MirrorEntryId) +
           part_entry_offsets_.size() * sizeof(std::uint64_t) +
           part_consumer_ends_.size() * sizeof(std::uint64_t);
}

} // namespace digraph::engine
