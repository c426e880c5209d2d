/**
 * @file
 * Out-of-line definitions of ReplicaSync's wave-body templates
 * (absorbStaleMirrors, pushDirtyMirrorsT, refreshLocalMirrorsT). None
 * sorts or searches: a dispatch walks its own mirror entries, the dirty
 * slots arrive in ascending order, each slot knows its mirror entry,
 * each entry its slot slice, and changed masters are deduplicated by
 * ValuePlane's per-vertex stamps. Split from replica_sync.hpp because
 * they need the complete ValuePlane type, which itself includes
 * replica_sync.hpp.
 *
 * Each is templated on the wave body's LanesCT (K known at compile
 * time, 0 = read at run time): values are indexed as entry * K + lane,
 * so at LanesCT = 1 every stripe loop is a single scalar access.
 *
 * Included by the wave-body instantiation unit (wave_kernel.cpp) — not
 * by general engine headers, so the templates compile exactly where
 * they are instantiated.
 */

#pragma once

#include "common/prefetch.hpp"
#include "engine/replica_sync.hpp"
#include "engine/value_plane.hpp"

namespace digraph::engine {

template <unsigned LanesCT>
void
ReplicaSync::absorbStaleMirrors(ValuePlane &plane, PartitionId p,
                                std::vector<VertexId> &stale_vertices,
                                std::vector<std::uint64_t> &stale_lanes)
    const
{
    const std::uint32_t *const master_version = plane.master_version.data();
    std::uint32_t *const entry_seen = plane.entry_seen.data();
    for (const MirrorEntryId k : partitionEntries(p)) {
        const VertexId v = entry_vertex_[k];
        const std::uint32_t version = master_version[v];
        if (entry_seen[k] == version)
            continue;
        // Every lane changed since this partition last absorbed the
        // vertex (the same master may change in different lanes across
        // waves before the partition runs).
        const std::uint64_t lanes =
            plane.lanesSince<LanesCT>(v, entry_seen[k]);
        entry_seen[k] = version;
        for (std::uint64_t j = entry_slot_offsets_[k];
             j < entry_slot_offsets_[k + 1]; ++j) {
            const std::uint64_t slot = occur_slots_[j];
            if (is_src_slot_[slot])
                plane.activateSlot<LanesCT>(slot, lanes);
        }
        stale_vertices.push_back(v);
        if (plane.laneMasked<LanesCT>())
            stale_lanes.push_back(lanes);
    }
}

template <class AlgoT, unsigned LanesCT>
PushStats
ReplicaSync::pushDirtyMirrorsT(ValuePlane &plane, PartitionId p,
                               const AlgoT &algo,
                               const graph::DirectedGraph &g,
                               bool use_proxy,
                               std::uint32_t proxy_indegree_threshold,
                               bool journal,
                               std::vector<MirrorEntryId> &changed,
                               std::vector<std::uint64_t> &changed_lanes)
    const
{
    // Every dirty mirror pushes its pending value/delta to its master.
    // Only slots written this round are examined — the incremental
    // replacement of a full slot-range sweep — in ascending slot order,
    // the merge order of the sweep. The list arrives sorted: the wave
    // body runs the round's paths in ascending id (so ascending slot
    // range) and walks each path forward, marking each written slot
    // once, and the set is reset after every push phase. Refreshes are
    // deferred to refreshLocalMirrorsT() so that a refresh of one
    // replica can never clobber another replica's un-pushed work.
    PushStats stats;
    const std::size_t k_lanes = plane.width<LanesCT>();
    Value *const v_val = plane.storage.vVals().data();
    Value *const s_val = plane.storage.sVals().data();
    Value *const loaded_val = plane.storage.loadedVals().data();
    const VertexId *const e_idx = plane.storage.eIdx().data();
    auto &dirty = plane.partition_dirty[p];
    const auto &dirty_slots = dirty.slots();
    const std::size_t n = dirty_slots.size();
    for (std::size_t k = 0; k < n; ++k) {
        if (k + kPrefetchDistance < n) {
            // Gather prefetch: the master each upcoming dirty slot will
            // merge into (and the mirror stripe itself).
            const std::uint64_t ahead = dirty_slots[k + kPrefetchDistance];
            DIGRAPH_PREFETCH(
                &v_val[static_cast<std::size_t>(e_idx[ahead]) * k_lanes]);
            DIGRAPH_PREFETCH(&s_val[ahead * k_lanes]);
        }
        const std::uint64_t s = dirty_slots[k];
        Value *const mirror = &s_val[s * k_lanes];
        Value *const loaded = &loaded_val[s * k_lanes];
        const VertexId v = e_idx[s];
        Value *const master = &v_val[static_cast<std::size_t>(v) * k_lanes];
        std::uint64_t changed_mask = 0;
        for (std::size_t l = 0; l < k_lanes; ++l) {
            if (!algo.hasPush(mirror[l], loaded[l]))
                continue;
            // Journal before the merge: accumulative algorithms mutate
            // the master even when mergeMaster reports no
            // activation-worthy change, so every pushed vertex is
            // checkpoint-dirty.
            if (journal)
                plane.markVertexDirty(v);
            if (algo.mergeMaster(master[l],
                                 algo.pushValue(mirror[l], loaded[l])))
                changed_mask |= std::uint64_t{1} << l;
            loaded[l] = mirror[l];
            if (use_proxy && g.inDegree(v) >= proxy_indegree_threshold)
                ++stats.proxy_pushes;
            else
                ++stats.atomic_pushes;
        }
        if (changed_mask) {
            changed.push_back(slot_entry_[s]);
            if (plane.laneMasked<LanesCT>())
                changed_lanes.push_back(changed_mask);
        }
    }
    dirty.reset();
    plane.dedupeChanged<LanesCT>(changed, changed_lanes);
    return stats;
}

template <class AlgoT, unsigned LanesCT>
void
ReplicaSync::refreshLocalMirrorsT(
    ValuePlane &plane, const AlgoT &algo,
    const std::vector<MirrorEntryId> &changed,
    const std::vector<std::uint64_t> &changed_lanes) const
{
    const std::size_t k_lanes = plane.width<LanesCT>();
    const Value *const v_val = plane.storage.vVals().data();
    Value *const s_val = plane.storage.sVals().data();
    Value *const loaded_val = plane.storage.loadedVals().data();
    for (std::size_t i = 0; i < changed.size(); ++i) {
        const MirrorEntryId k = changed[i];
        const std::uint64_t lanes =
            plane.laneMaskAt<LanesCT>(changed_lanes, i);
        const Value *const master =
            &v_val[static_cast<std::size_t>(entry_vertex_[k]) * k_lanes];
        for (std::uint64_t j = entry_slot_offsets_[k];
             j < entry_slot_offsets_[k + 1]; ++j) {
            const std::uint64_t slot = occur_slots_[j];
            Value *const mirror = &s_val[slot * k_lanes];
            Value *const loaded = &loaded_val[slot * k_lanes];
            for (std::size_t l = 0; l < k_lanes; ++l) {
                mirror[l] = algo.pull(master[l], mirror[l]);
                loaded[l] = mirror[l];
            }
            // The refresh covers every lane (coherence); only the lanes
            // whose master changed re-activate.
            if (is_src_slot_[slot])
                plane.activateSlot<LanesCT>(slot, lanes);
        }
    }
}

} // namespace digraph::engine
