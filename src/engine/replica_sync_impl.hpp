/**
 * @file
 * Out-of-line definitions of ReplicaSync's wave-body templates
 * (convertStaleQueue, pushDirtyMirrorsT, refreshLocalMirrorsT). None
 * sorts: the stale queue holds mirror entries with their slot slices,
 * the dirty slots arrive in ascending order and changed masters are
 * deduplicated by ValuePlane's per-vertex stamps. Split from
 * replica_sync.hpp because they need the complete ValuePlane type,
 * which itself includes replica_sync.hpp.
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

#include <algorithm>

#include "common/prefetch.hpp"
#include "engine/replica_sync.hpp"
#include "engine/value_plane.hpp"

namespace digraph::engine {

template <unsigned LanesCT>
void
ReplicaSync::convertStaleQueue(ValuePlane &plane, PartitionId p,
                               std::vector<VertexId> &stale_vertices,
                               std::vector<std::uint64_t> &stale_lanes) const
{
    const VertexId *const e_idx = plane.storage.eIdx().data();
    auto &queue = plane.stale_queue[p];
    for (const MirrorEntryId k : queue) {
        // The OR of every fan-out's changed lanes since this partition
        // last ran (the same master may change in different lanes
        // across waves before it runs).
        const std::uint64_t lanes = plane.takePending<LanesCT>(k);
        const std::uint64_t *const begin =
            occur_slots_.data() + entry_slot_offsets_[k];
        const std::uint64_t *const end =
            occur_slots_.data() + entry_slot_offsets_[k + 1];
        const VertexId v = e_idx[*begin];
        const std::uint32_t version = plane.master_version[v];
        bool any_stale = false;
        for (const std::uint64_t *it = begin; it != end; ++it) {
            const std::uint64_t slot = *it;
            if (plane.slot_seen_version[slot] != version) {
                any_stale = true;
                plane.slot_seen_version[slot] = version;
                if (is_src_slot_[slot])
                    plane.activateSlot<LanesCT>(slot, lanes);
            }
        }
        if (any_stale) {
            stale_vertices.push_back(v);
            if (plane.laneMasked<LanesCT>())
                stale_lanes.push_back(lanes);
        }
    }
    queue.clear();
}

template <class AlgoT, unsigned LanesCT>
PushStats
ReplicaSync::pushDirtyMirrorsT(ValuePlane &plane, PartitionId p,
                               const AlgoT &algo,
                               const graph::DirectedGraph &g,
                               bool use_proxy,
                               std::uint32_t proxy_indegree_threshold,
                               bool journal,
                               std::vector<VertexId> &changed,
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
            changed.push_back(v);
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
    ValuePlane &plane, const AlgoT &algo, PartitionId p,
    const std::vector<VertexId> &changed,
    const std::vector<std::uint64_t> &changed_lanes) const
{
    const std::size_t k_lanes = plane.width<LanesCT>();
    const Value *const v_val = plane.storage.vVals().data();
    Value *const s_val = plane.storage.sVals().data();
    Value *const loaded_val = plane.storage.loadedVals().data();
    const PartitionId *const parts = mirror_parts_.data();
    for (std::size_t i = 0; i < changed.size(); ++i) {
        const VertexId v = changed[i];
        const std::uint64_t lanes =
            plane.laneMaskAt<LanesCT>(changed_lanes, i);
        const Value *const master =
            &v_val[static_cast<std::size_t>(v) * k_lanes];
        // (v, p) is a mirror entry: v was found at one of p's slots.
        const std::uint64_t k = static_cast<std::uint64_t>(
            std::lower_bound(parts + mirror_offsets_[v],
                             parts + mirror_offsets_[v + 1], p) -
            parts);
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
