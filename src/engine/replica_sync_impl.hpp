/**
 * @file
 * Out-of-line definitions of ReplicaSync's static-dispatch sync
 * templates (pushDirtyMirrorsT / refreshLocalMirrorsT and their lane
 * twins). Split from replica_sync.hpp because they need the complete
 * ValuePlane type, which itself includes replica_sync.hpp.
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

template <class AlgoT>
PushStats
ReplicaSync::pushDirtyMirrorsT(ValuePlane &plane, PartitionId p,
                               const AlgoT &algo,
                               const graph::DirectedGraph &g,
                               bool use_proxy,
                               std::uint32_t proxy_indegree_threshold,
                               bool journal,
                               std::vector<VertexId> &changed) const
{
    // Every dirty mirror pushes its pending value/delta to its master.
    // Only slots written this round are examined — the incremental
    // replacement of a full slot-range sweep. Ascending slot order keeps
    // the merge order of the sweep. Refreshes are deferred to
    // refreshLocalMirrorsT() so that a refresh of one replica can never
    // clobber another replica's un-pushed work.
    PushStats stats;
    auto &dirty = plane.partition_dirty[p];
    auto &dirty_slots = dirty.slots();
    std::sort(dirty_slots.begin(), dirty_slots.end());
    const std::size_t n = dirty_slots.size();
    for (std::size_t k = 0; k < n; ++k) {
        if (k + kPrefetchDistance < n) {
            // Gather prefetch: the master each upcoming dirty slot will
            // merge into (and the mirror pair itself).
            const std::uint64_t ahead = dirty_slots[k + kPrefetchDistance];
            DIGRAPH_PREFETCH(
                &plane.storage.vVal(plane.storage.vertexAt(ahead)));
            DIGRAPH_PREFETCH(&plane.storage.sVal(ahead));
        }
        const std::uint64_t s = dirty_slots[k];
        Value &mirror = plane.storage.sVal(s);
        Value &loaded = plane.storage.loadedVal(s);
        if (!algo.hasPush(mirror, loaded))
            continue;
        const VertexId v = plane.storage.vertexAt(s);
        // Journal before the merge: accumulative algorithms mutate the
        // master even when mergeMaster reports no activation-worthy
        // change, so every pushed vertex is checkpoint-dirty.
        if (journal)
            plane.markVertexDirty(v);
        if (algo.mergeMaster(plane.storage.vVal(v),
                             algo.pushValue(mirror, loaded)))
            changed.push_back(v);
        loaded = mirror;
        if (use_proxy && g.inDegree(v) >= proxy_indegree_threshold)
            ++stats.proxy_pushes;
        else
            ++stats.atomic_pushes;
    }
    dirty.reset();
    std::sort(changed.begin(), changed.end());
    changed.erase(std::unique(changed.begin(), changed.end()),
                  changed.end());
    return stats;
}

template <class AlgoT>
void
ReplicaSync::refreshLocalMirrorsT(ValuePlane &plane, const AlgoT &algo,
                                  std::uint64_t slot_lo,
                                  std::uint64_t slot_hi,
                                  const std::vector<VertexId> &changed) const
{
    for (const VertexId v : changed) {
        const Value master = plane.storage.vVal(v);
        const auto occ_begin =
            occur_slots_.begin() +
            static_cast<std::ptrdiff_t>(occur_offsets_[v]);
        const auto occ_end =
            occur_slots_.begin() +
            static_cast<std::ptrdiff_t>(occur_offsets_[v + 1]);
        for (auto it = std::lower_bound(occ_begin, occ_end, slot_lo);
             it != occ_end && *it < slot_hi; ++it) {
            const std::uint64_t slot = *it;
            Value &mirror = plane.storage.sVal(slot);
            mirror = algo.pull(master, mirror);
            plane.storage.loadedVal(slot) = mirror;
            if (is_src_slot_[slot])
                plane.activateSlot(slot);
        }
    }
}

template <class AlgoT>
PushStats
ReplicaSync::pushDirtyMirrorsLanesT(
    ValuePlane &plane, PartitionId p, const AlgoT &algo,
    const graph::DirectedGraph &g, bool use_proxy,
    std::uint32_t proxy_indegree_threshold, std::vector<VertexId> &changed,
    std::vector<std::uint64_t> &changed_lanes) const
{
    // Stripe-wise twin of pushDirtyMirrorsT: the dirty worklist stays
    // slot-granular (one mark covers all K lanes of the written
    // mirror), and each lane pushes independently into its stripe
    // position. At K == 1 the control flow, push counts, and merge
    // order are exactly the scalar phase's.
    PushStats stats;
    const unsigned lanes = plane.lane_count;
    auto &dirty = plane.partition_dirty[p];
    auto &dirty_slots = dirty.slots();
    std::sort(dirty_slots.begin(), dirty_slots.end());
    const std::size_t n = dirty_slots.size();
    for (std::size_t k = 0; k < n; ++k) {
        if (k + kPrefetchDistance < n) {
            const std::uint64_t ahead = dirty_slots[k + kPrefetchDistance];
            DIGRAPH_PREFETCH(
                &plane.lane_v[static_cast<std::size_t>(
                                  plane.storage.vertexAt(ahead)) *
                              lanes]);
            DIGRAPH_PREFETCH(&plane.lane_s[ahead * lanes]);
        }
        const std::uint64_t s = dirty_slots[k];
        Value *mirror = &plane.lane_s[s * lanes];
        Value *loaded = &plane.lane_loaded[s * lanes];
        const VertexId v = plane.storage.vertexAt(s);
        Value *master = &plane.lane_v[static_cast<std::size_t>(v) * lanes];
        std::uint64_t changed_mask = 0;
        for (unsigned l = 0; l < lanes; ++l) {
            if (!algo.hasPush(mirror[l], loaded[l]))
                continue;
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
            changed_lanes.push_back(changed_mask);
        }
    }
    dirty.reset();
    sortMergeChangedLanes(changed, changed_lanes);
    return stats;
}

template <class AlgoT>
void
ReplicaSync::refreshLocalMirrorsLanesT(
    ValuePlane &plane, const AlgoT &algo, std::uint64_t slot_lo,
    std::uint64_t slot_hi, const std::vector<VertexId> &changed,
    const std::vector<std::uint64_t> &changed_lanes) const
{
    const unsigned lanes = plane.lane_count;
    for (std::size_t i = 0; i < changed.size(); ++i) {
        const VertexId v = changed[i];
        const Value *master =
            &plane.lane_v[static_cast<std::size_t>(v) * lanes];
        const auto occ_begin =
            occur_slots_.begin() +
            static_cast<std::ptrdiff_t>(occur_offsets_[v]);
        const auto occ_end =
            occur_slots_.begin() +
            static_cast<std::ptrdiff_t>(occur_offsets_[v + 1]);
        for (auto it = std::lower_bound(occ_begin, occ_end, slot_lo);
             it != occ_end && *it < slot_hi; ++it) {
            const std::uint64_t slot = *it;
            Value *mirror = &plane.lane_s[slot * lanes];
            Value *loaded = &plane.lane_loaded[slot * lanes];
            for (unsigned l = 0; l < lanes; ++l) {
                mirror[l] = algo.pull(master[l], mirror[l]);
                loaded[l] = mirror[l];
            }
            // Only the lanes whose master changed re-activate — the
            // stripe refresh itself still covers all K (coherence).
            if (is_src_slot_[slot])
                plane.activateSlotLanesMask(slot, changed_lanes[i]);
        }
    }
}

} // namespace digraph::engine
