/**
 * @file
 * Per-job value plane of the execution substrate (DESIGN.md §12): every
 * piece of *mutable* run state one job owns — the four-array value
 * storage (V_val/S_val/E_val over a shared PathLayout, K values per
 * entry), activation flags or lane masks with their per-path counters,
 * the master versions with each mirror entry's absorbed version (and
 * per-lane versions at K > 1), the changed-master dedupe stamps, and the
 * checkpoint copy-on-write shadows of the fault layer.
 *
 * Ownership rule: the shared substrate layers (ReplicaSync, Dispatcher)
 * are read-only; anything a run mutates lives here, so N concurrent
 * jobs over one substrate are fully isolated by giving each its own
 * ValuePlane. Within one job, dispatches run one at a time.
 *
 * Activation width: a 1-lane run keeps one byte per slot (slot_active);
 * a K > 1 run keeps a lane mask in its place (slot_lane_mask) plus
 * per-lane active-slot counters, a version per master lane, and a list
 * position per vertex beside its dedupe stamp. The helpers templated on
 * LanesCT pick the width (the wave body's LanesCT: 1 at compile time,
 * or 0 = from lanes() at run time), so every caller is one function
 * over lane masks; a 1-lane run's only lane is bit 0.
 *
 * Versions are 32-bit. A master version counts the barriers that
 * changed the vertex, so a vertex would need 2^32 changing barriers in
 * one run before a version wraps.
 */

#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "algorithms/algorithm.hpp"
#include "common/types.hpp"
#include "engine/replica_sync.hpp"
#include "graph/digraph.hpp"
#include "partition/preprocess.hpp"
#include "storage/path_storage.hpp"

namespace digraph::engine {

/** Warm-start input for a run: converged states from a previous run
 *  plus the vertices whose neighborhood changed. */
struct WarmStart
{
    /** Vertex states to resume from (size = numVertices). */
    const std::vector<Value> *vertex_state = nullptr;
    /** Explicit per-edge caches (size = numEdges); when null they are
     *  derived via Algorithm::warmEdgeState(). */
    const std::vector<Value> *edge_state = nullptr;
    /** Activation seed (e.g. sources of inserted edges). */
    const std::vector<VertexId> *active_vertices = nullptr;
};

/**
 * Call @p f(lane) for each lane set in @p mask, ascending. @p mask must
 * be nonzero; with LanesCT = 1 the only lane is 0 and the mask is never
 * read, so 1-lane loops compile to a single call.
 */
template <unsigned LanesCT, class F>
inline void
forEachLane(std::uint64_t mask, F &&f)
{
    if constexpr (LanesCT == 1) {
        (void)mask;
        f(0u);
    } else {
        while (mask) {
            const unsigned lane =
                static_cast<unsigned>(std::countr_zero(mask));
            mask &= mask - 1;
            f(lane);
        }
    }
}

/**
 * All mutable per-job state of one engine run.
 */
class ValuePlane
{
  public:
    // --- four-array value storage, lanes() values per entry ---
    storage::PathStorage storage;

    // --- activation / version state ---
    /** 1-lane runs: chain activation within the current dispatch (set
     *  by processed edges and local refreshes). Empty when K > 1. */
    std::vector<std::uint8_t> slot_active;
    /** K > 1: active-lane mask per slot, in place of slot_active. */
    std::vector<std::uint64_t> slot_lane_mask;
    /** K > 1: active slots per (partition, lane), indexed
     *  p * K + lane; per-lane convergence reads them at wave end. */
    std::vector<std::uint64_t> lane_active_slots;
    /** Per vertex: the number of barriers that changed its master. A
     *  mirror entry whose absorbed version lags it is stale. */
    std::vector<std::uint32_t> master_version;
    /** Per mirror entry (ReplicaSync): the master version its partition
     *  last absorbed, at its dispatch start
     *  (ReplicaSync::absorbStaleMirrors) or at its own barrier, whose
     *  dispatch refreshed the mirrors of every master it changed. Never
     *  above master_version; a stale consumer entry always belongs to
     *  an active partition (the barrier wakes it). */
    std::vector<std::uint32_t> entry_seen;
    /** K > 1, per master lane v * K + l: the version of the barrier that
     *  last changed lane l of v; master_version[v] is the maximum over
     *  v's lanes. Empty at K = 1. */
    std::vector<std::uint32_t> lane_version;
    std::vector<std::uint8_t> partition_active;

    // --- incremental activation state (partition-sliced) ---
    /** Active source slots per path (incremental activation counter).
     *  A dispatch finds its active paths by scanning its partition's
     *  contiguous path range for nonzero counters. */
    std::vector<std::uint32_t> path_active_count;
    /** Per partition: dirty-slot worklist for the mirror-push phase. */
    std::vector<storage::SlotDirtySet> partition_dirty;

    // --- checkpoint COW state (fault layer; allocated only when fault
    // tolerance is enabled, which only 1-lane runs allow) ---
    /** Shadow copy of V_val at the last checkpoint epoch. */
    std::vector<Value> ckpt_v;
    /** Shadow copy of E_val at the last checkpoint epoch. */
    std::vector<Value> ckpt_e;
    /** Masters mutated since the last epoch (flag + journal). */
    std::vector<std::uint8_t> ckpt_v_dirty;
    std::vector<VertexId> ckpt_v_dirty_list;
    /** Partitions whose E_val slice was dispatched since the epoch. */
    std::vector<std::uint8_t> ckpt_part_dirty;
    std::vector<PartitionId> ckpt_part_dirty_list;
    /** Wave of the last checkpoint epoch. */
    std::uint64_t ckpt_wave = 0;

    /** Bind the storage to @p layout, sharing the immutable topology
     *  (the substrate path; fresh value arrays are allocated). */
    void
    bindLayout(std::shared_ptr<const storage::PathLayout> layout,
               VertexId num_vertices)
    {
        storage = storage::PathStorage(std::move(layout), num_vertices);
    }

    /** Attach the shared replica indexes the inline activation
     *  bookkeeping consults. Must precede beginRun(). */
    void attach(const ReplicaSync *sync) { sync_ = sync; }

    /** Value lanes K of the current run. */
    unsigned lanes() const { return storage.lanes(); }

    /** K of a LanesCT body: the compile-time count, or lanes(). */
    template <unsigned LanesCT>
    unsigned
    width() const
    {
        if constexpr (LanesCT != 0)
            return LanesCT;
        else
            return lanes();
    }

    /** Whether the run keeps lane masks (K > 1) rather than flags. */
    template <unsigned LanesCT = 0>
    bool
    laneMasked() const
    {
        if constexpr (LanesCT != 0)
            return LanesCT > 1;
        else
            return lanes() > 1;
    }

    /** Lane mask @p i of a changed/stale vertex list: 1-lane runs keep
     *  no masks, so every entry is lane 0. */
    template <unsigned LanesCT>
    std::uint64_t
    laneMaskAt(const std::vector<std::uint64_t> &masks, std::size_t i) const
    {
        return laneMasked<LanesCT>() ? masks[i] : 1;
    }

    /** Initialize the four arrays from @p algo (or from @p warm): K =
     *  lanes() of a LaneAlgorithm, else 1. Precedes beginRun().
     *  @throws via panic() on warm-start size mismatches. */
    void initializeState(const graph::DirectedGraph &g,
                         const algorithms::Algorithm &algo,
                         const WarmStart *warm);

    /** Reset/resize every per-run structure for a run over @p pre, at
     *  the activation width of the storage's lanes(). */
    void beginRun(const partition::Preprocessed &pre);

    /** Activate the lanes in @p lanes of a slot. The path counter
     *  engages on the slot's first active lane; a 1-lane run just sets
     *  the slot's flag. */
    template <unsigned LanesCT = 0>
    void
    activateSlot(std::uint64_t slot, std::uint64_t lanes)
    {
        if (!laneMasked<LanesCT>()) {
            if (slot_active[slot])
                return;
            slot_active[slot] = 1;
            enlist(slot);
            return;
        }
        std::uint64_t &mask = slot_lane_mask[slot];
        const std::uint64_t missing = lanes & ~mask;
        if (!missing)
            return;
        if (mask == 0)
            enlist(slot);
        mask |= missing;
        const std::size_t base =
            static_cast<std::size_t>(sync_->partitionOfSlot(slot)) *
            width<LanesCT>();
        forEachLane<LanesCT>(
            missing, [&](unsigned l) { ++lane_active_slots[base + l]; });
    }

    /** Take and clear the activation of slot @p slot of path @p q in
     *  partition @p p (the wave body's walk). Returns the taken lanes
     *  (0 = the slot was inactive). */
    template <unsigned LanesCT>
    std::uint64_t
    consumeSlot(std::uint64_t slot, PathId q, PartitionId p)
    {
        if (!laneMasked<LanesCT>()) {
            if (!slot_active[slot])
                return 0;
            slot_active[slot] = 0;
            --path_active_count[q];
            return 1;
        }
        std::uint64_t &mask = slot_lane_mask[slot];
        const std::uint64_t taken = mask;
        if (!taken)
            return 0;
        mask = 0;
        --path_active_count[q];
        const std::size_t base =
            static_cast<std::size_t>(p) * width<LanesCT>();
        forEachLane<LanesCT>(
            taken, [&](unsigned l) { --lane_active_slots[base + l]; });
        return taken;
    }

    /** Lanes of @p v changed after version @p seen (an entry's absorbed
     *  version): at K > 1 the lanes whose version exceeds it; a 1-lane
     *  run's only lane otherwise. Branch-free: about two thirds of the
     *  lanes are set on batched runs, in no pattern a branch predicts. */
    template <unsigned LanesCT>
    std::uint64_t
    lanesSince(VertexId v, std::uint32_t seen) const
    {
        if (!laneMasked<LanesCT>())
            return 1;
        const std::size_t k_lanes = width<LanesCT>();
        const std::uint32_t *const versions =
            &lane_version[static_cast<std::size_t>(v) * k_lanes];
        std::uint64_t lanes = 0;
        for (std::size_t l = 0; l < k_lanes; ++l)
            lanes |= static_cast<std::uint64_t>(versions[l] > seen) << l;
        return lanes;
    }

    /** Barrier publish of a master @p v that changed in lanes
     *  @p changed_lanes during partition p's dispatch, p's mirror entry
     *  of it being @p entry: bump the master version, stamp the changed
     *  lanes with it (K > 1), and mark p's entry absorbed, since the
     *  dispatch refreshed p's mirrors of every master it changed. */
    void
    publishChange(MirrorEntryId entry, VertexId v,
                  std::uint64_t changed_lanes)
    {
        const std::uint32_t version = ++master_version[v];
        entry_seen[entry] = version;
        if (laneMasked()) {
            std::uint32_t *const versions =
                &lane_version[static_cast<std::size_t>(v) * lanes()];
            forEachLane<0>(changed_lanes,
                           [&](unsigned l) { versions[l] = version; });
        }
    }

    /**
     * Drop repeated masters from @p changed (one partition's mirror
     * entries, so one entry per vertex) in place, keeping first-change
     * order; on K > 1 runs the masks in @p changed_lanes (parallel) of a
     * vertex's repeats are ORed into its kept entry. Linear: an entry is
     * a repeat when its vertex's stamp equals this call's fresh stamp,
     * and K > 1 also records each kept vertex's position for the OR.
     * Returns the call's stamp: keptBy(v, stamp) tells the kept
     * vertices until the next call. No consumer of a changed list
     * depends on its order: version bumps commute, the refresh of
     * distinct entries touches disjoint slots, and the wake's
     * notifications are per device and per destination.
     */
    template <unsigned LanesCT>
    std::uint32_t
    dedupeChanged(std::vector<MirrorEntryId> &changed,
                  std::vector<std::uint64_t> &changed_lanes)
    {
        if (++dedupe_clock_ == 0) {
            // The counter wrapped: older stamps could collide.
            std::fill(dedupe_stamp_.begin(), dedupe_stamp_.end(), 0u);
            dedupe_clock_ = 1;
        }
        const bool masked = laneMasked<LanesCT>();
        std::size_t kept = 0;
        for (std::size_t i = 0; i < changed.size(); ++i) {
            const MirrorEntryId k = changed[i];
            const VertexId v = sync_->entryVertex(k);
            if (dedupe_stamp_[v] == dedupe_clock_) {
                if (masked)
                    changed_lanes[dedupe_pos_[v]] |= changed_lanes[i];
                continue;
            }
            dedupe_stamp_[v] = dedupe_clock_;
            changed[kept] = k;
            if (masked) {
                dedupe_pos_[v] = static_cast<std::uint32_t>(kept);
                changed_lanes[kept] = changed_lanes[i];
            }
            ++kept;
        }
        changed.resize(kept);
        if (masked)
            changed_lanes.resize(kept);
        return dedupe_clock_;
    }

    /** Whether the dedupeChanged() call that returned @p stamp kept a
     *  mirror entry of @p v; valid until the next call. */
    bool
    keptBy(VertexId v, std::uint32_t stamp) const
    {
        return dedupe_stamp_[v] == stamp;
    }

    /** Mask of the lanes that still have an active slot. */
    std::uint64_t activeLanes() const;

    /** Journal a master mutation since the last checkpoint epoch. */
    void
    markVertexDirty(VertexId v)
    {
        if (!ckpt_v_dirty[v]) {
            ckpt_v_dirty[v] = 1;
            ckpt_v_dirty_list.push_back(v);
        }
    }

    /** Journal a partition whose E_val slice a dispatch may mutate. */
    void
    markPartitionDirty(PartitionId p)
    {
        if (!ckpt_part_dirty[p]) {
            ckpt_part_dirty[p] = 1;
            ckpt_part_dirty_list.push_back(p);
        }
    }

    /** Take the epoch-0 checkpoint (full V_val + E_val copy) and reset
     *  the dirty journals. */
    void initCheckpoint(const graph::DirectedGraph &g,
                        const partition::Preprocessed &pre);

    /** Copy partition @p p's E_val slice between live and shadow
     *  arrays (@p to_checkpoint: live -> shadow, else shadow -> live). */
    void copyPartitionEval(const partition::Preprocessed &pre,
                           PartitionId p, bool to_checkpoint);

    /**
     * Validate the incremental activation bookkeeping (tests): per-path
     * active-slot counters (K > 1: also the per-lane counters) must
     * equal a full recount of active slots; no mirror entry's absorbed
     * version exceeds its master's version; at K > 1 every master
     * version is the maximum of its lane versions; and every stale
     * consumer entry belongs to an active partition (the barrier's
     * wake). O(total slots + mirror entries) — debug/tests only.
     */
    bool bookkeepingConsistent(const partition::Preprocessed &pre) const;

    /** Host bytes of every per-job array this plane owns (value
     *  storage, activation state and versions, dedupe stamps,
     *  checkpoint shadows) — excludes the shared layout and indexes. */
    std::size_t memoryBytes() const;

  private:
    /** A slot's first active lane: count it on its path. */
    void
    enlist(std::uint64_t slot)
    {
        ++path_active_count[sync_->pathOfSlot(slot)];
    }

    /** Per vertex: the dedupeChanged() call that last kept it. */
    std::vector<std::uint32_t> dedupe_stamp_;
    /** K > 1, per vertex: its position in the list that call kept it
     *  in. Empty at K = 1. */
    std::vector<std::uint32_t> dedupe_pos_;
    /** Stamp of the latest dedupeChanged() call (0 = none yet). */
    std::uint32_t dedupe_clock_ = 0;

    const ReplicaSync *sync_ = nullptr;
};

} // namespace digraph::engine
