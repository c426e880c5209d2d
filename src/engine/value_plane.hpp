/**
 * @file
 * Per-job value plane of the execution substrate (DESIGN.md §12): every
 * piece of *mutable* run state one job owns — the four-array value
 * storage (V_val/S_val/E_val over a shared PathLayout, K values per
 * entry), activation flags or lane masks with their per-path counters,
 * the stale queues of mirror entries, master version clocks, the
 * changed-master dedupe stamps, and the checkpoint copy-on-write
 * shadows of the fault layer.
 *
 * Ownership rule: the shared substrate layers (ReplicaSync, Dispatcher)
 * are read-only; anything a run mutates lives here, so N concurrent
 * jobs over one substrate are fully isolated by giving each its own
 * ValuePlane. Within one job, dispatches run one at a time.
 *
 * Activation width: a 1-lane run keeps one byte per slot (slot_active)
 * and per mirror entry (stale_pending); a K > 1 run keeps a lane mask
 * in their place (slot_lane_mask, stale_pending_lanes) plus per-lane
 * active-slot counters, and a list position per vertex beside its
 * dedupe stamp. The helpers templated on LanesCT pick the width
 * (LanesCT = 1 or > 1 at compile time, 0 = from lanes() at run time),
 * so every caller is one function over lane masks; a 1-lane run's only
 * lane is bit 0.
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
    /** Master change counter per vertex; a source slot whose seen
     *  version lags must re-propagate (cross-partition activation
     *  without per-slot broadcasts). */
    std::vector<std::uint32_t> master_version;
    /** Last master version each source slot has propagated. */
    std::vector<std::uint32_t> slot_seen_version;
    std::vector<std::uint8_t> partition_active;

    // --- incremental activation state (partition-sliced) ---
    /** Active source slots per path (incremental activation counter).
     *  A dispatch finds its active paths by scanning its partition's
     *  contiguous path range for nonzero counters. */
    std::vector<std::uint32_t> path_active_count;
    /** Per partition: mirror entries (ReplicaSync) whose vertex's master
     *  version bumped since the partition last absorbed it (fed at the
     *  barrier fan-out; consumed at dispatch start instead of a full
     *  slot-range version scan). Each entry appears at most once, in
     *  fan-out order: the pending flags below dedupe entries when they
     *  are enqueued. Queues may be non-empty at convergence (a
     *  partition holding the vertex only at a path tail is never woken
     *  to consume it). */
    std::vector<std::vector<MirrorEntryId>> stale_queue;
    /** 1-lane runs: per mirror-CSR entry (a (vertex, mirroring
     *  partition) pair), set while the entry sits in that partition's
     *  stale_queue. Set only by a dispatch's barrier fan-out; cleared
     *  only by the owning partition's dispatch (or device-loss
     *  recovery). Empty when K > 1. */
    std::vector<std::uint8_t> stale_pending;
    /** K > 1: per mirror-CSR entry, the OR of the lanes whose master
     *  changed since the partition last absorbed the vertex, in place
     *  of stale_pending; nonzero exactly while the entry is queued.
     *  Conversion activates only the masked lanes. */
    std::vector<std::uint64_t> stale_pending_lanes;
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

    /** Take and clear mirror entry @p entry's pending lanes (the stale
     *  queue conversion). */
    template <unsigned LanesCT>
    std::uint64_t
    takePending(std::uint64_t entry)
    {
        if (!laneMasked<LanesCT>()) {
            const std::uint64_t taken = stale_pending[entry];
            stale_pending[entry] = 0;
            return taken;
        }
        const std::uint64_t taken = stale_pending_lanes[entry];
        stale_pending_lanes[entry] = 0;
        return taken;
    }

    /** Add @p lanes to mirror entry @p entry's pending lanes; true when
     *  none were pending, i.e. the caller must enqueue the entry. */
    template <unsigned LanesCT>
    bool
    addPending(std::uint64_t entry, std::uint64_t lanes)
    {
        if (!laneMasked<LanesCT>()) {
            if (stale_pending[entry])
                return false;
            stale_pending[entry] = 1;
            return true;
        }
        std::uint64_t &pending = stale_pending_lanes[entry];
        const bool was_clear = pending == 0;
        pending |= lanes;
        return was_clear;
    }

    /**
     * Drop repeated vertices from @p changed in place, keeping first-
     * change order; on K > 1 runs the masks in @p changed_lanes
     * (parallel) of a vertex's repeats are ORed into its kept entry.
     * Linear: a vertex is a repeat when its stamp equals this call's
     * fresh stamp, and K > 1 also records each kept vertex's position
     * for the OR. No consumer of a changed list depends on its order:
     * version bumps commute, the refresh and fan-out of distinct
     * vertices touch disjoint slots and entries, and the barrier sorts
     * the partitions it wakes.
     */
    template <unsigned LanesCT>
    void
    dedupeChanged(std::vector<VertexId> &changed,
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
            const VertexId v = changed[i];
            if (dedupe_stamp_[v] == dedupe_clock_) {
                if (masked)
                    changed_lanes[dedupe_pos_[v]] |= changed_lanes[i];
                continue;
            }
            dedupe_stamp_[v] = dedupe_clock_;
            changed[kept] = v;
            if (masked) {
                dedupe_pos_[v] = static_cast<std::uint32_t>(kept);
                changed_lanes[kept] = changed_lanes[i];
            }
            ++kept;
        }
        changed.resize(kept);
        if (masked)
            changed_lanes.resize(kept);
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
     * active-slot counters must equal a full recount of active slots,
     * and the stale queues must match their pending flags (K > 1:
     * masks) — every queued id is a mirror entry of that queue's
     * partition, appears once, and is flagged, and every flagged entry
     * is queued. K > 1 also recounts the per-lane counters. O(total
     * slots) — debug/tests only.
     */
    bool bookkeepingConsistent(const partition::Preprocessed &pre) const;

    /** Host bytes of every per-job array this plane owns (value
     *  storage, activation state and stale queues, dedupe stamps,
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
