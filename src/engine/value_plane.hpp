/**
 * @file
 * Per-job value plane of the execution substrate (DESIGN.md §12): every
 * piece of *mutable* run state one job owns — the four-array value
 * storage (V_val/S_val/E_val over a shared PathLayout), activation
 * bitsets and incremental worklists, master version clocks, and the
 * checkpoint copy-on-write shadows of the fault layer.
 *
 * Ownership rule: the shared substrate layers (ReplicaSync, Dispatcher)
 * are read-only; anything a run mutates lives here, so N concurrent
 * jobs over one substrate are fully isolated by giving each its own
 * ValuePlane. Within one job, dispatches run one at a time.
 *
 * The flat-mode arrays serve the baseline engines (BSP/async/
 * sequential), which iterate on plain per-vertex/per-edge state without
 * path storage; they share the plane type so snapshotting, convergence
 * sweeps, and reporting are uniform across engine families.
 */

#pragma once

#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "algorithms/algorithm.hpp"
#include "algorithms/multi_source.hpp"
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
 * All mutable per-job state of one engine run.
 */
class ValuePlane
{
  public:
    // --- four-array value storage (path engines) ---
    storage::PathStorage storage;

    // --- activation / version state (path engines) ---
    /** Chain activation within the current dispatch (set by processed
     *  edges and local refreshes). */
    std::vector<std::uint8_t> slot_active;
    /** Master change counter per vertex; a source slot whose seen
     *  version lags must re-propagate (cross-partition activation
     *  without per-slot broadcasts). */
    std::vector<std::uint32_t> master_version;
    /** Last master version each source slot has propagated. */
    std::vector<std::uint32_t> slot_seen_version;
    std::vector<std::uint8_t> partition_active;

    // --- incremental worklists (partition-sliced) ---
    /** Active source slots per path (incremental activation counter). */
    std::vector<std::uint32_t> path_active_count;
    /** Whether the path currently sits in its partition's worklist. */
    std::vector<std::uint8_t> path_in_worklist;
    /** Per partition: paths with (possibly) active slots; swept lazily
     *  each local round, so active-path collection is O(active paths)
     *  instead of O(partition slots). */
    std::vector<std::vector<PathId>> partition_worklist;
    /** Per partition: vertices whose master version bumped since the
     *  partition last absorbed them (fed at the wave barrier; consumed
     *  at dispatch start instead of a full slot-range version scan).
     *  Each vertex appears at most once, in fan-out order: the pending
     *  flags below dedupe entries when they are enqueued. Queues may be
     *  non-empty at convergence (a partition holding the vertex only at
     *  a path tail is never woken to consume it). */
    std::vector<std::vector<VertexId>> stale_queue;
    /** Scalar runs: per mirror-CSR entry (a (vertex, mirroring
     *  partition) pair, ReplicaSync::mirrorEntry()), set while the
     *  vertex sits in that partition's stale_queue. Set only by a
     *  dispatch's barrier fan-out; cleared only by the owning
     *  partition's dispatch (or device-loss recovery). Empty on lane
     *  runs. */
    std::vector<std::uint8_t> stale_pending;
    /** Lane runs: per mirror-CSR entry, the OR of the lanes whose master
     *  changed since the partition last absorbed the vertex; nonzero
     *  exactly while the vertex is queued. Conversion activates only the
     *  masked lanes. Same ownership as stale_pending; empty on scalar
     *  runs. */
    std::vector<std::uint64_t> stale_pending_lanes;
    /** Per partition: dirty-slot worklist for the mirror-push phase. */
    std::vector<storage::SlotDirtySet> partition_dirty;

    // --- checkpoint COW state (fault layer; allocated only when fault
    // tolerance is enabled) ---
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

    // --- K-wide lane state (batched multi-source mode, DESIGN.md §17;
    // lane_count == 0 on scalar runs and every lane array stays empty).
    // SoA stripe layout: entity index * lane_count + lane, so the K
    // values of one vertex/slot/edge are contiguous (SIMD-friendly). ---
    /** Value lanes K of the current run (0 = scalar mode). */
    unsigned lane_count = 0;
    /** All-lanes activation mask ((1 << K) - 1; 0 in scalar mode). */
    std::uint64_t lane_full_mask = 0;
    /** Master states: numVertices x K stripes (the lane V_val). */
    std::vector<Value> lane_v;
    /** Mirror states: numSlots x K stripes (the lane S_val). */
    std::vector<Value> lane_s;
    /** Partition-load snapshots, parallel to lane_s. */
    std::vector<Value> lane_loaded;
    /** Per-edge caches: numPathEdges x K stripes (the lane E_val). */
    std::vector<Value> lane_e;
    /** Active-lane bitset per slot. Invariant: slot_active[s] ==
     *  (slot_lane_mask[s] != 0), so the scalar path/worklist
     *  bookkeeping tracks the union over lanes unchanged. */
    std::vector<std::uint64_t> slot_lane_mask;
    /** Active slots per (partition, lane): numPartitions x K, indexed
     *  p * lane_count + lane; per-lane convergence sums the column at
     *  wave end. */
    std::vector<std::uint64_t> lane_active_slots;

    // --- flat-mode state (baseline engines) ---
    /** Per-vertex values (current iterate). */
    std::vector<Value> vertex_values;
    /** Per-vertex values of the next iterate (BSP double buffer). */
    std::vector<Value> vertex_values_next;
    /** Per-edge cached values. */
    std::vector<Value> edge_values;
    /** Per-vertex activation flags (current round). */
    std::vector<std::uint8_t> vertex_active;
    /** Per-vertex activation flags being built for the next round. */
    std::vector<std::uint8_t> vertex_active_next;

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

    /** Reset/resize every per-run structure for a run over @p pre
     *  (storage values are initialized separately). */
    void beginRun(const partition::Preprocessed &pre);

    /** Initialize the four arrays from @p algo (or from @p warm).
     *  @throws via panic() on warm-start size mismatches. */
    void initializeState(const graph::DirectedGraph &g,
                         const algorithms::Algorithm &algo,
                         const WarmStart *warm);

    /** Allocate/initialize the flat-mode arrays from @p algo.
     *  @param double_buffer Also materialize vertex_values_next /
     *  vertex_active_next (BSP). */
    void initFlat(const graph::DirectedGraph &g,
                  const algorithms::Algorithm &algo, bool double_buffer);

    /** Set a slot's activation flag, maintaining the per-path active
     *  counter and the owning partition's path worklist. */
    void
    activateSlot(std::uint64_t slot)
    {
        if (slot_active[slot])
            return;
        slot_active[slot] = 1;
        const PathId q = sync_->pathOfSlot(slot);
        if (path_active_count[q]++ == 0 && !path_in_worklist[q]) {
            path_in_worklist[q] = 1;
            partition_worklist[sync_->partitionOfPath(q)].push_back(q);
        }
    }

    /** Clear a processed slot's activation flag (counter bookkeeping). */
    void
    deactivateSlot(std::uint64_t slot)
    {
        if (slot_active[slot]) {
            slot_active[slot] = 0;
            --path_active_count[sync_->pathOfSlot(slot)];
        }
    }

    /** Allocate and initialize every lane array for a K-wide run over
     *  @p algo (called after beginRun(), which resets lane_count to 0
     *  for scalar runs). */
    void initializeLanes(const graph::DirectedGraph &g,
                         const algorithms::LaneAlgorithm &algo,
                         const partition::Preprocessed &pre);

    /** Activate one lane of a slot. The union bookkeeping (slot flag,
     *  path counter, partition worklist) engages only on the slot's
     *  first active lane, preserving the slot_active invariant. */
    void
    activateSlotLane(std::uint64_t slot, unsigned lane)
    {
        const std::uint64_t bit = std::uint64_t{1} << lane;
        std::uint64_t &mask = slot_lane_mask[slot];
        if (mask & bit)
            return;
        if (mask == 0)
            activateSlot(slot);
        mask |= bit;
        ++lane_active_slots[static_cast<std::size_t>(
                                sync_->partitionOfSlot(slot)) *
                                lane_count +
                            lane];
    }

    /** Activate the lanes in @p lanes_mask of a slot (staleness /
     *  refresh paths: the scalar engine re-activates the whole slot
     *  there; the lane twin activates exactly the lanes whose master
     *  changed, so one lane's progress never schedules edge work for
     *  the other K-1 lanes). */
    void
    activateSlotLanesMask(std::uint64_t slot, std::uint64_t lanes_mask)
    {
        std::uint64_t &mask = slot_lane_mask[slot];
        std::uint64_t missing = lanes_mask & ~mask;
        if (!missing)
            return;
        if (mask == 0)
            activateSlot(slot);
        const std::size_t base = static_cast<std::size_t>(
                                     sync_->partitionOfSlot(slot)) *
                                 lane_count;
        mask |= missing;
        while (missing) {
            const unsigned l =
                static_cast<unsigned>(std::countr_zero(missing));
            missing &= missing - 1;
            ++lane_active_slots[base + l];
        }
    }

    /** Take and clear a slot's whole activation mask (the lane kernel's
     *  walk consume; @p p is the owning partition). Returns the taken
     *  mask (0 = slot was inactive). */
    std::uint64_t
    consumeSlotLanes(std::uint64_t slot, PartitionId p)
    {
        std::uint64_t &mask = slot_lane_mask[slot];
        const std::uint64_t taken = mask;
        if (!taken)
            return 0;
        mask = 0;
        slot_active[slot] = 0;
        --path_active_count[sync_->pathOfSlot(slot)];
        const std::size_t base =
            static_cast<std::size_t>(p) * lane_count;
        std::uint64_t m = taken;
        while (m) {
            const unsigned l =
                static_cast<unsigned>(std::countr_zero(m));
            m &= m - 1;
            --lane_active_slots[base + l];
        }
        return taken;
    }

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
     * active-slot counters must equal a full recount of slot flags,
     * every path with a nonzero counter must sit in its partition's
     * worklist, and the stale queues must match their pending flags
     * (lane runs: masks) — every queued vertex is mirrored by that
     * queue's partition, appears once, and is flagged, and every
     * flagged entry is queued. O(total slots) — debug/tests only.
     */
    bool bookkeepingConsistent(const partition::Preprocessed &pre) const;

    /** Host bytes of every per-job array this plane owns (value
     *  storage, activation/worklist state, checkpoint shadows, flat
     *  arrays) — excludes the shared layout and indexes. */
    std::size_t memoryBytes() const;

  private:
    const ReplicaSync *sync_ = nullptr;
};

} // namespace digraph::engine
