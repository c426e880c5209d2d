/**
 * @file
 * The single shared wave-body template behind every resolved kernel
 * (DESIGN.md §14). WaveKernels::compute<> is the compute phase of one
 * partition dispatch, parameterized on
 *
 *  - AlgoT   — a non-virtual kernel policy (specialized kernels: the
 *              per-edge math inlines, zero virtual calls) or
 *              algorithms::Algorithm (generic fallback);
 *  - M       — the execution mode, so the VertexAsync snapshot
 *              machinery and the PathAsync priority scheduling are
 *              compiled out of the modes that don't use them;
 *  - TraceOn — whether trace instrumentation exists at all in this
 *              instantiation.
 *
 * Dispatches run one at a time, so the body reads and writes the shared
 * masters directly: mirror pushes merge into V_val in generation order.
 *
 * One template serves both the specialized and the generic path, so the
 * two can never drift semantically — the fallback is literally the same
 * body with virtual calls. Instantiation happens only in
 * wave_kernel.cpp (the registry).
 */

#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "engine/digraph_engine.hpp"
#include "engine/dispatcher.hpp"
#include "engine/replica_sync_impl.hpp"

namespace digraph::engine {

/** Static entry points of the wave body (friend of DiGraphEngine). */
struct WaveKernels
{
    /** Words touched in global memory per processed edge
     *  (E_idx pair read, S_val read+write, E_val read/write). */
    static constexpr double kWordsPerEdge = 3.0;

    /** Compile-time policy flags with virtual-safe defaults: a type
     *  without the flag (algorithms::Algorithm) must conservatively
     *  load everything. */
    template <class T>
    static constexpr bool
    usesWeight()
    {
        if constexpr (requires { T::kUsesWeight; })
            return T::kUsesWeight;
        else
            return true;
    }

    template <class T>
    static constexpr bool
    usesOutDegree()
    {
        if constexpr (requires { T::kUsesOutDegree; })
            return T::kUsesOutDegree;
        else
            return true;
    }

    /**
     * The compute phase of one partition dispatch: local rounds until
     * the partition's worklist drains (or max_local_rounds), merging
     * mirror pushes into the masters as they happen.
     */
    template <class AlgoT, ExecutionMode M, bool TraceOn>
    static DispatchOutcome
    compute(DiGraphEngine &eng, PartitionId p, const AlgoT &algo)
    {
        DispatchOutcome out;
        out.partition = p;
        auto &plane = eng.plane_;
        // The conversion below consumes every stale-queue entry left so
        // far; this dispatch's own barrier or a later dispatch sets the
        // flag again.
        plane.partition_active[p] = 0;

        const std::uint32_t path_lo = eng.pre_.partition_offsets[p];
        const std::uint32_t path_hi = eng.pre_.partition_offsets[p + 1];
        const std::uint64_t slot_lo = plane.storage.pathOffset(path_lo);
        const std::uint64_t slot_hi = plane.storage.pathOffset(path_hi);
        const std::uint64_t partition_slots = slot_hi - slot_lo;

        // Stale-queue conversion (replaces a dispatch-start full
        // version scan): only vertices whose master version bumped
        // since this partition last absorbed them are examined.
        eng.sync_.convertStaleQueue(plane, p, slot_lo, slot_hi,
                                    out.stale_vertices);

        // Lazy partition pull: only paths with active work are streamed
        // from global memory, on their first activation within this
        // dispatch — the loaded-data-utilization advantage of hot/cold
        // path grouping.
        std::vector<std::uint8_t> pulled(path_hi - path_lo, 0);

        const unsigned lanes = eng.options_.platform.lanesPerSmx();
        constexpr bool vertex_async = (M == ExecutionMode::VertexAsync);
        const double per_edge_cycles =
            eng.options_.platform.cycles_per_edge +
            kWordsPerEdge *
                eng.options_.platform.cycles_per_global_access *
                (vertex_async ? 1.0
                              : eng.options_.platform.coalesced_factor);

        std::vector<PathId> active_paths;
        std::vector<std::uint32_t> active_counts;
        std::vector<std::uint64_t> pending; // VertexAsync deferred flags
        std::vector<Value> snapshot;
        std::vector<VertexId> changed;
        auto &worklist = plane.partition_worklist[p];

        std::size_t local_rounds = 0;
        for (;;) {
            // Collect paths with at least one active source slot from
            // the incremental worklist — O(active paths). Sorting
            // restores storage order (what the former full sweep
            // produced), which PathNoSched relies on.
            active_paths.clear();
            active_counts.clear();
            std::sort(worklist.begin(), worklist.end());
            std::size_t keep = 0;
            for (const PathId q : worklist) {
                if (plane.path_active_count[q] > 0) {
                    worklist[keep++] = q;
                    active_paths.push_back(q);
                    active_counts.push_back(plane.path_active_count[q]);
                } else {
                    plane.path_in_worklist[q] = 0;
                }
            }
            worklist.resize(keep);
            if (active_paths.empty())
                break;
            if (local_rounds >= eng.options_.max_local_rounds) {
                out.reactivate_self = true; // reschedule the remainder
                break;
            }
            ++local_rounds;

            // First-touch pull of newly active paths (the masters
            // already hold this dispatch's own merges).
            for (const PathId q : active_paths) {
                if (pulled[q - path_lo])
                    continue;
                pulled[q - path_lo] = 1;
                plane.storage.pullPath(q);
                const std::size_t bytes = plane.storage.pathBytes(q);
                out.loaded_vertices +=
                    plane.storage.pathOffset(q + 1) -
                    plane.storage.pathOffset(q);
                out.global_load_bytes += bytes;
            }

            // Path scheduling (Section 3.2.3): the warp scheduler runs
            // paths in Pri(p) order; DiGraph-w keeps storage order.
            if constexpr (M == ExecutionMode::PathAsync) {
                eng.sched_.orderByPriority(active_paths, active_counts);
                if constexpr (TraceOn) {
                    if (eng.trace_) {
                        eng.trace_->event(
                            metrics::TraceEventType::PathSchedule,
                            eng.trace_wave_, p, eng.trace_wave_sim_, 0.0,
                            active_paths.size(), active_paths.front());
                    }
                }
            }

            // Warp-scheduler capacity: one GPU thread processes one
            // path per round, so at most lanes x (stealable SMXs) paths
            // run; the rest keep their activation flags and wait.
            {
                const std::size_t capacity =
                    static_cast<std::size_t>(lanes) *
                    (eng.options_.work_stealing ? 2 : 1);
                if (active_paths.size() > capacity)
                    active_paths.resize(capacity);
            }

            // VertexAsync (DiGraph-t): snapshot source reads so that
            // new states cross one hop per round.
            if constexpr (vertex_async) {
                snapshot.assign(partition_slots, 0.0);
                for (std::uint64_t s = slot_lo; s < slot_hi; ++s)
                    snapshot[s - slot_lo] = plane.storage.sVal(s);
                pending.clear();
            }

            // Walk each active path sequentially (one simulated GPU
            // thread per path). Inactive positions are skip-scanned.
            std::vector<std::uint64_t> processed_edges(
                active_paths.size(), 0);
            for (std::size_t ap = 0; ap < active_paths.size(); ++ap) {
                const PathId q = active_paths[ap];
                auto view = plane.storage.path(q);
                const std::uint64_t base = plane.storage.pathOffset(q);
                const auto n_edges = view.length();
                for (std::size_t i = 0; i < n_edges; ++i) {
                    const std::uint64_t src_slot = base + i;
                    const VertexId src_v = view.vertex_ids[i];
                    if (!plane.slot_active[src_slot])
                        continue;
                    plane.slot_active[src_slot] = 0;
                    --plane.path_active_count[q];
                    plane.slot_seen_version[src_slot] =
                        plane.master_version[src_v];
                    Value src_val;
                    if constexpr (vertex_async)
                        src_val = snapshot[src_slot - slot_lo];
                    else
                        src_val = view.mirror_states[i];
                    const EdgeId eid = view.edge_ids[i];
                    // Dead argument loads compile out per the policy's
                    // flags (a virtual AlgoT loads everything).
                    Value weight = 0.0;
                    if constexpr (usesWeight<AlgoT>())
                        weight = eng.g_.edgeWeight(eid);
                    std::uint32_t out_deg = 0;
                    if constexpr (usesOutDegree<AlgoT>())
                        out_deg = static_cast<std::uint32_t>(
                            eng.g_.outDegree(src_v));
                    const bool changed_dst = algo.processEdge(
                        src_val, view.edge_states[i], eid, weight,
                        out_deg, view.mirror_states[i + 1]);
                    ++out.edge_processings;
                    ++processed_edges[ap];
                    // The destination mirror may have been written even
                    // on a sub-threshold update — it joins the dirty
                    // worklist the mirror-push phase examines.
                    plane.partition_dirty[p].mark(base + i + 1);
                    if (changed_dst) {
                        ++out.vertex_updates;
                        const std::uint64_t dst_slot = base + i + 1;
                        if (eng.sync_.isSrcSlot(dst_slot)) {
                            if constexpr (vertex_async)
                                pending.push_back(dst_slot);
                            else
                                plane.activateSlot(dst_slot);
                        }
                    }
                }
            }

            if constexpr (vertex_async) {
                for (const std::uint64_t slot : pending)
                    plane.activateSlot(slot);
            }

            // --- mirror -> master sync (batched, Section 3.2.2) ---
            // Phase 1: every dirty mirror merges into its master.
            changed.clear();
            const PushStats stats = eng.sync_.pushDirtyMirrorsT<AlgoT>(
                plane, p, algo, eng.g_, eng.options_.use_proxy,
                static_cast<std::uint32_t>(
                    eng.options_.proxy_indegree_threshold),
                eng.ft_enabled_, changed);
            out.push_count += stats.proxy_pushes + stats.atomic_pushes;
            if constexpr (TraceOn) {
                if (eng.trace_ &&
                    stats.proxy_pushes + stats.atomic_pushes > 0) {
                    eng.trace_->event(
                        metrics::TraceEventType::MirrorPush,
                        eng.trace_wave_, p, eng.trace_wave_sim_, 0.0,
                        stats.proxy_pushes + stats.atomic_pushes,
                        local_rounds);
                }
            }
            out.changed.insert(out.changed.end(), changed.begin(),
                               changed.end());

            // Phase 2: refresh and re-activate this partition's own
            // mirrors of each changed vertex (the proxy-vertex effect).
            eng.sync_.refreshLocalMirrorsT<AlgoT>(plane, algo, slot_lo,
                                                  slot_hi, changed);

            // Simulated cost of this round (recorded; charged to real
            // SMX clocks at the dispatch barrier).
            out.round_group_cycles.push_back(eng.sched_.roundCost(
                eng.options_, per_edge_cycles, active_paths,
                processed_edges, stats.proxy_pushes,
                stats.atomic_pushes));
        }
        out.local_rounds = local_rounds;
        std::sort(out.changed.begin(), out.changed.end());
        out.changed.erase(
            std::unique(out.changed.begin(), out.changed.end()),
            out.changed.end());
        return out;
    }

    /**
     * Lane-mode compute phase (batched multi-source runs): the scalar
     * body above with a Lanes dimension — every slot carries K value
     * lanes (ValuePlane stripe arrays), activation is a per-slot lane
     * bitset whose union drives the unchanged path/worklist machinery,
     * and one edge traversal processes all active lanes of the edge.
     *
     * @tparam LanesCT Compile-time lane count (stripe loops unroll);
     *         0 = read plane.lane_count at run time. The registry
     *         instantiates 0 and the bench sweet spot 8.
     *
     * Counters (edge_processings, pushes) are per (slot, lane), but
     * roundCost charges each processed edge STRIPE one full edge decode
     * with additional active lanes priced as predicated vector lanes
     * (their coalesced stripe words only) — at K = 1 both reduce to the
     * scalar accounting bit-identically, while path pulls, worklist
     * mechanics, scheduling, and dispatch/transport overheads are paid
     * once per slot regardless of K (the batching win
     * BENCH_multisource.json measures).
     */
    template <class AlgoT, ExecutionMode M, bool TraceOn, unsigned LanesCT>
    static DispatchOutcome
    computeLanes(DiGraphEngine &eng, PartitionId p, const AlgoT &algo)
    {
        static_assert(M != ExecutionMode::VertexAsync,
                      "lane runs support the path modes only "
                      "(gated at resolution)");
        DispatchOutcome out;
        out.partition = p;
        auto &plane = eng.plane_;
        const unsigned K = LanesCT ? LanesCT : plane.lane_count;
        plane.partition_active[p] = 0;

        const std::uint32_t path_lo = eng.pre_.partition_offsets[p];
        const std::uint32_t path_hi = eng.pre_.partition_offsets[p + 1];
        const std::uint64_t slot_lo = plane.storage.pathOffset(path_lo);
        const std::uint64_t slot_hi = plane.storage.pathOffset(path_hi);

        eng.sync_.convertStaleQueueLanes(plane, p, slot_lo, slot_hi,
                                         out.stale_vertices,
                                         out.stale_lanes);

        std::vector<std::uint8_t> pulled(path_hi - path_lo, 0);

        const unsigned lanes_per_smx =
            eng.options_.platform.lanesPerSmx();
        const double per_edge_cycles =
            eng.options_.platform.cycles_per_edge +
            kWordsPerEdge *
                eng.options_.platform.cycles_per_global_access *
                eng.options_.platform.coalesced_factor;
        // Incremental cost of one additional active lane of an edge
        // stripe: the lane rides the leader's instruction stream as a
        // predicated vector lane (edge decode and issue slots already
        // paid), adding only its coalesced S_val/E_val stripe words.
        const double per_lane_cycles =
            kWordsPerEdge *
            eng.options_.platform.cycles_per_global_access *
            eng.options_.platform.coalesced_factor;

        // K-wide partition-load pull of one path: every slot's stripe is
        // filled from the lane master (the scalar pullPath with a stripe
        // copy instead of a scalar store).
        const auto pullPathLanes = [&](PathId q) {
            const std::uint64_t lo = plane.storage.pathOffset(q);
            const std::uint64_t hi = plane.storage.pathOffset(q + 1);
            for (std::uint64_t slot = lo; slot < hi; ++slot) {
                if (slot + kPrefetchDistance < hi) {
                    DIGRAPH_PREFETCH(
                        &plane.lane_v[static_cast<std::size_t>(
                                          plane.storage.vertexAt(
                                              slot + kPrefetchDistance)) *
                                      K]);
                }
                const VertexId v = plane.storage.vertexAt(slot);
                const Value *master =
                    &plane.lane_v[static_cast<std::size_t>(v) * K];
                Value *mirror = &plane.lane_s[slot * K];
                Value *loaded = &plane.lane_loaded[slot * K];
                for (unsigned l = 0; l < K; ++l) {
                    mirror[l] = master[l];
                    loaded[l] = master[l];
                }
            }
        };

        std::vector<PathId> active_paths;
        std::vector<std::uint32_t> active_counts;
        std::vector<VertexId> changed;
        std::vector<std::uint64_t> changed_lanes;
        auto &worklist = plane.partition_worklist[p];

        std::size_t local_rounds = 0;
        for (;;) {
            active_paths.clear();
            active_counts.clear();
            std::sort(worklist.begin(), worklist.end());
            std::size_t keep = 0;
            for (const PathId q : worklist) {
                if (plane.path_active_count[q] > 0) {
                    worklist[keep++] = q;
                    active_paths.push_back(q);
                    active_counts.push_back(plane.path_active_count[q]);
                } else {
                    plane.path_in_worklist[q] = 0;
                }
            }
            worklist.resize(keep);
            if (active_paths.empty())
                break;
            if (local_rounds >= eng.options_.max_local_rounds) {
                out.reactivate_self = true;
                break;
            }
            ++local_rounds;

            for (const PathId q : active_paths) {
                if (pulled[q - path_lo])
                    continue;
                pulled[q - path_lo] = 1;
                pullPathLanes(q);
                const std::uint64_t slots =
                    plane.storage.pathOffset(q + 1) -
                    plane.storage.pathOffset(q);
                out.loaded_vertices += slots;
                // Scalar path bytes plus the K-1 extra S_val/E_val lane
                // slices (E_idx and PTable are lane-invariant).
                out.global_load_bytes +=
                    plane.storage.pathBytes(q) +
                    static_cast<std::size_t>(K - 1) *
                        (slots + (slots - 1)) * sizeof(Value);
            }

            if constexpr (M == ExecutionMode::PathAsync) {
                eng.sched_.orderByPriority(active_paths, active_counts);
                if constexpr (TraceOn) {
                    if (eng.trace_) {
                        eng.trace_->event(
                            metrics::TraceEventType::PathSchedule,
                            eng.trace_wave_, p, eng.trace_wave_sim_, 0.0,
                            active_paths.size(), active_paths.front());
                    }
                }
            }

            {
                const std::size_t capacity =
                    static_cast<std::size_t>(lanes_per_smx) *
                    (eng.options_.work_stealing ? 2 : 1);
                if (active_paths.size() > capacity)
                    active_paths.resize(capacity);
            }

            std::vector<std::uint64_t> processed_edges(
                active_paths.size(), 0);
            std::vector<std::uint64_t> extra_lane_edges(
                active_paths.size(), 0);
            for (std::size_t ap = 0; ap < active_paths.size(); ++ap) {
                const PathId q = active_paths[ap];
                const std::uint64_t base = plane.storage.pathOffset(q);
                const std::uint64_t n_edges =
                    plane.storage.pathOffset(q + 1) - base - 1;
                // Path q's edge i sits at E_val index base - q + i.
                const std::uint64_t e_base = base - q;
                for (std::uint64_t i = 0; i < n_edges; ++i) {
                    const std::uint64_t src_slot = base + i;
                    const std::uint64_t mask =
                        plane.consumeSlotLanes(src_slot, p);
                    if (!mask)
                        continue;
                    // One edge decode per stripe; lanes beyond the
                    // first are costed as predicated vector lanes.
                    ++processed_edges[ap];
                    extra_lane_edges[ap] += static_cast<std::uint64_t>(
                        std::popcount(mask) - 1);
                    const VertexId src_v =
                        plane.storage.vertexAt(src_slot);
                    plane.slot_seen_version[src_slot] =
                        plane.master_version[src_v];
                    const EdgeId eid =
                        plane.storage.edgeIdAt(e_base + i);
                    Value weight = 0.0;
                    if constexpr (usesWeight<AlgoT>())
                        weight = eng.g_.edgeWeight(eid);
                    std::uint32_t out_deg = 0;
                    if constexpr (usesOutDegree<AlgoT>())
                        out_deg = static_cast<std::uint32_t>(
                            eng.g_.outDegree(src_v));
                    const Value *src_vals =
                        &plane.lane_s[src_slot * K];
                    Value *edge_states =
                        &plane.lane_e[(e_base + i) * K];
                    Value *dst_vals =
                        &plane.lane_s[(src_slot + 1) * K];
                    std::uint64_t dst_changed = 0;
                    std::uint64_t m = mask;
                    while (m) {
                        const unsigned l = static_cast<unsigned>(
                            std::countr_zero(m));
                        const std::uint64_t bit = m & -m;
                        m &= m - 1;
                        if (algo.processEdge(src_vals[l],
                                             edge_states[l], eid, weight,
                                             out_deg, dst_vals[l])) {
                            dst_changed |= bit;
                            ++out.vertex_updates;
                        }
                        ++out.edge_processings;
                    }
                    plane.partition_dirty[p].mark(src_slot + 1);
                    if (dst_changed &&
                        eng.sync_.isSrcSlot(src_slot + 1)) {
                        while (dst_changed) {
                            const unsigned l = static_cast<unsigned>(
                                std::countr_zero(dst_changed));
                            dst_changed &= dst_changed - 1;
                            plane.activateSlotLane(src_slot + 1, l);
                        }
                    }
                }
            }

            changed.clear();
            changed_lanes.clear();
            const PushStats stats = eng.sync_.pushDirtyMirrorsLanesT<AlgoT>(
                plane, p, algo, eng.g_, eng.options_.use_proxy,
                static_cast<std::uint32_t>(
                    eng.options_.proxy_indegree_threshold),
                changed, changed_lanes);
            out.push_count += stats.proxy_pushes + stats.atomic_pushes;
            if constexpr (TraceOn) {
                if (eng.trace_ &&
                    stats.proxy_pushes + stats.atomic_pushes > 0) {
                    eng.trace_->event(
                        metrics::TraceEventType::MirrorPush,
                        eng.trace_wave_, p, eng.trace_wave_sim_, 0.0,
                        stats.proxy_pushes + stats.atomic_pushes,
                        local_rounds);
                }
            }
            out.changed.insert(out.changed.end(), changed.begin(),
                               changed.end());
            out.changed_lanes.insert(out.changed_lanes.end(),
                                     changed_lanes.begin(),
                                     changed_lanes.end());

            eng.sync_.refreshLocalMirrorsLanesT<AlgoT>(
                plane, algo, slot_lo, slot_hi, changed, changed_lanes);

            out.round_group_cycles.push_back(eng.sched_.roundCost(
                eng.options_, per_edge_cycles, active_paths,
                processed_edges, stats.proxy_pushes,
                stats.atomic_pushes, &extra_lane_edges,
                per_lane_cycles));
        }
        out.local_rounds = local_rounds;
        sortMergeChangedLanes(out.changed, out.changed_lanes);
        return out;
    }
};

} // namespace digraph::engine
