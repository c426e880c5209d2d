/**
 * @file
 * The single shared wave-body template behind every resolved kernel
 * (DESIGN.md §14). WaveKernels::compute<> is the compute phase of one
 * partition dispatch, parameterized on
 *
 *  - AlgoT       — a non-virtual kernel policy (the per-edge math
 *                  inlines, zero virtual calls; see PolicyAlgorithm for
 *                  the members a policy provides);
 *  - VertexAsync — DiGraph-t's snapshot edge loop, compiled out of the
 *                  path-mode body. The path modes share one body and
 *                  differ only in which active paths a round runs,
 *                  tested per round;
 *  - LanesCT     — the value lanes K per entry (DESIGN.md §17): 1 for
 *                  every 1-lane run, 0 = read K from the ValuePlane at
 *                  run time (every K > 1). At 1 the stripe loops, lane
 *                  masks and per-lane counters compile away.
 *
 * The two compute-phase trace sites (path_schedule, mirror_push) test
 * the engine's trace sink once per round.
 *
 * Dispatches run one at a time, so the body reads and writes the shared
 * masters directly: mirror pushes merge into V_val in generation order.
 *
 * The round bookkeeping neither sorts nor searches slots (DESIGN.md
 * §6): a round collects its active paths by scanning the partition's
 * path range, lets Pri(p) select which of them run only when more are
 * active than the warp scheduler holds, runs them in ascending id (so
 * the dirty slots come out sorted), and dedupes changed masters with
 * per-vertex stamps. The dispatch starts by pulling its stale mirrors:
 * it walks its own mirror entries and absorbs those whose master
 * version moved, reading their slot slices directly. Changed masters
 * travel as the partition's mirror entries, so the local refresh reads
 * their slices directly too.
 *
 * Instantiation happens only in wave_kernel.cpp (the registry).
 */

#pragma once

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

    /**
     * The compute phase of one partition dispatch: local rounds until
     * no path of the partition has an active slot (or
     * max_local_rounds), merging mirror pushes into the masters as they
     * happen.
     *
     * Every slot carries K value lanes and one edge traversal processes
     * all active lanes of the edge. Counters (edge_processings,
     * vertex_updates, pushes) are per (slot, lane), but roundCost
     * charges each processed edge stripe one full edge decode, with
     * additional active lanes priced as predicated vector lanes (their
     * coalesced stripe words only); path pulls, worklist mechanics,
     * scheduling and dispatch/transport overheads are paid once per
     * slot regardless of K (the batching win BENCH_multisource.json
     * measures).
     */
    template <class AlgoT, bool VertexAsync, unsigned LanesCT>
    static DispatchOutcome
    compute(DiGraphEngine &eng, PartitionId p, const AlgoT &algo)
    {
        static_assert(!VertexAsync || LanesCT == 1,
                      "VertexAsync runs one lane (lane runs are "
                      "rejected under it)");
        DispatchOutcome out;
        out.partition = p;
        auto &plane = eng.plane_;
        const std::size_t K = plane.width<LanesCT>();
        // The absorption below takes every master change published so
        // far; this dispatch's own barrier or a later dispatch's wake
        // sets the flag again.
        plane.partition_active[p] = 0;

        const std::uint32_t path_lo = eng.pre_.partition_offsets[p];
        const std::uint32_t path_hi = eng.pre_.partition_offsets[p + 1];
        const std::uint64_t slot_lo = plane.storage.pathOffset(path_lo);
        const std::uint64_t slot_hi = plane.storage.pathOffset(path_hi);

        // Pull the mirrors whose master version moved since this
        // partition last absorbed it.
        eng.sync_.absorbStaleMirrors<LanesCT>(plane, p, out.stale_vertices,
                                              out.stale_lanes);

        // Lazy partition pull: only paths with active work are streamed
        // from global memory, on their first activation within this
        // dispatch — the loaded-data-utilization advantage of hot/cold
        // path grouping.
        std::vector<std::uint8_t> pulled(path_hi - path_lo, 0);

        const unsigned lanes = eng.options_.platform.lanesPerSmx();
        const double per_edge_cycles =
            eng.options_.platform.cycles_per_edge +
            kWordsPerEdge *
                eng.options_.platform.cycles_per_global_access *
                (VertexAsync ? 1.0
                             : eng.options_.platform.coalesced_factor);
        // Incremental cost of one additional active lane of an edge
        // stripe: the lane rides the leader's instruction stream as a
        // predicated vector lane (edge decode and issue slots already
        // paid), adding only its coalesced S_val/E_val stripe words.
        const double per_lane_cycles =
            kWordsPerEdge *
            eng.options_.platform.cycles_per_global_access *
            eng.options_.platform.coalesced_factor;

        const VertexId *const e_idx = plane.storage.eIdx().data();
        const EdgeId *const edge_ids =
            plane.storage.layout().edgeIds().data();
        Value *const s_val = plane.storage.sVals().data();
        Value *const e_val = plane.storage.eVals().data();

        std::vector<PathId> active_paths;
        std::vector<std::uint64_t> processed_edges;
        std::vector<std::uint64_t> extra_lane_edges;
        std::vector<std::uint64_t> pending; // VertexAsync deferred flags
        std::vector<Value> snapshot;
        std::vector<MirrorEntryId> changed;
        std::vector<std::uint64_t> changed_lanes;

        std::size_t local_rounds = 0;
        for (;;) {
            // Collect paths with at least one active source slot by
            // scanning the partition's path range: storage (id) order,
            // which PathNoSched relies on.
            active_paths.clear();
            for (PathId q = path_lo; q < path_hi; ++q) {
                if (plane.path_active_count[q] > 0)
                    active_paths.push_back(q);
            }
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
                plane.storage.pullPath<LanesCT>(q);
                const std::uint64_t slots =
                    plane.storage.pathOffset(q + 1) -
                    plane.storage.pathOffset(q);
                out.loaded_vertices += slots;
                // Path bytes plus the K-1 extra S_val/E_val lane slices
                // (E_idx and PTable are lane-invariant).
                out.global_load_bytes +=
                    plane.storage.pathBytes(q) +
                    (K - 1) * (slots + (slots - 1)) * sizeof(Value);
            }

            // Warp-scheduler capacity: one GPU thread processes one
            // path per round, so at most lanes x (stealable SMXs) paths
            // run; the rest keep their activation flags and wait. Path
            // scheduling (Section 3.2.3): PathAsync picks the capacity's
            // highest-Pri(p) paths, the other modes the first in
            // storage order. The selected paths run in id order.
            {
                const std::size_t capacity =
                    static_cast<std::size_t>(lanes) *
                    (eng.options_.work_stealing ? 2 : 1);
                const std::size_t n_active = active_paths.size();
                if (eng.options_.mode == ExecutionMode::PathAsync) {
                    eng.sched_.selectByPriority(
                        active_paths, plane.path_active_count, capacity);
                    if (eng.trace_) {
                        eng.trace_->event(
                            metrics::TraceEventType::PathSchedule,
                            eng.trace_wave_, p, eng.trace_wave_sim_, 0.0,
                            n_active,
                            eng.sched_.topPriorityPath(
                                active_paths, plane.path_active_count));
                    }
                } else if (n_active > capacity) {
                    active_paths.resize(capacity);
                }
            }

            // VertexAsync (DiGraph-t): snapshot source reads so that
            // new states cross one hop per round.
            if constexpr (VertexAsync) {
                snapshot.assign(s_val + slot_lo, s_val + slot_hi);
                pending.clear();
            }

            // Walk each active path sequentially (one simulated GPU
            // thread per path). Inactive positions are skip-scanned.
            processed_edges.assign(active_paths.size(), 0);
            extra_lane_edges.assign(active_paths.size(), 0);
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
                        plane.consumeSlot<LanesCT>(src_slot, q, p);
                    if (!mask)
                        continue;
                    // One edge decode per stripe; lanes beyond the
                    // first are costed as predicated vector lanes.
                    ++processed_edges[ap];
                    if constexpr (LanesCT != 1) {
                        extra_lane_edges[ap] += static_cast<std::uint64_t>(
                            std::popcount(mask) - 1);
                    }
                    const VertexId src_v = e_idx[src_slot];
                    const EdgeId eid = edge_ids[e_base + i];
                    // Dead argument loads compile out per the policy's
                    // flags.
                    Value weight = 0.0;
                    if constexpr (AlgoT::kUsesWeight)
                        weight = eng.g_.edgeWeight(eid);
                    std::uint32_t out_deg = 0;
                    if constexpr (AlgoT::kUsesOutDegree)
                        out_deg = static_cast<std::uint32_t>(
                            eng.g_.outDegree(src_v));
                    const Value *const src_vals = &s_val[src_slot * K];
                    Value *const edge_states = &e_val[(e_base + i) * K];
                    Value *const dst_vals = &s_val[(src_slot + 1) * K];
                    std::uint64_t dst_changed = 0;
                    forEachLane<LanesCT>(mask, [&](unsigned l) {
                        Value src_val;
                        if constexpr (VertexAsync)
                            src_val = snapshot[src_slot - slot_lo];
                        else
                            src_val = src_vals[l];
                        if (algo.processEdge(src_val, edge_states[l], eid,
                                             weight, out_deg,
                                             dst_vals[l])) {
                            dst_changed |= std::uint64_t{1} << l;
                            ++out.vertex_updates;
                        }
                        ++out.edge_processings;
                    });
                    // The destination mirror may have been written even
                    // on a sub-threshold update — it joins the dirty
                    // worklist the mirror-push phase examines.
                    plane.partition_dirty[p].mark(src_slot + 1);
                    if (dst_changed && eng.sync_.isSrcSlot(src_slot + 1)) {
                        if constexpr (VertexAsync)
                            pending.push_back(src_slot + 1);
                        else
                            plane.activateSlot<LanesCT>(
                                src_slot + 1, dst_changed);
                    }
                }
            }

            if constexpr (VertexAsync) {
                for (const std::uint64_t slot : pending)
                    plane.activateSlot<LanesCT>(slot, 1);
            }

            // --- mirror -> master sync (batched, Section 3.2.2) ---
            // Phase 1: every dirty mirror merges into its master.
            changed.clear();
            changed_lanes.clear();
            const PushStats stats =
                eng.sync_.pushDirtyMirrorsT<AlgoT, LanesCT>(
                    plane, p, algo, eng.g_, eng.options_.use_proxy,
                    static_cast<std::uint32_t>(
                        eng.options_.proxy_indegree_threshold),
                    eng.ft_enabled_, changed, changed_lanes);
            out.push_count += stats.proxy_pushes + stats.atomic_pushes;
            if (eng.trace_ &&
                stats.proxy_pushes + stats.atomic_pushes > 0) {
                eng.trace_->event(metrics::TraceEventType::MirrorPush,
                                  eng.trace_wave_, p, eng.trace_wave_sim_,
                                  0.0,
                                  stats.proxy_pushes + stats.atomic_pushes,
                                  local_rounds);
            }
            out.changed.insert(out.changed.end(), changed.begin(),
                               changed.end());
            out.changed_lanes.insert(out.changed_lanes.end(),
                                     changed_lanes.begin(),
                                     changed_lanes.end());

            // Phase 2: refresh and re-activate this partition's own
            // mirrors of each changed vertex (the proxy-vertex effect).
            eng.sync_.refreshLocalMirrorsT<AlgoT, LanesCT>(
                plane, algo, changed, changed_lanes);

            // Simulated cost of this round (recorded; charged to real
            // SMX clocks at the dispatch barrier).
            out.round_group_cycles.push_back(eng.sched_.roundCost(
                eng.options_, per_edge_cycles, active_paths,
                processed_edges, stats.proxy_pushes, stats.atomic_pushes,
                extra_lane_edges, per_lane_cycles));
        }
        out.local_rounds = local_rounds;
        // A master may change in several rounds of the dispatch.
        out.changed_stamp =
            plane.dedupeChanged<LanesCT>(out.changed, out.changed_lanes);
        return out;
    }
};

} // namespace digraph::engine
