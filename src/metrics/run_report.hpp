/**
 * @file
 * The uniform run report every engine produces — the raw material for all
 * of the paper's figures (updates, traffic, utilization, scalability).
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace digraph::metrics {

/** Metrics of one (system, algorithm, dataset, #GPUs) run. */
struct RunReport
{
    /** System name ("digraph", "digraph-t", "digraph-w", "bsp",
     *  "async"). */
    std::string system;
    /** Algorithm name. */
    std::string algorithm;
    /** Dataset name. */
    std::string dataset;
    /** Number of simulated GPUs. */
    unsigned num_gpus = 0;

    /** Final vertex states (master values). Lane runs copy lane 0 here
     *  so scalar consumers keep working. */
    std::vector<Value> final_state;

    // --- batched multi-source (lane) runs ---
    /** Value lanes K of the run (1 = scalar). */
    std::uint32_t value_lanes = 1;
    /** Per-lane final vertex states (K vectors of |V| values); empty for
     *  scalar runs. */
    std::vector<std::vector<Value>> lane_states;
    /** Per lane, the last wave at whose end the lane still had active
     *  slots — the wave after which it converged. Empty for scalar
     *  runs. */
    std::vector<std::uint64_t> lane_converged_wave;

    // --- work counts ---
    /** processEdge invocations. */
    std::uint64_t edge_processings = 0;
    /** Vertex state updates (destination changed). */
    std::uint64_t vertex_updates = 0;
    /** Global rounds / dispatch waves until convergence. */
    std::uint64_t rounds = 0;
    /** Partition dispatches (a partition processed r times counts r). */
    std::uint64_t partition_processings = 0;
    /** Number of partitions. */
    std::uint64_t num_partitions = 0;

    // --- traffic ---
    /** Host <-> device transfer bytes. */
    std::uint64_t host_transfer_bytes = 0;
    /** Device <-> device (ring) transfer bytes. */
    std::uint64_t ring_transfer_bytes = 0;
    /** Bytes loaded from device global memory into cores. */
    std::uint64_t global_load_bytes = 0;
    /** Vertex slots loaded into cores. */
    std::uint64_t loaded_vertices = 0;
    /** Loaded vertex slots that performed useful work. */
    std::uint64_t used_vertices = 0;

    // --- fault tolerance (all zero when no FaultPlan was active) ---
    /** Discrete faults injected (device losses + SMX stalls). */
    std::uint64_t faults_injected = 0;
    /** Dropped transfer attempts that were retried. */
    std::uint64_t transfer_retries = 0;
    /** Merge-barrier checkpoints taken. */
    std::uint64_t checkpoints = 0;
    /** Device-loss recoveries (checkpoint restore + redistribute). */
    std::uint64_t recoveries = 0;
    /** Durable-store versions this run committed (checkpoint
     *  flush-through; see EngineOptions::store). */
    std::uint64_t store_commits = 0;
    /** Checkpoint flushes the store rejected (I/O failure); their dirty
     *  partitions are carried into the next flush and device-loss
     *  recovery ignores the (stale) disk copy until a flush lands. */
    std::uint64_t store_commit_fails = 0;
    /** Durable-store recoveries feeding this run (device-loss restarts
     *  reloaded from disk). */
    std::uint64_t store_recovers = 0;

    // --- live-graph epochs (update jobs / evolving ingestion only) ---
    /** Substrate epochs this run derived (update jobs: 1 when the batch
     *  added edges, 0 when it was fully deduplicated). */
    std::uint64_t epoch_creates = 0;
    /** Epochs committed as the session's newest (== epoch_creates unless
     *  the durable-store flush failed). */
    std::uint64_t epoch_commits = 0;
    /** Superseded epochs whose last pinned job drained during this
     *  run. */
    std::uint64_t epoch_retires = 0;

    // --- time ---
    /** Simulated makespan, cycles (primary "time" metric). */
    double sim_cycles = 0.0;
    /** Host wall-clock of the processing phase, seconds. */
    double wall_seconds = 0.0;
    /** Host wall-clock spent in the compute phase of the dispatches
     *  (partition-local path processing, including the in-place master
     *  merges), seconds. */
    double wall_compute_seconds = 0.0;
    /** Host wall-clock spent in the dispatch barriers (platform cost
     *  replay, version bumps, consumer wake), seconds. */
    double wall_barrier_seconds = 0.0;
    /** Always 0: masters merge in place during compute, so no engine
     *  has a separate merge phase. Kept for readers of the field. */
    double wall_merge_seconds = 0.0;
    /** Host wall-clock spent selecting dispatch batches (readiness and
     *  priority scans), seconds. */
    double wall_schedule_seconds = 0.0;
    /** Wave-kernel registry row the run resolved to ("pagerank",
     *  "sssp", ...; "<tag>:lanes" for lane runs). Empty for non-wave
     *  engines (baselines). */
    std::string kernel;
    /** Dispatch waves executed (a wave batches concurrent dispatches). */
    std::uint64_t waves = 0;
    /** Preprocessing wall-clock, seconds. */
    double preprocess_seconds = 0.0;
    /** Mean SMX utilization in [0,1]. */
    double utilization = 0.0;
    /** Simulated cycles spent on transfers (serialized view). */
    double comm_cycles = 0.0;

    /** Total transfer traffic + global loads (the paper's Fig 12
     *  "traffic volume"). */
    std::uint64_t
    trafficVolume() const
    {
        return host_transfer_bytes + ring_transfer_bytes +
               global_load_bytes;
    }

    /** Used/loaded vertex ratio (Fig 13); 0 when nothing was loaded. */
    double
    loadedDataUtilization() const
    {
        return loaded_vertices
                   ? static_cast<double>(used_vertices) /
                         static_cast<double>(loaded_vertices)
                   : 0.0;
    }
};

} // namespace digraph::metrics
