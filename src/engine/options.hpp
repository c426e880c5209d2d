/**
 * @file
 * DiGraph engine configuration, including the execution-mode switches that
 * realize the paper's ablation systems (DiGraph-t, DiGraph-w).
 */

#pragma once

#include <cstddef>
#include <string>

#include "gpusim/config.hpp"
#include "gpusim/fault.hpp"
#include "partition/preprocess.hpp"

namespace digraph::metrics {
class TraceSink;
} // namespace digraph::metrics

namespace digraph::storage {
class DurableStore;
} // namespace digraph::storage

namespace digraph::engine {

class WaveControl;

/** Execution model selector. */
enum class ExecutionMode {
    /** The full system: path-based async execution + SMX path
     *  scheduling (the paper's DiGraph). */
    PathAsync,
    /** Path-based async execution without the priority path scheduling —
     *  paths run in storage order (the paper's DiGraph-w). */
    PathNoSched,
    /** Traditional vertex-centric asynchronous execution on the same
     *  infrastructure: source states are read from a round-start snapshot,
     *  so a new state only reaches already-processed vertices in the next
     *  round (the paper's DiGraph-t). */
    VertexAsync,
};

/** Display name for a mode ("digraph", "digraph-w", "digraph-t"). */
std::string modeName(ExecutionMode mode);

/** All engine knobs. */
struct EngineOptions
{
    ExecutionMode mode = ExecutionMode::PathAsync;
    /** Simulated platform. */
    gpusim::PlatformConfig platform;
    /** CPU preprocessing options (partition budget is derived from the
     *  platform when auto_partition_budget is set). */
    partition::PreprocessOptions preprocess;
    /** Derive edges_per_partition from the platform geometry. */
    bool auto_partition_budget = true;
    /** Steal suspended paths to free SMXs (Section 3.2.2). */
    bool work_stealing = true;
    /** Shared-memory proxy vertices for high in-degree masters. */
    bool use_proxy = true;
    /** In-degree at which a vertex gets a proxy. */
    std::size_t proxy_indegree_threshold = 8;
    /** Dependency-aware (DAG topological) dispatching; when off,
     *  partitions are dispatched in plain worklist order (the paper notes
     *  this is the only infeasible piece on fully bidirectional graphs). */
    bool dag_dispatch = true;
    /** Cap on partition-local iteration rounds per dispatch. */
    std::size_t max_local_rounds = 64;
    /** Activate every vertex initially (Fig 2 methodology) regardless of
     *  the algorithm's initActive(). */
    bool force_all_active = false;
    /** Structured trace sink; nullptr disables tracing (every
     *  instrumentation point reduces to one null check — see
     *  src/metrics/trace.hpp). Tracing never changes results. */
    metrics::TraceSink *trace = nullptr;
    /** Wave-boundary scheduling hook (see engine/wave_control.hpp):
     *  consulted after every wave's last barrier; may block the run
     *  (cooperative preemption). nullptr (default) runs to
     *  convergence uninterrupted. Yielding never changes results. */
    WaveControl *wave_control = nullptr;

    // --- fault tolerance (see DESIGN.md "Fault model and recovery") ---
    /** Deterministic fault-injection plan. An empty plan (default)
     *  disables the whole fault-tolerance layer: no checkpoint copies,
     *  no retry coins, zero overhead. */
    gpusim::FaultPlan faults;
    /** Waves between merge-barrier checkpoints while faults are
     *  enabled. Must be >= 1; larger intervals checkpoint less often
     *  but lose more work per recovery. */
    std::size_t checkpoint_interval = 4;
    /** Dropped-transfer retries before the run hard-aborts. */
    std::size_t max_transfer_retries = 6;
    /** Backoff after the first dropped attempt, simulated cycles; each
     *  further retry doubles it. */
    double transfer_backoff_cycles = 200.0;
    /** Device-loss recoveries tolerated before the run hard-aborts. */
    std::size_t max_recoveries = 4;
    /** Run the post-run invariant checker (convergence residual,
     *  master/mirror coherence, activation recount) inside run() and
     *  panic on violation. Debug/CI tool; off by default. */
    bool verify_invariants = false;

    // --- durable store (DESIGN.md §16) ---
    /** When set (and store_parent names a committed topology version of
     *  this substrate), merge-barrier checkpoints are also flushed
     *  through the durable store as incremental value commits, and
     *  device-loss rollback reloads the checkpoint from disk — a
     *  crashed process can restart from the last flushed version.
     *  Attaching a store enables the checkpoint machinery even with an
     *  empty fault plan. Never changes results (the disk copy is the
     *  in-memory shadow, byte for byte). */
    storage::DurableStore *store = nullptr;
    /** Durable-store version the first value flush chains from (the
     *  substrate's topology version, from EngineSubstrate::saveTo).
     *  0 disables flushing even when store is set. */
    std::uint64_t store_parent = 0;

    /**
     * Reject nonsensical knob combinations before they become UB deep
     * in preprocessing or the cost model.
     * @return a diagnostic, or "" when the options are usable.
     */
    std::string validate() const;

    /**
     * Resolve auto_partition_budget against a graph with @p num_edges
     * edges: derives preprocess.partition.edges_per_partition from the
     * platform geometry (no-op when auto_partition_budget is off). The
     * budget is independent of the device count so scaling studies
     * compare identical partitionings. The engine constructor and the
     * evolving engine share this, so full and incremental preprocessing
     * cut partitions with the same budget.
     */
    void resolvePartitionBudget(EdgeId num_edges);
};

} // namespace digraph::engine
