/**
 * @file
 * The DiGraph engine (Section 3): path-based asynchronous iterative
 * directed-graph processing over the simulated multi-GPU platform.
 *
 * Since the layered-substrate refactor (DESIGN.md §12) the engine is a
 * thin coordinator over four layers:
 *
 *  - EngineSubstrate (shared, immutable): the preprocessing result, the
 *    PathLayout topology, the ReplicaSync indexes, and the Dispatcher
 *    dependency structures — shareable by concurrent jobs;
 *  - ValuePlane (per job): all mutable value/activation/checkpoint
 *    state;
 *  - Transport (per job): the simulated platform, residency and every
 *    byte-moving operation including the fault/retry path.
 *
 * run() wires them together: dependency-aware wave dispatching,
 * per-SMX path scheduling, master/mirror batched synchronization, proxy
 * vertices, and work stealing, producing a full metrics::RunReport.
 *
 * Activation is tracked per *mirror slot*: a set flag means "this replica
 * holds a state its on-path out-edge has not propagated yet". Within a
 * round a processed edge clears its source flag and immediately sets its
 * destination flag, which realizes the paper's within-round propagation
 * along the whole path; in VertexAsync mode (DiGraph-t) sources are read
 * from a round-start snapshot and new flags are applied at round end, so
 * state crosses one hop per round, as in traditional async engines.
 *
 * Host execution model (see DESIGN.md "Host execution model"): a
 * job's dispatches run one at a time on the thread that called run().
 * Each wave's partitions run in Dispatcher::waveOrder(); a dispatch
 * merges its mirror pushes straight into the masters and emits a
 * DispatchOutcome, and its barrier (version bumps, activation fan-out,
 * simulated platform costs) runs before the next dispatch starts. Host
 * parallelism lives across jobs (GraphService), not inside one.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "algorithms/algorithm.hpp"
#include "engine/options.hpp"
#include "engine/substrate.hpp"
#include "engine/wave_kernel.hpp"
#include "engine/transport.hpp"
#include "engine/value_plane.hpp"
#include "gpusim/platform.hpp"
#include "graph/digraph.hpp"
#include "metrics/counter_registry.hpp"
#include "metrics/run_report.hpp"
#include "metrics/trace.hpp"
#include "partition/preprocess.hpp"
#include "storage/path_storage.hpp"

namespace digraph::engine {

struct WaveKernels;

/**
 * Everything one partition dispatch's compute phase hands to its
 * barrier (DiGraphEngine::replayDispatch).
 */
struct DispatchOutcome
{
    PartitionId partition = kInvalidPartition;
    /** Vertices whose mirrors were stale at dispatch start, in stale-
     *  queue (fan-out) order; drives the ring master-refresh pulls at
     *  replay, which only sum bytes per home device, so the order does
     *  not matter. */
    std::vector<VertexId> stale_vertices;
    /** Lane runs: per stale vertex, the mask of lanes flagged changed
     *  (parallel to stale_vertices) — the refresh pull ships only those
     *  lanes' values (delta-encoded stripe). Empty on scalar runs. */
    std::vector<std::uint64_t> stale_lanes;
    /** Per local round, per work-stealing group: kernel cycles. */
    std::vector<std::vector<double>> round_group_cycles;
    /** Masters whose merge reported an activation-worthy change,
     *  accumulated across the local rounds (sorted/deduplicated). */
    std::vector<VertexId> changed;
    /** Lane runs: per changed vertex, the mask of lanes whose master
     *  changed (parallel to changed). */
    std::vector<std::uint64_t> changed_lanes;
    /** Mirror pushes merged into masters. */
    std::uint64_t push_count = 0;
    /** Partition hit max_local_rounds; redispatch it. */
    bool reactivate_self = false;
    // Work counters merged into the report at the barrier.
    std::uint64_t edge_processings = 0;
    std::uint64_t vertex_updates = 0;
    std::uint64_t local_rounds = 0;
    std::uint64_t loaded_vertices = 0;
    std::uint64_t global_load_bytes = 0;
};

/**
 * Path-based iterative directed-graph processing engine.
 *
 * One engine instance is bound to a graph; run() may be called repeatedly
 * with different algorithms (all run state is reset).
 */
class DiGraphEngine
{
  public:
    /** Preprocess @p g per @p options (the graph must outlive the
     *  engine). */
    explicit DiGraphEngine(const graph::DirectedGraph &g,
                           EngineOptions options = {});

    /**
     * Adopt a prebuilt preprocessing result for @p g instead of running
     * the pipeline (evolving-graph incremental ingestion: the caller
     * produced @p pre via preprocess() or appendPreprocess()). Only the
     * substrate indexes and storage arrays are built here.
     * @pre pre covers exactly g's edge set (checked).
     */
    DiGraphEngine(const graph::DirectedGraph &g,
                  partition::Preprocessed pre, EngineOptions options);

    /**
     * Share a prebuilt substrate (concurrent jobs over one immutable
     * Preprocessed — see JobManager): only this job's ValuePlane and
     * Transport are allocated.
     * @pre sub was built for @p g (edge count checked).
     */
    DiGraphEngine(const graph::DirectedGraph &g,
                  std::shared_ptr<const EngineSubstrate> sub,
                  EngineOptions options);

    /** Execute @p algo to convergence; returns the full report.
     *  @param warm Optional warm start (evolving-graph reruns): vertex
     *  states resume from the given vector, edge caches are initialized
     *  consistently via Algorithm::warmEdgeState(), and only the given
     *  seed vertices start active. */
    metrics::RunReport run(const algorithms::Algorithm &algo,
                           const WarmStart *warm = nullptr);

    /** The preprocessing result (paths, DAG sketch, partitions). */
    const partition::Preprocessed &preprocessed() const { return pre_; }

    /** The shared substrate (pass to other engines to share it). */
    const std::shared_ptr<const EngineSubstrate> &substrate() const
    {
        return sub_;
    }

    /** Preprocessing wall-clock seconds. */
    double preprocessSeconds() const { return pre_.timings.total(); }

    /** Engine options in effect. */
    const EngineOptions &options() const { return options_; }

    /** Attach (or detach, with nullptr) a trace sink for subsequent
     *  run() calls. Tracing never changes results; a null sink keeps
     *  every instrumentation point a single branch. */
    void setTrace(metrics::TraceSink *sink) { options_.trace = sink; }

    /** Attach (or detach, with nullptr) a wave-boundary scheduling
     *  hook for subsequent run() calls (see engine/wave_control.hpp).
     *  Parking at a boundary never changes results. */
    void setWaveControl(WaveControl *hook)
    {
        options_.wave_control = hook;
    }

    /** Counter totals of the most recent run (always equal to the
     *  matching RunReport aggregate fields). */
    const metrics::CounterRegistry &counters() const { return counters_; }

    /** The simulated platform state of the most recent run. */
    const gpusim::Platform &platform() const
    {
        return transport_.platform();
    }

    /** Per-partition dispatch counts of the most recent run. */
    const std::vector<std::uint32_t> &partitionProcessCounts() const
    {
        return partition_process_count_;
    }

    /** Dependency group of partition @p q (introspection / tests). */
    SccId partitionGroup(PartitionId q) const { return sched_.group(q); }

    /** Direct precursor partitions of @p q (introspection / tests). */
    const std::vector<PartitionId> &
    partitionPrecursors(PartitionId q) const
    {
        return sched_.precursors(q);
    }

    /**
     * Validate the incremental activation bookkeeping (tests): per-path
     * active-slot counters must equal a full recount of slot flags, and
     * every path with a nonzero counter must sit in its partition's
     * worklist. O(total slots) — debug/tests only.
     */
    bool activationBookkeepingConsistent() const
    {
        return plane_.bookkeepingConsistent(pre_);
    }

    /** Host bytes of this job's private state (ValuePlane + transport
     *  bookkeeping) — what one extra concurrent job costs on a shared
     *  substrate. */
    std::size_t jobStateBytes() const;

    /** Result of the post-run invariant checker (see
     *  postRunInvariants()). */
    struct InvariantReport
    {
        /** No edge would still move its destination by more than the
         *  residual slack at the converged state. */
        bool residual_ok = true;
        /** No mirror holds an un-pushed value (hasPush false
         *  everywhere). */
        bool coherence_ok = true;
        /** Activation bookkeeping recounts cleanly and the engine is
         *  quiescent (no active slot or partition). */
        bool activation_ok = true;
        /** Largest |destination movement| any edge could still cause. */
        double max_residual = 0.0;
        /** Edges exceeding the slack. */
        std::uint64_t residual_violations = 0;
        /** First violation, human-readable (empty when ok). */
        std::string detail;

        bool
        ok() const
        {
            return residual_ok && coherence_ok && activation_ok;
        }
    };

    /**
     * Post-run invariant checker (debug/CI): re-examines the converged
     * state of the most recent run() — convergence residual (re-running
     * processEdge on a copy must not move any destination by more than
     * @p residual_slack * epsilon), master/mirror coherence, and an
     * activation recount. Used standalone by tests and, with
     * EngineOptions::verify_invariants, inside run() (panic on
     * violation).
     */
    InvariantReport
    postRunInvariants(const algorithms::Algorithm &algo,
                      double residual_slack = 64.0);

    /** Lane-mode postRunInvariants(): per-lane convergence residual,
     *  lane master/mirror coherence, and the lane activation-mask
     *  recount of the most recent K-wide run. */
    InvariantReport
    postRunLaneInvariants(const algorithms::LaneAlgorithm &algo,
                          double residual_slack = 64.0);

  private:
    /** The wave body templates read/write the engine internals
     *  directly (single shared body for the specialized kernels and
     *  the generic fallback — see wave_body.hpp). */
    friend struct WaveKernels;

    /** The barrier of one dispatch, run right after its compute phase:
     *  work counters, simulated transport and kernel costs, version
     *  bumps of the changed masters, and the activation fan-out. The
     *  masters themselves were already merged in place. */
    void replayDispatch(const DispatchOutcome &outcome,
                        metrics::RunReport &report);

    // --- fault tolerance (implemented in fault_recovery.cpp; all
    // methods run between dispatches — see DESIGN.md §10) ---

    /** Take the epoch-0 checkpoint (full V_val + E_val copy) and reset
     *  the recovery budget. Called from run() after storage
     *  initialization (the injector is armed by Transport::beginRun). */
    void initFaultTolerance();

    /** Fire discrete faults due at the current makespan: device losses
     *  trigger checkpoint-restore recovery, SMX stalls arm their cycle
     *  multiplier. Called at every wave start. */
    void pollFaults(std::uint64_t wave, metrics::RunReport &report);

    /** Advance the checkpoint epoch when the interval elapsed: flush
     *  dirty masters/E_val slices into the shadow arrays, charging the
     *  simulated flush traffic. Called at every wave end. */
    void maybeCheckpoint(std::uint64_t wave, metrics::RunReport &report);

    /** Degrade-and-redistribute recovery from losing @p dead: roll every
     *  dirty master/E_val slice back to the checkpoint, clear the
     *  volatile run state, re-activate all source slots, and drop all
     *  device residency so the DAG dispatcher restripes partitions over
     *  the survivors. Hard-aborts past max_recoveries or when no device
     *  survives. */
    void recoverFromDeviceLoss(DeviceId dead, std::uint64_t wave,
                               metrics::RunReport &report);

    const graph::DirectedGraph &g_;
    EngineOptions options_;
    /** Shared immutable substrate (owned or adopted). */
    std::shared_ptr<const EngineSubstrate> sub_;
    /** Convenience references into the substrate layers. */
    const partition::Preprocessed &pre_;
    const ReplicaSync &sync_;
    const Dispatcher &sched_;
    /** This job's mutable state. */
    ValuePlane plane_;
    /** This job's platform/transfer state. */
    Transport transport_;
    /** Typed counters of the current run (exported into the
     *  RunReport at run end). */
    metrics::CounterRegistry counters_;
    /** Trace sink of the current run (= options_.trace; nullptr when
     *  tracing is disabled). */
    metrics::TraceSink *trace_ = nullptr;
    /** Wave context for compute-phase trace events (set at each wave
     *  start). */
    std::uint64_t trace_wave_ = 0;
    double trace_wave_sim_ = 0.0;
    std::vector<std::uint32_t> partition_process_count_;

    /** Wave kernel resolved for the current run (compile-time
     *  specialized body or generic fallback). */
    ResolvedKernel kernel_;
    /** ctx pointer the kernel entry points receive: the owned policy
     *  copy (specialized) or the Algorithm itself (fallback). */
    const void *kernel_ctx_ = nullptr;

    /** True when options_.faults is non-empty or a durable store is
     *  attached (every hot-path fault hook stays a single branch when
     *  false). */
    bool ft_enabled_ = false;
    /** Durable-store version the next value flush chains from: the
     *  topology parent before the first flush, then the last flushed
     *  version (see EngineOptions::store). */
    std::uint64_t store_version_ = 0;
    /** True while the on-disk version store_version_ is byte-identical
     *  to the in-memory checkpoint shadow — i.e. the last flush
     *  succeeded. Device-loss recovery substitutes the disk copy only
     *  then; after a failed flush the disk lags the shadow and must be
     *  ignored. */
    bool store_synced_ = false;
    /** True once any value flush of this run committed; until then
     *  every flush writes all partitions (a dirty-list flush may only
     *  chain on a parent that holds this run's values). */
    bool store_values_committed_ = false;
    /** Dirty partitions of checkpoint epochs whose flush failed (or is
     *  still pending), merged into the next flush's dirty set so a
     *  failed commit can never mark them clean against a stale
     *  parent shard. Flag array mirrors membership. */
    std::vector<PartitionId> store_backlog_;
    std::vector<std::uint8_t> store_backlog_flag_;
    /** Device-loss recoveries performed this run. */
    std::size_t recoveries_ = 0;
    /** pollFaults scratch. */
    std::vector<DeviceId> due_loss_;
    std::vector<gpusim::SmxStallFault> due_stalls_;
};

} // namespace digraph::engine
