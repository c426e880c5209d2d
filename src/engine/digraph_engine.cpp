#include "engine/digraph_engine.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "common/timer.hpp"
#include "engine/wave_control.hpp"

namespace digraph::engine {

std::string
modeName(ExecutionMode mode)
{
    switch (mode) {
      case ExecutionMode::PathAsync:   return "digraph";
      case ExecutionMode::PathNoSched: return "digraph-w";
      case ExecutionMode::VertexAsync: return "digraph-t";
    }
    return "?";
}

DiGraphEngine::DiGraphEngine(const graph::DirectedGraph &g,
                             EngineOptions options)
    : g_(g), options_(std::move(options)),
      sub_([&] {
          if (const std::string err = options_.validate(); !err.empty())
              fatal("DiGraphEngine: invalid options: ", err);
          options_.resolvePartitionBudget(g.numEdges());
          return EngineSubstrate::build(
              g, partition::preprocess(g, options_.preprocess));
      }()),
      pre_(sub_->pre), sync_(sub_->sync), sched_(sub_->dispatcher),
      transport_(options_.platform)
{
    ft_enabled_ = !options_.faults.empty() || options_.store != nullptr;
    plane_.bindLayout(sub_->layout, g_.numVertices());
    plane_.attach(&sync_);
}

DiGraphEngine::DiGraphEngine(const graph::DirectedGraph &g,
                             partition::Preprocessed pre,
                             EngineOptions options)
    : g_(g), options_(std::move(options)),
      sub_([&] {
          if (const std::string err = options_.validate(); !err.empty())
              fatal("DiGraphEngine: invalid options: ", err);
          if (pre.paths.numEdges() != g.numEdges()) {
              fatal("DiGraphEngine: prebuilt preprocessing covers ",
                    pre.paths.numEdges(), " edges but the graph has ",
                    g.numEdges());
          }
          return EngineSubstrate::build(g, std::move(pre));
      }()),
      pre_(sub_->pre), sync_(sub_->sync), sched_(sub_->dispatcher),
      transport_(options_.platform)
{
    ft_enabled_ = !options_.faults.empty() || options_.store != nullptr;
    plane_.bindLayout(sub_->layout, g_.numVertices());
    plane_.attach(&sync_);
}

DiGraphEngine::DiGraphEngine(const graph::DirectedGraph &g,
                             std::shared_ptr<const EngineSubstrate> sub,
                             EngineOptions options)
    : g_(g), options_(std::move(options)),
      sub_([&] {
          if (const std::string err = options_.validate(); !err.empty())
              fatal("DiGraphEngine: invalid options: ", err);
          if (!sub)
              fatal("DiGraphEngine: null shared substrate");
          if (sub->pre.paths.numEdges() != g.numEdges()) {
              fatal("DiGraphEngine: shared substrate covers ",
                    sub->pre.paths.numEdges(),
                    " edges but the graph has ", g.numEdges());
          }
          if (sub->num_vertices != g.numVertices()) {
              fatal("DiGraphEngine: shared substrate was built for ",
                    sub->num_vertices, " vertices but the graph has ",
                    g.numVertices());
          }
          return std::move(sub);
      }()),
      pre_(sub_->pre), sync_(sub_->sync), sched_(sub_->dispatcher),
      transport_(options_.platform)
{
    ft_enabled_ = !options_.faults.empty() || options_.store != nullptr;
    plane_.bindLayout(sub_->layout, g_.numVertices());
    plane_.attach(&sync_);
}

std::size_t
DiGraphEngine::jobStateBytes() const
{
    std::size_t bytes = plane_.memoryBytes();
    bytes += partition_process_count_.size() * sizeof(std::uint32_t);
    bytes += transport_.partition_device.size() * sizeof(DeviceId);
    bytes += transport_.partition_done.size() * sizeof(double);
    bytes += transport_.partition_msg_ready.size() * sizeof(double);
    bytes += transport_.master_writer.size() * sizeof(DeviceId);
    for (const auto &resident : transport_.device_resident)
        bytes += resident.capacity() * sizeof(PartitionId);
    bytes += transport_.device_resident_bytes.size() * sizeof(std::size_t);
    bytes += transport_.smx_stall_factor.size() * sizeof(double);
    return bytes;
}

metrics::RunReport
DiGraphEngine::run(const algorithms::Algorithm &algo,
                   const WarmStart *warm)
{
    WallTimer wall;
    AccumTimer schedule_timer;
    AccumTimer compute_timer;
    AccumTimer barrier_timer;
    metrics::RunReport report;
    report.system = modeName(options_.mode);
    report.algorithm = algo.name();
    report.num_gpus = transport_.platform().numDevices();
    report.num_partitions = pre_.numPartitions();
    report.preprocess_seconds = preprocessSeconds();

    counters_.reset();
    trace_ = options_.trace;

    // Batched multi-source mode: a LaneAlgorithm runs K value lanes in
    // one traversal (DESIGN.md §17). Lane runs are path-mode only and
    // exclude the warm-start and fault/durable-store machinery (their
    // journals are scalar); everything else below is shared, branching
    // on `lanes` at the few seams where the state layout differs.
    const auto *lane_algo =
        dynamic_cast<const algorithms::LaneAlgorithm *>(&algo);
    const unsigned lanes = lane_algo ? lane_algo->lanes() : 0;
    if (lane_algo) {
        if (lanes == 0 || lanes > algorithms::kMaxValueLanes) {
            fatal("DiGraphEngine: lane algorithm '", algo.name(),
                  "' declares ", lanes, " lanes (supported: 1..",
                  algorithms::kMaxValueLanes, ")");
        }
        if (options_.mode == ExecutionMode::VertexAsync) {
            fatal("DiGraphEngine: batched lane runs require a path "
                  "mode (digraph / digraph-w)");
        }
        if (warm != nullptr)
            fatal("DiGraphEngine: batched lane runs do not support "
                  "warm starts");
        if (ft_enabled_) {
            fatal("DiGraphEngine: batched lane runs do not support "
                  "fault tolerance or a durable store");
        }
    }
    report.value_lanes = lanes ? lanes : 1;

    // Resolve the wave kernel once per run: the compile-time body
    // instantiation matching (algorithm policy, mode, tracing), or the
    // generic fallback. The hot loop below calls one function pointer
    // per dispatch — never a virtual per edge.
    kernel_ = resolveWaveKernel(algo, options_, trace_ != nullptr, lanes);
    kernel_ctx_ = kernel_.policy ? kernel_.policy.get()
                                 : static_cast<const void *>(&algo);
    report.kernel = kernel_.name;
    report.kernel_specialized = kernel_.specialized;

    const PartitionId nparts = pre_.numPartitions();
    transport_.beginRun(options_, nparts, g_.numVertices(), &counters_);
    transport_.setTraceContext(trace_, trace_wave_, trace_wave_sim_);
    transport_.value_lanes = lanes ? lanes : 1;

    plane_.initializeState(g_, algo, warm);
    plane_.beginRun(pre_);
    if (lane_algo)
        plane_.initializeLanes(g_, *lane_algo, pre_);
    partition_process_count_.assign(nparts, 0);
    if (ft_enabled_)
        initFaultTolerance();

    // Prefetch: all partitions are distributed over the devices up
    // front, streamed via the copy queues (Hyper-Q) so kernels can start
    // without waiting on host memory (Section 3.2.2's advance transfer
    // of successive paths). Placement is balanced by bytes.
    transport_.prefetchAll(nparts, sched_, report);

    // Initial activation: the algorithm's initActive() set, or — on a
    // warm start — only the supplied seed vertices.
    if (lane_algo) {
        for (VertexId v = 0; v < g_.numVertices(); ++v) {
            for (unsigned l = 0; l < lanes; ++l) {
                if (options_.force_all_active ||
                    lane_algo->initActiveLane(g_, v, l))
                    sync_.activateVertexLane(plane_, v, l);
            }
        }
    } else if (warm && warm->active_vertices &&
               !options_.force_all_active) {
        for (const VertexId v : *warm->active_vertices)
            sync_.activateVertex(plane_, v);
    } else {
        for (VertexId v = 0; v < g_.numVertices(); ++v) {
            if (options_.force_all_active || algo.initActive(g_, v))
                sync_.activateVertex(plane_, v);
        }
    }

    // Main dependency-aware dispatch loop, organized in waves: within a
    // wave every active partition is dispatched at most once (the
    // batched-kernel granularity of a real GPU), in topological order of
    // the DAG sketch, rearranged by Dispatcher::waveOrder() into greedy
    // vertex-disjoint chunks. Each dispatch runs its local rounds
    // (compute, merging pushes straight into the masters) and then its
    // barrier (replayDispatch: version bumps, activation fan-out and the
    // simulated platform costs) before the next dispatch starts, so
    // later dispatches of the wave see everything earlier ones wrote.
    std::vector<std::uint64_t> wave_stamp(nparts, 0);
    std::uint64_t wave = 0;
    std::vector<PartitionId> batch;
    // Per-lane convergence: last wave at whose end the lane still had
    // active slots (summed from the partition-sliced lane counters).
    std::vector<std::uint64_t> lane_last_active(lanes, 0);
    for (;;) {
        ++wave;
        if (ft_enabled_)
            pollFaults(wave, report);
        schedule_timer.begin();
        // Readiness and the dispatch set are frozen at wave start: a
        // group is dispatchable only when everything transitively
        // upstream of it has converged, and partitions activated during
        // the wave wait for the next one.
        const auto blocked = sched_.blockedGroups(plane_.partition_active);
        batch.clear();
        for (;;) {
            const PartitionId p = sched_.choosePartition(
                wave_stamp, wave, &blocked, plane_.partition_active,
                options_.dag_dispatch);
            if (p == kInvalidPartition)
                break;
            wave_stamp[p] = wave;
            batch.push_back(p);
        }
        if (batch.empty()) {
            // Nothing ready: either converged, or an (unlikely) blocked
            // cycle remains — run one partition "in advance" to make
            // progress (and keep otherwise idle SMXs busy).
            const PartitionId p = sched_.choosePartition(
                wave_stamp, wave, nullptr, plane_.partition_active,
                options_.dag_dispatch);
            if (p != kInvalidPartition) {
                wave_stamp[p] = wave;
                batch.push_back(p);
            }
        }
        sched_.waveOrder(batch);
        schedule_timer.end();
        if (batch.empty())
            break;

        if (trace_) {
            trace_wave_ = wave;
            trace_wave_sim_ = transport_.platform().makespan();
            transport_.setTraceContext(trace_, trace_wave_,
                                       trace_wave_sim_);
            trace_->event(metrics::TraceEventType::WaveStart, wave,
                          metrics::kTraceNoPartition, trace_wave_sim_,
                          0.0, batch.size(), batch.front());
        }

        for (const PartitionId p : batch) {
            if (ft_enabled_) {
                // Journal the E_val slice this dispatch may mutate
                // (copy-on-write at the granularity the dispatch hands
                // to a device).
                plane_.markPartitionDirty(p);
            }
            compute_timer.begin();
            DispatchOutcome outcome = kernel_.compute(*this, p, kernel_ctx_);
            compute_timer.end();

            barrier_timer.begin();
            replayDispatch(outcome, report);
            barrier_timer.end();
        }
        if (lane_algo) {
            for (unsigned l = 0; l < lanes; ++l) {
                std::uint64_t total = 0;
                for (PartitionId q = 0; q < nparts; ++q) {
                    total += plane_.lane_active_slots
                                 [static_cast<std::size_t>(q) * lanes +
                                  l];
                }
                if (total)
                    lane_last_active[l] = wave;
            }
        }
        if (ft_enabled_)
            maybeCheckpoint(wave, report);
        if (trace_) {
            trace_->event(metrics::TraceEventType::WaveEnd, wave,
                          metrics::kTraceNoPartition,
                          transport_.platform().makespan(), 0.0,
                          batch.size());
        }
        if (options_.wave_control) {
            // Wave boundary: everything is committed and nothing is in
            // flight, so the run can park here indefinitely (the
            // ValuePlane is the job's state) and resume bit-identical.
            options_.wave_control->onWaveBoundary(wave,
                                                  plane_.partition_active);
        }
    }
    if (options_.verify_invariants) {
        const InvariantReport inv =
            lane_algo ? postRunLaneInvariants(*lane_algo)
                      : postRunInvariants(algo);
        if (!inv.ok()) {
            panic("DiGraphEngine: post-run invariant violation: ",
                  inv.detail.empty() ? std::string("unspecified")
                                     : inv.detail);
        }
    }

    counters_.set(metrics::Counter::Waves,
                  wave - 1); // the last wave dispatched nothing
    counters_.set(metrics::Counter::NumPartitions, nparts);
    counters_.set(metrics::Counter::RingTransferBytes,
                  transport_.platform().ring().totalBytes());
    counters_.set(metrics::Counter::GlobalLoadBytes,
                  transport_.platform().globalLoadBytes());
    counters_.set(metrics::Counter::UsedVertices,
                  counters_.get(metrics::Counter::VertexUpdates));
    counters_.exportTo(report);
    if (trace_)
        trace_->setCounters(counters_);

    if (lane_algo) {
        report.lane_states.assign(lanes, std::vector<Value>());
        for (unsigned l = 0; l < lanes; ++l) {
            auto &state = report.lane_states[l];
            state.resize(g_.numVertices());
            for (VertexId v = 0; v < g_.numVertices(); ++v)
                state[v] =
                    plane_.lane_v[static_cast<std::size_t>(v) * lanes +
                                  l];
        }
        report.final_state = report.lane_states[0];
        report.lane_converged_wave = std::move(lane_last_active);
    } else {
        report.final_state.assign(plane_.storage.vVals().begin(),
                                  plane_.storage.vVals().end());
    }
    report.sim_cycles = transport_.platform().makespan();
    report.utilization = transport_.platform().utilization();
    report.wall_seconds = wall.seconds();
    report.wall_compute_seconds = compute_timer.seconds();
    report.wall_barrier_seconds = barrier_timer.seconds();
    report.wall_schedule_seconds = schedule_timer.seconds();
    return report;
}

} // namespace digraph::engine
