/**
 * @file
 * The barrier of one dispatch (DESIGN.md "Host execution model" + §14).
 * The compute phase lives in the wave-body template (wave_body.hpp,
 * instantiated by wave_kernel.cpp) and has already merged its pushes
 * into the masters; replayDispatch() runs right after it, before the
 * next dispatch of the wave: work counters, simulated transport and
 * kernel costs, version bumps, and the activation fan-out.
 */

#include "engine/digraph_engine.hpp"

#include <algorithm>

#include "engine/dispatcher.hpp"

namespace digraph::engine {

void
DiGraphEngine::replayDispatch(const DispatchOutcome &outcome,
                              metrics::RunReport &report)
{
    const PartitionId p = outcome.partition;
    ++partition_process_count_[p];
    counters_.add(metrics::Counter::PartitionProcessings);
    counters_.add(metrics::Counter::Rounds, outcome.local_rounds);
    counters_.add(metrics::Counter::EdgeProcessings,
                  outcome.edge_processings);
    counters_.add(metrics::Counter::VertexUpdates,
                  outcome.vertex_updates);
    counters_.add(metrics::Counter::LoadedVertices,
                  outcome.loaded_vertices);
    counters_.add(metrics::Counter::GlobalLoadBytes,
                  outcome.global_load_bytes);

    const DeviceId dev = transport_.chooseDevice(p, sched_);
    transport_.partition_device[p] = dev;
    auto &device = transport_.platform().device(dev);
    // One SMX owns this dispatch's serial round chain; other SMXs are
    // touched only by work-stealing surplus, so concurrent partitions on
    // the device keep their own SMXs.
    const SmxId home_smx = device.leastLoadedSmx();
    if (outcome.global_load_bytes)
        device.addGlobalLoad(outcome.global_load_bytes);

    double ready = transport_.ensureResident(
        p, dev,
        std::max({device.smx(home_smx).clock(),
                  transport_.partition_done[p],
                  transport_.partition_msg_ready[p]}),
        sched_, report);

    // Master refresh: path results are buffered in the global memory of
    // the device that produced them (Section 3.2.2); masters written on
    // another device are pulled over the ring, one batch per source
    // device. The stale vertices were collected from the incremental
    // stale queue at dispatch start.
    ready = transport_.masterRefreshPulls(
        dev, outcome.stale_vertices, ready, report,
        plane_.lane_count > 0 ? &outcome.stale_lanes : nullptr);

    // Charge the recorded kernel rounds to the device clocks, exactly as
    // the interleaved execution would have: group 0 chains on the home
    // SMX, surplus groups steal the momentarily least-loaded SMX.
    const double kernel_begin = ready;
    ready = transport_.chargeKernelRounds(
        p, dev, home_smx, outcome.round_group_cycles, ready, report);
    if (trace_) {
        trace_->event(metrics::TraceEventType::Dispatch, trace_wave_, p,
                      kernel_begin, ready - kernel_begin,
                      outcome.local_rounds, outcome.edge_processings);
    }

    const std::vector<VertexId> &changed = outcome.changed;
    if (trace_) {
        trace_->event(metrics::TraceEventType::MergeBarrier, trace_wave_,
                      p, ready, 0.0, outcome.push_count, changed.size());
    }
    for (const VertexId v : changed) {
        ++plane_.master_version[v];
        transport_.master_writer[v] = dev;
    }

    // Activation fan-out: every changed master feeds the stale queues of
    // the partitions mirroring it and re-enters its consumer partitions
    // into the worklist; partitions woken from inactive get ring
    // notification transfers.
    std::vector<PartitionId> activated_parts;
    if (plane_.lane_count > 0) {
        sync_.fanOutChangedLanes(plane_, p, changed,
                                 outcome.changed_lanes, activated_parts);
    } else {
        sync_.fanOutChanged(plane_, p, changed, activated_parts);
    }
    std::sort(activated_parts.begin(), activated_parts.end());
    activated_parts.erase(
        std::unique(activated_parts.begin(), activated_parts.end()),
        activated_parts.end());
    transport_.notifyActivations(dev, activated_parts, ready, report);
    transport_.partition_done[p] = ready;
    if (outcome.reactivate_self)
        plane_.partition_active[p] = 1;
}

} // namespace digraph::engine
