#include "engine/transport.hpp"

#include <algorithm>
#include <bit>

#include "common/logging.hpp"

namespace digraph::engine {

void
Transport::beginRun(const EngineOptions &options, PartitionId nparts,
                    VertexId num_vertices,
                    metrics::CounterRegistry *counters)
{
    options_ = &options;
    counters_ = counters;
    trace_ = nullptr;
    trace_wave_ = 0;
    trace_wave_sim_ = 0.0;
    platform_.reset();
    partition_device.assign(nparts, kInvalidVertex);
    partition_done.assign(nparts, 0.0);
    partition_msg_ready.assign(nparts, 0.0);
    master_writer.assign(num_vertices, kInvalidVertex);
    device_resident.assign(platform_.numDevices(), {});
    device_resident_bytes.assign(platform_.numDevices(), 0);
    value_lanes = 1;
    ft_enabled = !options.faults.empty();
    if (ft_enabled) {
        injector = gpusim::FaultInjector(options.faults);
        smx_stall_factor.assign(
            static_cast<std::size_t>(platform_.numDevices()) *
                options.platform.smx_per_device,
            1.0);
    }
}

DeviceId
Transport::chooseDevice(PartitionId p, const Dispatcher &sched) const
{
    const double xfer_cost =
        options_->platform.transfer_latency_cycles +
        static_cast<double>(sched.partitionBytes(p)) /
            options_->platform.host_link_bytes_per_cycle;
    DeviceId best = kInvalidVertex;
    double best_start = 0.0;
    for (DeviceId d = 0; d < platform_.numDevices(); ++d) {
        const auto &device = platform_.device(d);
        if (device.failed())
            continue; // degrade: survivors absorb the dead device's share
        double start = device.smx(device.leastLoadedSmx()).clock();
        if (partition_device[p] != d)
            start += xfer_cost;
        // Small bonus per resident precursor: remote results are local.
        for (const PartitionId t : sched.precursors(p)) {
            if (partition_device[t] == d)
                start -=
                    options_->platform.transfer_latency_cycles * 0.05;
        }
        if (best == kInvalidVertex || start < best_start) {
            best = d;
            best_start = start;
        }
    }
    if (best == kInvalidVertex)
        panic("DiGraphEngine::chooseDevice: no alive device");
    return best;
}

double
Transport::ensureResident(PartitionId p, DeviceId dev, double issue_time,
                          const Dispatcher &sched,
                          metrics::RunReport &report)
{
    auto &resident = device_resident[dev];
    const auto it = std::find(resident.begin(), resident.end(), p);
    if (it != resident.end()) {
        // LRU touch.
        resident.erase(it);
        resident.push_back(p);
        return issue_time;
    }

    // Evict least-recently-used partitions until the batch fits.
    auto &used = device_resident_bytes[dev];
    const std::size_t bytes = sched.partitionBytes(p);
    auto &device = platform_.device(dev);
    while (!resident.empty() &&
           used + bytes > options_->platform.global_mem_bytes) {
        const PartitionId victim = resident.front();
        resident.erase(resident.begin());
        used -= sched.partitionBytes(victim);
        if (partition_device[victim] == dev)
            partition_device[victim] = kInvalidVertex;
        // Buffered results written back to host memory.
        device.hostLink().transfer(
            issue_time +
                transferFaultPenalty(sched.partitionBytes(victim),
                                     report),
            sched.partitionBytes(victim));
        report.comm_cycles +=
            device.hostLink().cost(sched.partitionBytes(victim));
    }
    resident.push_back(p);
    used += bytes;

    const double done = device.hostLink().transfer(
        issue_time + transferFaultPenalty(bytes, report), bytes);
    report.comm_cycles += device.hostLink().cost(bytes);
    counters_->add(metrics::Counter::HostTransferBytes, bytes);
    return done;
}

void
Transport::prefetchAll(PartitionId nparts, const Dispatcher &sched,
                       metrics::RunReport &report)
{
    // Contiguous blocks keep SCC-affine neighbor partitions on the
    // same device (the partition order is already dependency-sorted).
    std::size_t total_bytes = 0;
    for (PartitionId q = 0; q < nparts; ++q)
        total_bytes += sched.partitionBytes(q);
    const std::size_t per_dev = total_bytes / platform_.numDevices() + 1;
    std::size_t filled = 0;
    for (PartitionId q = 0; q < nparts; ++q) {
        const auto dev = static_cast<DeviceId>(std::min<std::size_t>(
            platform_.numDevices() - 1, filled / per_dev));
        filled += sched.partitionBytes(q);
        auto &device = platform_.device(dev);
        const double done = device.hostLink().transfer(
            transferFaultPenalty(sched.partitionBytes(q), report),
            sched.partitionBytes(q));
        report.comm_cycles +=
            device.hostLink().cost(sched.partitionBytes(q));
        counters_->add(metrics::Counter::HostTransferBytes,
                       sched.partitionBytes(q));
        partition_device[q] = dev;
        partition_done[q] = done;
        device_resident[dev].push_back(q);
        device_resident_bytes[dev] += sched.partitionBytes(q);
    }
}

double
Transport::masterRefreshPulls(DeviceId dev,
                              const std::vector<VertexId> &stale_vertices,
                              const std::vector<std::uint64_t> &stale_lanes,
                              double ready, metrics::RunReport &report)
{
    std::vector<std::uint64_t> pull_bytes(platform_.numDevices(), 0);
    for (std::size_t i = 0; i < stale_vertices.size(); ++i) {
        const VertexId v = stale_vertices[i];
        const DeviceId home = master_writer[v];
        if (home == kInvalidVertex || home == dev)
            continue;
        if (value_lanes > 1) {
            // Delta-encoded stripe: id + changed-lane mask + one value
            // per changed lane. (K = 1 keeps the scalar id + value wire
            // format: a 1-lane message needs no mask.)
            pull_bytes[home] +=
                sizeof(VertexId) + sizeof(std::uint64_t) +
                static_cast<std::uint64_t>(
                    std::popcount(stale_lanes[i])) *
                    sizeof(Value);
        } else {
            pull_bytes[home] += kMessageBytes;
        }
    }
    const double issue = ready;
    for (DeviceId home = 0; home < platform_.numDevices(); ++home) {
        if (pull_bytes[home] == 0)
            continue;
        ready = std::max(
            ready,
            platform_.ring().transfer(
                home, dev,
                issue + transferFaultPenalty(pull_bytes[home], report),
                pull_bytes[home]));
        report.comm_cycles +=
            options_->platform.transfer_latency_cycles +
            static_cast<double>(pull_bytes[home]) /
                options_->platform.ring_bytes_per_cycle;
    }
    return ready;
}

double
Transport::chargeKernelRounds(
    PartitionId p, DeviceId dev, SmxId home_smx,
    const std::vector<std::vector<double>> &round_group_cycles,
    double ready, metrics::RunReport &report)
{
    auto &device = platform_.device(dev);
    for (const auto &group_cycles : round_group_cycles) {
        const double round_start = ready;
        double round_end = round_start;
        for (std::size_t k = 0; k < group_cycles.size(); ++k) {
            const SmxId sid = k == 0 ? home_smx : device.leastLoadedSmx();
            // An armed SMX stall slows this group's kernel down.
            const double cycles =
                group_cycles[k] * smxStallFactor(dev, sid);
            if (trace_ && k > 0) {
                trace_->event(metrics::TraceEventType::Steal,
                              trace_wave_, p, round_start, cycles, k,
                              sid);
            }
            round_end = std::max(
                round_end, device.smx(sid).run(round_start, cycles));
        }
        ready = round_end;
    }
    (void)report;
    return ready;
}

void
Transport::notifyActivations(
    DeviceId dev, const std::vector<PartitionId> &activated_parts,
    double ready, metrics::RunReport &report)
{
    std::vector<std::uint64_t> notify_bytes(platform_.numDevices(), 0);
    for (const PartitionId dest : activated_parts) {
        const DeviceId dd = partition_device[dest];
        if (dd != kInvalidVertex && dd != dev)
            notify_bytes[dd] += kMessageBytes;
    }
    std::vector<double> notify_arrive(platform_.numDevices(), ready);
    for (DeviceId dd = 0; dd < platform_.numDevices(); ++dd) {
        if (notify_bytes[dd] == 0)
            continue;
        notify_arrive[dd] = platform_.ring().transfer(
            dev, dd,
            ready + transferFaultPenalty(notify_bytes[dd], report),
            notify_bytes[dd]);
        report.comm_cycles +=
            options_->platform.transfer_latency_cycles +
            static_cast<double>(notify_bytes[dd]) /
                options_->platform.ring_bytes_per_cycle;
    }
    for (const PartitionId dest : activated_parts) {
        const DeviceId dd = partition_device[dest];
        const double arrive = (dd == kInvalidVertex || dd == dev)
                                  ? ready
                                  : notify_arrive[dd];
        partition_msg_ready[dest] =
            std::max(partition_msg_ready[dest], arrive);
    }
}

double
Transport::transferFaultPenalty(std::uint64_t bytes,
                                metrics::RunReport &report)
{
    if (!ft_enabled)
        return 0.0;
    const gpusim::TransferOutcome outcome = injector.attemptTransfer(
        kMaxTransferRetries, kTransferBackoffCycles);
    if (outcome.attempts > 1) {
        const std::uint64_t retries = outcome.attempts - 1;
        counters_->add(metrics::Counter::TransferRetries, retries);
        if (trace_) {
            for (std::uint64_t k = 1; k <= retries; ++k) {
                trace_->event(metrics::TraceEventType::TransferRetry,
                              trace_wave_, metrics::kTraceNoPartition,
                              platform_.makespan(), 0.0, k, bytes);
            }
        }
        report.comm_cycles += outcome.delay_cycles;
    }
    if (!outcome.delivered) {
        fatal("DiGraphEngine: transfer of ", bytes,
              " bytes permanently failed after ", outcome.attempts,
              " attempts (retry budget ", kMaxTransferRetries, ")");
    }
    return outcome.delay_cycles;
}

void
Transport::dropResidency()
{
    for (DeviceId d = 0; d < platform_.numDevices(); ++d) {
        device_resident[d].clear();
        device_resident_bytes[d] = 0;
    }
    std::fill(partition_device.begin(), partition_device.end(),
              kInvalidVertex);
}

} // namespace digraph::engine
