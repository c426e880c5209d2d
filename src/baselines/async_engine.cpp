#include "baselines/async_engine.hpp"

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "common/logging.hpp"
#include "common/timer.hpp"
#include "engine/convergence.hpp"
#include "gpusim/platform.hpp"
#include "metrics/counter_registry.hpp"
#include "metrics/trace.hpp"

namespace digraph::baselines {

namespace {

constexpr std::size_t kMessageBytes = sizeof(VertexId) + sizeof(Value);

} // namespace

AsyncResult
runAsync(const graph::DirectedGraph &g, const algorithms::Algorithm &algo,
         const BaselineOptions &options)
{
    if (const std::string err = options.validate(); !err.empty())
        fatal("runAsync: invalid options: ", err);
    WallTimer wall;
    AsyncResult result;
    metrics::RunReport &report = result.report;
    report.system = "async";
    report.algorithm = algo.name();
    metrics::CounterRegistry counters;
    metrics::TraceSink *const trace = options.trace;

    gpusim::Platform platform(options.platform);
    const unsigned num_dev = platform.numDevices();
    report.num_gpus = num_dev;

    const VertexId n = g.numVertices();
    const std::size_t budget =
        options.edges_per_partition
            ? options.edges_per_partition
            : defaultEdgeBudget(g, options.platform);
    result.partition_bounds = vertexRangePartitions(g, budget);
    const auto &bounds = result.partition_bounds;
    const PartitionId nparts =
        static_cast<PartitionId>(bounds.size() - 1);
    report.num_partitions = nparts;

    auto partition_of = [&](VertexId v) {
        const auto it = std::upper_bound(bounds.begin(), bounds.end(), v);
        return static_cast<PartitionId>(it - bounds.begin() - 1);
    };

    // Partitions round-robin over devices (Groute's static placement).
    std::vector<DeviceId> device_of_part(nparts);
    for (PartitionId q = 0; q < nparts; ++q)
        device_of_part[q] = q % num_dev;

    std::vector<std::size_t> part_bytes(nparts);
    for (PartitionId q = 0; q < nparts; ++q) {
        std::size_t edges = 0;
        for (VertexId v = bounds[q]; v < bounds[q + 1]; ++v)
            edges += g.outDegree(v);
        part_bytes[q] = (bounds[q + 1] - bounds[q]) *
                            (sizeof(EdgeId) + sizeof(Value)) +
                        edges * (sizeof(VertexId) + sizeof(Value));
    }

    // State: flat per-vertex/per-edge arrays (async reads the latest
    // values in place; no double buffer).
    FlatState flat = initialState(g, algo);
    auto &state = flat.vertex;
    auto &edge_state = flat.edge;
    std::vector<std::uint8_t> active(n, 0);
    std::vector<std::uint8_t> part_active(nparts, 0);
    for (VertexId v = 0; v < n; ++v) {
        if (options.force_all_active || algo.initActive(g, v)) {
            active[v] = 1;
            part_active[partition_of(v)] = 1;
        }
    }

    std::vector<std::uint8_t> uploaded(nparts, 0);
    result.partition_process_count.assign(nparts, 0);
    // Dependency stalls: a partition cannot re-run before its previous
    // pass finished, nor before the activation message that woke it up
    // arrived.
    std::vector<double> part_done(nparts, 0.0);
    std::vector<double> part_msg_ready(nparts, 0.0);

    const unsigned lanes = options.platform.lanesPerSmx();
    const double per_edge_cycles =
        options.platform.cycles_per_edge +
        3.0 * options.platform.cycles_per_global_access;

    std::size_t dispatches = 0;

    // Dispatching is organized in waves (the batched-kernel granularity
    // of a real GPU runtime): a partition runs at most once per wave;
    // activations arriving after its dispatch carry to the next wave.
    std::vector<std::uint64_t> wave_stamp(nparts, 0);
    std::uint64_t wave = 1;
    for (;;) {
        // Pick the active partition (not yet run this wave) whose device
        // is least busy (models parallel devices pulling worklists).
        PartitionId pick = kInvalidPartition;
        double best_clock = 0.0;
        for (PartitionId q = 0; q < nparts; ++q) {
            if (!part_active[q] || wave_stamp[q] >= wave)
                continue;
            const double c =
                platform.device(device_of_part[q]).clock();
            if (pick == kInvalidPartition || c < best_clock) {
                pick = q;
                best_clock = c;
            }
        }
        if (pick == kInvalidPartition) {
            if (!engine::anyActive(part_active))
                break;
            ++wave;
            continue;
        }
        if (dispatches >= options.max_rounds)
            break;
        wave_stamp[pick] = wave;
        ++dispatches;
        counters.add(metrics::Counter::PartitionProcessings);
        ++result.partition_process_count[pick];
        counters.add(metrics::Counter::Rounds);
        part_active[pick] = 0;

        const DeviceId d = device_of_part[pick];
        auto &device = platform.device(d);
        double ready = std::max(
            {device.smx(device.leastLoadedSmx()).clock(),
             part_done[pick], part_msg_ready[pick]});
        if (!uploaded[pick]) {
            uploaded[pick] = 1;
            const double done =
                device.hostLink().transfer(ready, part_bytes[pick]);
            counters.add(metrics::Counter::HostTransferBytes,
                         part_bytes[pick]);
            report.comm_cycles += device.hostLink().cost(part_bytes[pick]);
            ready = done;
        }

        const VertexId lo = bounds[pick], hi = bounds[pick + 1];

        std::uint64_t active_count = 0, touched_edges = 0;
        std::vector<std::uint64_t> lane_work;
        std::vector<VertexId> newly_active;
        std::unordered_map<PartitionId, std::uint32_t> messages;

        for (VertexId u = lo; u < hi; ++u) {
            if (!active[u])
                continue;
            active[u] = 0;
            ++active_count;
            const auto nbrs = g.outNeighbors(u);
            const auto out_deg = static_cast<std::uint32_t>(nbrs.size());
            lane_work.push_back(out_deg);
            touched_edges += out_deg;
            // Asynchronous kernels read the latest global values; an
            // already-processed vertex still only sees new state on the
            // next pass (it is not re-queued within one pass).
            const Value src = state[u];
            for (std::size_t k = 0; k < nbrs.size(); ++k) {
                const EdgeId e = g.outEdgeId(u, k);
                const VertexId w = nbrs[k];
                counters.add(metrics::Counter::EdgeProcessings);
                if (algo.processEdge(src, edge_state[e], e,
                                     g.edgeWeight(e), out_deg,
                                     state[w])) {
                    counters.add(metrics::Counter::VertexUpdates);
                    newly_active.push_back(w);
                    // Every remote update crosses the interconnect
                    // (vertex-centric engines push deltas eagerly).
                    const PartitionId qw = partition_of(w);
                    if (qw != pick)
                        ++messages[qw];
                }
            }
        }

        counters.add(metrics::Counter::LoadedVertices,
                     active_count + touched_edges);
        const std::size_t load_bytes =
            (active_count + touched_edges) * sizeof(Value) +
            touched_edges * (sizeof(VertexId) + sizeof(Value));
        device.addGlobalLoad(load_bytes);

        // Activations: local ones re-activate this partition; remote ones
        // are messages to the owning partition's device.
        std::vector<PartitionId> woken;
        for (const VertexId w : newly_active) {
            if (active[w])
                continue;
            active[w] = 1;
            const PartitionId qw = partition_of(w);
            if (!part_active[qw]) {
                part_active[qw] = 1;
                if (qw != pick)
                    woken.push_back(qw);
            }
        }

        // Compute cost: active vertices packed into lane bins on one SMX.
        double done = ready;
        if (!lane_work.empty()) {
            std::stable_sort(lane_work.begin(), lane_work.end(),
                             std::greater<>());
            const std::size_t n_bins =
                std::min<std::size_t>(lane_work.size(), lanes);
            std::vector<std::uint64_t> bins(n_bins, 0);
            for (std::size_t i = 0; i < lane_work.size(); ++i)
                bins[i % n_bins] += lane_work[i];
            const double cycles =
                gpusim::warpCost(bins, per_edge_cycles) +
                static_cast<double>(newly_active.size()) *
                    options.platform.cycles_per_atomic;
            done = device.smx(device.leastLoadedSmx()).run(ready, cycles);
        }
        if (trace) {
            trace->event(metrics::TraceEventType::Dispatch, wave, pick,
                         ready, done - ready, active_count,
                         touched_edges);
        }

        // One ring transfer per destination device (batched messaging).
        std::vector<std::uint64_t> device_bytes(num_dev, 0);
        for (const auto &[dest, count] : messages) {
            const DeviceId dd = device_of_part[dest];
            if (dd != d) {
                device_bytes[dd] +=
                    static_cast<std::uint64_t>(count) * kMessageBytes;
            }
        }
        std::vector<double> device_arrive(num_dev, done);
        std::uint64_t remote_bytes = 0;
        for (DeviceId dd = 0; dd < num_dev; ++dd) {
            if (device_bytes[dd] == 0)
                continue;
            remote_bytes += device_bytes[dd];
            device_arrive[dd] =
                platform.ring().transfer(d, dd, done, device_bytes[dd]);
            report.comm_cycles +=
                options.platform.transfer_latency_cycles +
                static_cast<double>(device_bytes[dd]) /
                    options.platform.ring_bytes_per_cycle;
        }
        if (trace && remote_bytes > 0) {
            trace->event(metrics::TraceEventType::MirrorPush, wave, pick,
                         done, 0.0, remote_bytes / kMessageBytes,
                         remote_bytes);
        }
        for (const PartitionId dest : woken) {
            part_msg_ready[dest] = std::max(
                part_msg_ready[dest], device_arrive[device_of_part[dest]]);
        }
        part_done[pick] = done;

        if (active_count > 0) {
            result.dispatch_active_ratio.push_back(
                static_cast<double>(active_count) /
                static_cast<double>(hi - lo));
        }
    }

    counters.set(metrics::Counter::Waves, wave);
    counters.set(metrics::Counter::NumPartitions, nparts);
    counters.set(metrics::Counter::UsedVertices,
                 counters.get(metrics::Counter::VertexUpdates));
    counters.set(metrics::Counter::RingTransferBytes,
                 platform.ring().totalBytes());
    counters.set(metrics::Counter::GlobalLoadBytes,
                 platform.globalLoadBytes());
    counters.exportTo(report);
    if (trace)
        trace->setCounters(counters);
    report.final_state = std::move(state);
    report.sim_cycles = platform.makespan();
    report.utilization = platform.utilization();
    report.wall_seconds = wall.seconds();
    return result;
}

} // namespace digraph::baselines
