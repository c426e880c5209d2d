#include "baselines/bsp_engine.hpp"

#include <algorithm>
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

/** Approximate CSR bytes for a device's vertex chunk. */
std::size_t
chunkBytes(const graph::DirectedGraph &g, VertexId lo, VertexId hi)
{
    std::size_t edges = 0;
    for (VertexId v = lo; v < hi; ++v)
        edges += g.outDegree(v);
    return (hi - lo) * (sizeof(EdgeId) + sizeof(Value)) +
           edges * (sizeof(VertexId) + sizeof(Value));
}

} // namespace

metrics::RunReport
runBsp(const graph::DirectedGraph &g, const algorithms::Algorithm &algo,
       const BaselineOptions &options)
{
    if (const std::string err = options.validate(); !err.empty())
        fatal("runBsp: invalid options: ", err);
    WallTimer wall;
    metrics::RunReport report;
    report.system = "bsp";
    report.algorithm = algo.name();
    metrics::CounterRegistry counters;
    metrics::TraceSink *const trace = options.trace;

    gpusim::Platform platform(options.platform);
    const unsigned num_dev = platform.numDevices();
    report.num_gpus = num_dev;

    const VertexId n = g.numVertices();

    // One contiguous vertex chunk per device, balanced by edges.
    std::vector<VertexId> dev_bounds{0};
    {
        const std::size_t per_dev =
            (g.numEdges() + num_dev - 1) / std::max(1u, num_dev);
        std::size_t filled = 0;
        for (VertexId v = 0; v < n && dev_bounds.size() < num_dev; ++v) {
            filled += g.outDegree(v);
            if (filled >= per_dev * dev_bounds.size())
                dev_bounds.push_back(v + 1);
        }
        while (dev_bounds.size() < num_dev + 1)
            dev_bounds.push_back(n);
    }
    auto device_of = [&](VertexId v) {
        const auto it = std::upper_bound(dev_bounds.begin(),
                                         dev_bounds.end(), v);
        return static_cast<DeviceId>(it - dev_bounds.begin() - 1);
    };
    report.num_partitions = num_dev;

    // Initial graph upload, one chunk per device.
    double barrier = 0.0;
    for (DeviceId d = 0; d < num_dev; ++d) {
        const std::size_t bytes =
            chunkBytes(g, dev_bounds[d], dev_bounds[d + 1]);
        const double done =
            platform.device(d).hostLink().transfer(0.0, bytes);
        counters.add(metrics::Counter::HostTransferBytes, bytes);
        report.comm_cycles += platform.device(d).hostLink().cost(bytes);
        barrier = std::max(barrier, done);
    }

    // State: flat per-vertex/per-edge arrays, double buffered (BSP
    // reads round-start values).
    FlatState state = initialState(g, algo);
    auto &prev = state.vertex;
    std::vector<Value> next = prev;
    auto &edge_state = state.edge;
    std::vector<std::uint8_t> active(n, 0);
    std::vector<std::uint8_t> next_active(n, 0);
    for (VertexId v = 0; v < n; ++v) {
        active[v] =
            options.force_all_active || algo.initActive(g, v) ? 1 : 0;
    }
    bool any = engine::anyActive(active);

    const unsigned lanes = options.platform.lanesPerSmx();
    const double per_edge_cycles =
        options.platform.cycles_per_edge +
        3.0 * options.platform.cycles_per_global_access;

    while (any &&
           counters.get(metrics::Counter::Rounds) < options.max_rounds) {
        counters.add(metrics::Counter::Rounds);
        any = false;
        const std::uint64_t round = counters.get(metrics::Counter::Rounds);
        if (trace) {
            trace->event(metrics::TraceEventType::WaveStart, round,
                         metrics::kTraceNoPartition, barrier, 0.0,
                         num_dev);
        }

        // Cross-device activation counts for end-of-round messaging.
        std::vector<std::vector<std::uint32_t>> remote(
            num_dev, std::vector<std::uint32_t>(num_dev, 0));

        double round_end = barrier;
        for (DeviceId d = 0; d < num_dev; ++d) {
            auto &device = platform.device(d);
            double device_end = barrier;
            std::vector<std::uint64_t> lane_work;
            std::uint64_t touched_edges = 0;
            std::uint64_t active_count = 0;
            for (VertexId u = dev_bounds[d]; u < dev_bounds[d + 1]; ++u) {
                if (!active[u])
                    continue;
                ++active_count;
                const auto nbrs = g.outNeighbors(u);
                const auto out_deg =
                    static_cast<std::uint32_t>(nbrs.size());
                lane_work.push_back(out_deg);
                touched_edges += out_deg;
                for (std::size_t k = 0; k < nbrs.size(); ++k) {
                    const EdgeId e = g.outEdgeId(u, k);
                    const VertexId w = nbrs[k];
                    counters.add(metrics::Counter::EdgeProcessings);
                    if (algo.processEdge(prev[u], edge_state[e], e,
                                         g.edgeWeight(e), out_deg,
                                         next[w])) {
                        counters.add(metrics::Counter::VertexUpdates);
                        // Remote contributions are combined per vertex
                        // before the end-of-round exchange (frontier
                        // engines aggregate locally).
                        if (!next_active[w]) {
                            next_active[w] = 1;
                            const DeviceId dw = device_of(w);
                            if (dw != d)
                                ++remote[d][dw];
                        }
                    }
                }
            }
            counters.add(metrics::Counter::LoadedVertices,
                         active_count + touched_edges);
            const std::size_t load_bytes =
                (active_count + touched_edges) * sizeof(Value) +
                touched_edges * (sizeof(VertexId) + sizeof(Value));
            device.addGlobalLoad(load_bytes);

            // Spread lane bins over all SMXs, gated on the barrier.
            if (!lane_work.empty()) {
                std::stable_sort(lane_work.begin(), lane_work.end(),
                                 std::greater<>());
                const std::size_t n_bins = std::min<std::size_t>(
                    lane_work.size(),
                    static_cast<std::size_t>(lanes) * device.numSmxs());
                std::vector<std::uint64_t> bins(n_bins, 0);
                for (std::size_t i = 0; i < lane_work.size(); ++i)
                    bins[i % n_bins] += lane_work[i];
                const std::size_t groups =
                    (n_bins + lanes - 1) / lanes;
                for (std::size_t k = 0; k < groups; ++k) {
                    std::vector<std::uint64_t> group(
                        bins.begin() + k * lanes,
                        bins.begin() +
                            std::min(n_bins, (k + 1) * lanes));
                    const double cycles =
                        gpusim::warpCost(group, per_edge_cycles);
                    const double done =
                        device.smx(device.leastLoadedSmx())
                            .run(barrier, cycles);
                    device_end = std::max(device_end, done);
                }
                round_end = std::max(round_end, device_end);
            }
            if (trace && active_count > 0) {
                trace->event(metrics::TraceEventType::Dispatch, round, d,
                             barrier, device_end - barrier, active_count,
                             touched_edges);
            }
        }

        // End-of-round synchronization: remote activations travel the
        // ring; every device then waits at the global barrier.
        const double exchange_begin = round_end;
        std::uint64_t remote_messages = 0;
        for (DeviceId a = 0; a < num_dev; ++a) {
            for (DeviceId b = 0; b < num_dev; ++b) {
                if (remote[a][b] == 0)
                    continue;
                remote_messages += remote[a][b];
                const std::uint64_t bytes =
                    static_cast<std::uint64_t>(remote[a][b]) *
                    kMessageBytes;
                const double done = platform.ring().transfer(
                    a, b, round_end, bytes);
                report.comm_cycles +=
                    options.platform.transfer_latency_cycles +
                    static_cast<double>(bytes) /
                        options.platform.ring_bytes_per_cycle;
                round_end = std::max(round_end, done);
            }
        }
        if (trace) {
            trace->event(metrics::TraceEventType::MergeBarrier, round,
                         metrics::kTraceNoPartition, exchange_begin,
                         round_end - exchange_begin, remote_messages);
            trace->event(metrics::TraceEventType::WaveEnd, round,
                         metrics::kTraceNoPartition, round_end, 0.0,
                         num_dev);
        }
        barrier = round_end;

        prev = next;
        active.swap(next_active);
        std::fill(next_active.begin(), next_active.end(), 0);
        any = engine::anyActive(active);
    }

    counters.set(metrics::Counter::Waves,
                 counters.get(metrics::Counter::Rounds));
    counters.set(metrics::Counter::NumPartitions, num_dev);
    counters.set(metrics::Counter::UsedVertices,
                 counters.get(metrics::Counter::VertexUpdates));
    counters.set(metrics::Counter::RingTransferBytes,
                 platform.ring().totalBytes());
    counters.set(metrics::Counter::GlobalLoadBytes,
                 platform.globalLoadBytes());
    counters.exportTo(report);
    if (trace)
        trace->setCounters(counters);
    report.final_state = std::move(prev);
    report.sim_cycles = std::max(barrier, platform.makespan());
    report.utilization = platform.utilization();
    report.wall_seconds = wall.seconds();
    return report;
}

} // namespace digraph::baselines
