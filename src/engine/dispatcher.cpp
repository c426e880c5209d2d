#include "engine/dispatcher.hpp"

#include <algorithm>
#include <functional>
#include <numeric>

#include "graph/builder.hpp"
#include "graph/scc.hpp"
#include "graph/traversal.hpp"
#include "gpusim/platform.hpp"

namespace digraph::engine {

void
Dispatcher::build(const partition::Preprocessed &pre,
                  const ReplicaSync &sync,
                  const storage::PathLayout &layout,
                  VertexId num_vertices)
{
    pre_ = &pre;
    const PathId np = pre.paths.numPaths();
    const PartitionId nparts = pre.numPartitions();
    nparts_ = nparts;

    // Partition-interference matrix: partitions sharing any vertex never
    // share a waveOrder() chunk. Vertices mirrored by more partitions
    // than the cap are hubs: their partitions are flagged as interfering
    // with everything, which bounds the build at kHubFanoutCap * mirror
    // entries.
    constexpr std::uint64_t kHubFanoutCap = 32;
    interference_.assign(static_cast<std::size_t>(nparts) * nparts, 0);
    interferes_all_.assign(nparts, 0);
    for (VertexId v = 0; v < num_vertices; ++v) {
        const auto parts = sync.mirrorPartitions(v);
        const std::uint64_t fanout = parts.size();
        if (fanout < 2)
            continue;
        if (fanout > kHubFanoutCap) {
            for (const PartitionId q : parts)
                interferes_all_[q] = 1;
            continue;
        }
        for (std::size_t i = 0; i < parts.size(); ++i) {
            for (std::size_t j = i + 1; j < parts.size(); ++j) {
                const PartitionId a = parts[i];
                const PartitionId b = parts[j];
                interference_[static_cast<std::size_t>(a) * nparts + b] =
                    1;
                interference_[static_cast<std::size_t>(b) * nparts + a] =
                    1;
            }
        }
    }

    // Partition precursors via the DAG sketch: partitions holding paths
    // of precursor SCC-vertices. SCC-vertices consisting only of
    // auxiliary star hubs (see buildDependencyGraph) carry no paths, so
    // dependencies are resolved *through* them to the nearest
    // path-bearing ancestors.
    std::vector<std::vector<PartitionId>> parts_of_scc(pre.dag.num_sccs);
    for (PathId p = 0; p < np; ++p)
        parts_of_scc[pre.scc_of_path[p]].push_back(
            sync.partitionOfPath(p));
    for (auto &v : parts_of_scc) {
        std::sort(v.begin(), v.end());
        v.erase(std::unique(v.begin(), v.end()), v.end());
    }

    // eff_parts[s]: partitions holding paths of the nearest path-bearing
    // ancestor SCC-vertices of s, resolved *through* path-less (aux-only)
    // SCC-vertices in topological order. Partition sets stay small
    // (bounded by the partition count), so relaying through the
    // dependency graph's star hubs cannot re-expand the quadratic
    // producer x consumer structure the stars compressed.
    std::vector<std::vector<PartitionId>> eff_parts(pre.dag.num_sccs);
    for (const VertexId s : graph::topologicalOrder(pre.dag.sketch)) {
        auto &mine = eff_parts[s];
        for (const VertexId t : pre.dag.sketch.inNeighbors(s)) {
            const auto &src = pre.dag.paths_in_scc[t].empty()
                                  ? eff_parts[t]
                                  : parts_of_scc[t];
            mine.insert(mine.end(), src.begin(), src.end());
        }
        std::sort(mine.begin(), mine.end());
        mine.erase(std::unique(mine.begin(), mine.end()), mine.end());
    }

    precursor_parts_.assign(nparts, {});
    for (PartitionId q = 0; q < nparts; ++q) {
        std::vector<PartitionId> pre_parts;
        SccId last = kInvalidScc;
        for (std::uint32_t p = pre.partition_offsets[q];
             p < pre.partition_offsets[q + 1]; ++p) {
            const SccId sv = pre.scc_of_path[p];
            if (sv == last)
                continue; // partition paths are SCC-sorted
            last = sv;
            pre_parts.insert(pre_parts.end(), eff_parts[sv].begin(),
                             eff_parts[sv].end());
        }
        std::sort(pre_parts.begin(), pre_parts.end());
        pre_parts.erase(std::unique(pre_parts.begin(), pre_parts.end()),
                        pre_parts.end());
        std::erase(pre_parts, q);
        precursor_parts_[q] = std::move(pre_parts);
    }

    // Partition-level dependency SCC groups (cyclically dependent
    // partitions must iterate together) and their condensed DAG, used
    // for the transitive upstream-quiescence readiness test. Besides the
    // inter-SCC precursor edges, partitions sharing one SCC-vertex are
    // mutually dependent (intra-SCC path dependencies are invisible in
    // the sketch), so a cycle is threaded through each such partition
    // set.
    {
        graph::GraphBuilder builder(nparts);
        for (PartitionId q = 0; q < nparts; ++q) {
            for (const PartitionId t : precursor_parts_[q])
                builder.addEdge(t, q);
        }
        for (SccId s = 0; s < pre.dag.num_sccs; ++s) {
            const auto &parts = parts_of_scc[s];
            if (parts.size() < 2)
                continue;
            for (std::size_t i = 0; i < parts.size(); ++i) {
                builder.addEdge(parts[i],
                                parts[(i + 1) % parts.size()]);
            }
        }
        const auto part_graph = builder.build();
        const auto scc = graph::computeScc(part_graph);
        partition_group_ = scc.component;
        group_dag_ = graph::condense(part_graph, scc);
        group_topo_ = graph::topologicalOrder(group_dag_);
    }

    // Partition byte footprints.
    partition_bytes_.resize(nparts);
    for (PartitionId q = 0; q < nparts; ++q) {
        partition_bytes_[q] = layout.rangeBytes(
            pre.partition_offsets[q], pre.partition_offsets[q + 1]);
    }

    // Pri(p) scale: alpha = 1 / (maxAvgDeg * maxN).
    double max_deg = 1.0;
    std::size_t max_n = 1;
    for (PathId p = 0; p < np; ++p) {
        max_deg = std::max(max_deg, pre.path_avg_degree[p]);
        max_n = std::max(max_n, pre.paths.pathLength(p) + 1);
    }
    pri_alpha_ = 1.0 / (max_deg * static_cast<double>(max_n));
}

std::vector<std::uint8_t>
Dispatcher::blockedGroups(
    const std::vector<std::uint8_t> &partition_active) const
{
    std::vector<std::uint8_t> active(group_dag_.numVertices(), 0);
    for (PartitionId q = 0; q < nparts_; ++q) {
        if (partition_active[q])
            active[partition_group_[q]] = 1;
    }
    std::vector<std::uint8_t> blocked(group_dag_.numVertices(), 0);
    for (const VertexId gid : group_topo_) {
        for (const VertexId succ : group_dag_.outNeighbors(gid)) {
            if (active[gid] || blocked[gid])
                blocked[succ] = 1;
        }
    }
    return blocked;
}

PartitionId
Dispatcher::choosePartition(
    const std::vector<std::uint64_t> &stamp, std::uint64_t wave,
    const std::vector<std::uint8_t> *blocked,
    const std::vector<std::uint8_t> &partition_active,
    bool dag_dispatch) const
{
    PartitionId best = kInvalidPartition;
    std::size_t best_pre = SIZE_MAX;
    std::uint32_t best_layer = UINT32_MAX;
    for (PartitionId q = 0; q < nparts_; ++q) {
        if (!partition_active[q] || stamp[q] >= wave)
            continue;
        if (blocked && dag_dispatch && (*blocked)[partition_group_[q]])
            continue;
        std::size_t active_pre = 0;
        if (!blocked && dag_dispatch) {
            for (const PartitionId t : precursor_parts_[q]) {
                if (partition_active[t] &&
                    partition_group_[t] != partition_group_[q]) {
                    ++active_pre;
                }
            }
        }
        const std::uint32_t layer = pre_->partition_layer[q];
        if (active_pre < best_pre ||
            (active_pre == best_pre && layer < best_layer)) {
            best = q;
            best_pre = active_pre;
            best_layer = layer;
        }
    }
    return best;
}

void
Dispatcher::waveOrder(std::vector<PartitionId> &batch) const
{
    std::vector<PartitionId> order;
    order.reserve(batch.size());
    std::vector<std::uint8_t> taken(batch.size(), 0);
    while (order.size() < batch.size()) {
        const std::size_t chunk_begin = order.size();
        for (std::size_t i = 0; i < batch.size(); ++i) {
            if (taken[i])
                continue;
            const PartitionId p = batch[i];
            const bool compatible =
                order.size() == chunk_begin ||
                (!interferes_all_[p] &&
                 std::none_of(
                     order.begin() +
                         static_cast<std::ptrdiff_t>(chunk_begin),
                     order.end(), [&](PartitionId m) {
                         return interferes_all_[m] ||
                                interference_[static_cast<std::size_t>(
                                                  p) *
                                                  nparts_ +
                                              m];
                     }));
            if (!compatible)
                continue;
            order.push_back(p);
            taken[i] = 1;
        }
    }
    batch.swap(order);
}

void
Dispatcher::orderByPriority(
    std::vector<PathId> &active_paths,
    const std::vector<std::uint32_t> &active_counts) const
{
    std::vector<std::size_t> idx(active_paths.size());
    std::iota(idx.begin(), idx.end(), 0);
    std::stable_sort(idx.begin(), idx.end(),
                     [&](std::size_t a, std::size_t b) {
                         const PathId pa = active_paths[a];
                         const PathId pb = active_paths[b];
                         const double pri_a =
                             pri_alpha_ * pre_->path_avg_degree[pa] *
                                 active_counts[a] -
                             static_cast<double>(pre_->path_layer[pa]);
                         const double pri_b =
                             pri_alpha_ * pre_->path_avg_degree[pb] *
                                 active_counts[b] -
                             static_cast<double>(pre_->path_layer[pb]);
                         return pri_a > pri_b;
                     });
    std::vector<PathId> ordered(active_paths.size());
    for (std::size_t i = 0; i < idx.size(); ++i)
        ordered[i] = active_paths[idx[i]];
    active_paths.swap(ordered);
}

std::vector<double>
Dispatcher::roundCost(const EngineOptions &options,
                      double per_edge_cycles,
                      const std::vector<PathId> &active_paths,
                      const std::vector<std::uint64_t> &processed_edges,
                      std::uint64_t proxy_pushes,
                      std::uint64_t atomic_pushes,
                      const std::vector<std::uint64_t> *extra_lane_edges,
                      double per_lane_cycles) const
{
    // Per-thread load balancing: paths are packed into lane bins by
    // work units (longest first); work stealing spreads bins over
    // several SMXs of the device. A path's work is its processed edges
    // at full cost plus a cheap coalesced skip-scan of its inactive
    // positions.
    const unsigned lanes = options.platform.lanesPerSmx();
    const double skip_frac = options.platform.cycles_per_global_access *
                             options.platform.coalesced_factor /
                             per_edge_cycles;
    std::vector<std::uint64_t> path_work(active_paths.size());
    for (std::size_t ap = 0; ap < active_paths.size(); ++ap) {
        const std::uint64_t len = pre_->paths.pathLength(active_paths[ap]);
        const std::uint64_t skipped =
            len > processed_edges[ap] ? len - processed_edges[ap] : 0;
        std::uint64_t work =
            processed_edges[ap] +
            static_cast<std::uint64_t>(static_cast<double>(skipped) *
                                       skip_frac);
        // Extra active value lanes of a stripe are predicated vector
        // lanes of the leader lane's instruction stream: no second edge
        // decode, only the lane's coalesced stripe words.
        if (extra_lane_edges != nullptr && per_edge_cycles > 0.0) {
            work += static_cast<std::uint64_t>(
                static_cast<double>((*extra_lane_edges)[ap]) *
                (per_lane_cycles / per_edge_cycles));
        }
        path_work[ap] = work;
    }
    std::stable_sort(path_work.begin(), path_work.end(),
                     std::greater<>());
    const unsigned max_groups =
        options.work_stealing ? options.platform.smx_per_device : 1;
    const unsigned n_bins = static_cast<unsigned>(std::min<std::size_t>(
        path_work.size(), static_cast<std::size_t>(lanes) * max_groups));
    std::vector<std::uint64_t> bins(std::max(1u, n_bins), 0);
    for (std::size_t i = 0; i < path_work.size(); ++i)
        bins[i % bins.size()] += path_work[i];
    // Pushes are issued by all participating threads in parallel;
    // per-lane sync cost is the per-thread share.
    const double sync_cycles =
        (static_cast<double>(proxy_pushes) *
             options.platform.cycles_per_shared_access +
         static_cast<double>(atomic_pushes) *
             options.platform.cycles_per_atomic) /
        std::max(1u, n_bins);
    // Work-stealing groups start together on different SMXs; the round
    // ends when the slowest group finishes.
    const unsigned groups = (n_bins + lanes - 1) / lanes;
    std::vector<double> group_cycles;
    group_cycles.reserve(std::max(1u, groups));
    for (unsigned k = 0; k < std::max(1u, groups); ++k) {
        std::vector<std::uint64_t> group(
            bins.begin() +
                std::min<std::size_t>(bins.size(), k * lanes),
            bins.begin() +
                std::min<std::size_t>(bins.size(), (k + 1) * lanes));
        if (group.empty())
            group.push_back(0);
        group_cycles.push_back(gpusim::warpCost(group, per_edge_cycles) +
                               sync_cycles);
    }
    return group_cycles;
}

std::size_t
Dispatcher::memoryBytes() const
{
    std::size_t bytes = interference_.size() * sizeof(std::uint8_t) +
                        interferes_all_.size() * sizeof(std::uint8_t) +
                        partition_group_.size() * sizeof(SccId) +
                        group_topo_.size() * sizeof(VertexId) +
                        partition_bytes_.size() * sizeof(std::size_t);
    for (const auto &v : precursor_parts_)
        bytes += v.size() * sizeof(PartitionId);
    return bytes;
}

} // namespace digraph::engine
