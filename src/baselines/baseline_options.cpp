#include "baselines/baseline_options.hpp"

#include <algorithm>

#include "algorithms/algorithm.hpp"

namespace digraph::baselines {

std::string
BaselineOptions::validate() const
{
    const auto &pc = platform;
    if (pc.num_devices == 0)
        return "platform.num_devices must be > 0";
    if (pc.smx_per_device == 0)
        return "platform.smx_per_device must be > 0";
    if (pc.warps_per_smx == 0)
        return "platform.warps_per_smx must be > 0";
    if (pc.global_mem_bytes == 0)
        return "platform.global_mem_bytes must be > 0";
    if (!(pc.host_link_bytes_per_cycle > 0.0))
        return "platform.host_link_bytes_per_cycle must be > 0";
    if (!(pc.ring_bytes_per_cycle > 0.0))
        return "platform.ring_bytes_per_cycle must be > 0";
    if (pc.transfer_latency_cycles < 0.0)
        return "platform.transfer_latency_cycles must be >= 0";
    if (pc.cycles_per_edge < 0.0)
        return "platform.cycles_per_edge must be >= 0";
    if (pc.num_streams == 0)
        return "platform.num_streams must be > 0";
    if (max_rounds == 0)
        return "max_rounds must be > 0";
    return "";
}

std::vector<VertexId>
vertexRangePartitions(const graph::DirectedGraph &g,
                      std::size_t edges_per_partition)
{
    const VertexId n = g.numVertices();
    std::vector<VertexId> bounds{0};
    std::size_t filled = 0;
    const std::size_t budget = std::max<std::size_t>(1, edges_per_partition);
    for (VertexId v = 0; v < n; ++v) {
        const std::size_t deg = g.outDegree(v);
        if (filled > 0 && filled + deg > budget) {
            bounds.push_back(v);
            filled = 0;
        }
        filled += deg;
    }
    bounds.push_back(n);
    return bounds;
}

std::size_t
defaultEdgeBudget(const graph::DirectedGraph &g,
                  const gpusim::PlatformConfig &platform)
{
    // Groute-style worklist chunks scale with the machine's parallelism.
    const std::size_t units = static_cast<std::size_t>(
        std::max(1u, platform.num_devices * platform.smx_per_device));
    return std::max<std::size_t>(256, g.numEdges() / (units * 8));
}

FlatState
initialState(const graph::DirectedGraph &g, const algorithms::Algorithm &algo)
{
    FlatState state;
    state.vertex.resize(g.numVertices());
    for (VertexId v = 0; v < g.numVertices(); ++v)
        state.vertex[v] = algo.initVertex(g, v);
    state.edge.resize(g.numEdges());
    for (EdgeId e = 0; e < g.numEdges(); ++e)
        state.edge[e] = algo.initEdge(g, e);
    return state;
}

} // namespace digraph::baselines
