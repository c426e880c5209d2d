#include "engine/options.hpp"

#include <algorithm>

namespace digraph::engine {

void
EngineOptions::resolvePartitionBudget(EdgeId num_edges)
{
    const std::size_t units = static_cast<std::size_t>(
        std::max(1u, 16 * platform.smx_per_device));
    preprocess.partition.edges_per_partition = std::max<std::size_t>(
        256, static_cast<std::size_t>(num_edges) / units);
}

std::string
EngineOptions::validate() const
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
    if (use_proxy && proxy_indegree_threshold == 0)
        return "proxy_indegree_threshold must be > 0 when proxies are on";
    if (max_local_rounds == 0)
        return "max_local_rounds must be > 0";
    if (!faults.empty()) {
        if (checkpoint_interval == 0)
            return "checkpoint_interval must be > 0 with faults enabled";
        if (const std::string err = faults.validate(pc); !err.empty())
            return err;
    }
    return "";
}

} // namespace digraph::engine
