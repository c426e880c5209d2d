#include "engine/value_plane.hpp"

#include <algorithm>

#include "common/logging.hpp"

namespace digraph::engine {

void
ValuePlane::beginRun(const partition::Preprocessed &pre)
{
    if (sync_ == nullptr)
        panic("ValuePlane::beginRun: no ReplicaSync attached");
    const PartitionId nparts = pre.numPartitions();
    const PathId npaths = pre.paths.numPaths();
    slot_active.assign(storage.eIdx().size(), 0);
    master_version.assign(storage.numVertices(), 0);
    slot_seen_version.assign(storage.eIdx().size(), 0);
    partition_active.assign(nparts, 0);
    path_active_count.assign(npaths, 0);
    path_in_worklist.assign(npaths, 0);
    partition_worklist.assign(nparts, {});
    stale_queue.assign(nparts, {});
    stale_pending.assign(sync_->numMirrorEntries(), 0);
    stale_pending_lanes.clear();
    partition_dirty.resize(nparts);
    for (PartitionId q = 0; q < nparts; ++q) {
        partition_dirty[q].bind(
            storage.pathOffset(pre.partition_offsets[q]),
            storage.pathOffset(pre.partition_offsets[q + 1]));
    }
    // Scalar by default; a lane run re-populates via initializeLanes().
    lane_count = 0;
    lane_full_mask = 0;
    lane_v.clear();
    lane_s.clear();
    lane_loaded.clear();
    lane_e.clear();
    slot_lane_mask.clear();
    lane_active_slots.clear();
}

void
ValuePlane::initializeLanes(const graph::DirectedGraph &g,
                            const algorithms::LaneAlgorithm &algo,
                            const partition::Preprocessed &pre)
{
    const unsigned k = algo.lanes();
    if (k == 0 || k > algorithms::kMaxValueLanes)
        panic("ValuePlane::initializeLanes: bad lane count ", k);
    lane_count = k;
    lane_full_mask = k == 64 ? ~std::uint64_t{0}
                             : (std::uint64_t{1} << k) - 1;
    const VertexId nv = storage.numVertices();
    lane_v.resize(static_cast<std::size_t>(nv) * k);
    for (VertexId v = 0; v < nv; ++v) {
        for (unsigned l = 0; l < k; ++l)
            lane_v[static_cast<std::size_t>(v) * k + l] =
                algo.initVertexLane(g, v, l);
    }
    const std::size_t nslots = storage.eIdx().size();
    lane_s.resize(nslots * k);
    lane_loaded.resize(nslots * k);
    for (std::size_t s = 0; s < nslots; ++s) {
        const std::size_t src =
            static_cast<std::size_t>(storage.vertexAt(s)) * k;
        for (unsigned l = 0; l < k; ++l) {
            lane_s[s * k + l] = lane_v[src + l];
            lane_loaded[s * k + l] = lane_v[src + l];
        }
    }
    const std::size_t nedges = storage.layout().numPathEdges();
    lane_e.resize(nedges * k);
    for (std::size_t i = 0; i < nedges; ++i) {
        const EdgeId e = storage.edgeIdAt(i);
        for (unsigned l = 0; l < k; ++l)
            lane_e[i * k + l] = algo.initEdgeLane(g, e, l);
    }
    slot_lane_mask.assign(nslots, 0);
    lane_active_slots.assign(
        static_cast<std::size_t>(pre.numPartitions()) * k, 0);
    stale_pending_lanes.assign(sync_->numMirrorEntries(), 0);
    stale_pending.clear();
}

void
ValuePlane::initializeState(const graph::DirectedGraph &g,
                            const algorithms::Algorithm &algo,
                            const WarmStart *warm)
{
    std::vector<Value> vinit(g.numVertices());
    if (warm && warm->vertex_state) {
        if (warm->vertex_state->size() != g.numVertices())
            panic("DiGraphEngine::run: warm state size mismatch");
        vinit = *warm->vertex_state;
    } else {
        for (VertexId v = 0; v < g.numVertices(); ++v)
            vinit[v] = algo.initVertex(g, v);
    }
    std::vector<Value> einit(g.numEdges());
    if (warm && warm->edge_state) {
        if (warm->edge_state->size() != g.numEdges())
            panic("DiGraphEngine::run: warm edge-state size mismatch");
        einit = *warm->edge_state;
    } else {
        for (EdgeId e = 0; e < g.numEdges(); ++e) {
            einit[e] = warm ? algo.warmEdgeState(g, e,
                                                 vinit[g.edgeSource(e)])
                            : algo.initEdge(g, e);
        }
    }
    storage.initialize(vinit, einit);
}

void
ValuePlane::initFlat(const graph::DirectedGraph &g,
                     const algorithms::Algorithm &algo, bool double_buffer)
{
    vertex_values.resize(g.numVertices());
    for (VertexId v = 0; v < g.numVertices(); ++v)
        vertex_values[v] = algo.initVertex(g, v);
    edge_values.resize(g.numEdges());
    for (EdgeId e = 0; e < g.numEdges(); ++e)
        edge_values[e] = algo.initEdge(g, e);
    vertex_active.assign(g.numVertices(), 0);
    if (double_buffer) {
        vertex_values_next = vertex_values;
        vertex_active_next.assign(g.numVertices(), 0);
    } else {
        vertex_values_next.clear();
        vertex_active_next.clear();
    }
}

void
ValuePlane::initCheckpoint(const graph::DirectedGraph &g,
                           const partition::Preprocessed &pre)
{
    // Epoch-0 checkpoint: the freshly-initialized state. Later epochs
    // only copy journalled-dirty entries.
    const auto vvals = storage.vVals();
    ckpt_v.assign(vvals.begin(), vvals.end());
    const auto evals = storage.eVal();
    ckpt_e.assign(evals.begin(), evals.end());
    ckpt_v_dirty.assign(g.numVertices(), 0);
    ckpt_v_dirty_list.clear();
    ckpt_part_dirty.assign(pre.numPartitions(), 0);
    ckpt_part_dirty_list.clear();
    ckpt_wave = 0;
}

void
ValuePlane::copyPartitionEval(const partition::Preprocessed &pre,
                              PartitionId p, bool to_checkpoint)
{
    // Path q's edges occupy E_val indexes
    // [pathOffset(q) - q, pathOffset(q + 1) - q - 1); for the contiguous
    // path range [path_lo, path_hi) of a partition the union telescopes
    // to [pathOffset(path_lo) - path_lo, pathOffset(path_hi) - path_hi).
    const std::uint32_t path_lo = pre.partition_offsets[p];
    const std::uint32_t path_hi = pre.partition_offsets[p + 1];
    const std::uint64_t lo = storage.pathOffset(path_lo) - path_lo;
    const std::uint64_t hi = storage.pathOffset(path_hi) - path_hi;
    auto live = storage.eVals();
    if (to_checkpoint) {
        std::copy(live.begin() + static_cast<std::ptrdiff_t>(lo),
                  live.begin() + static_cast<std::ptrdiff_t>(hi),
                  ckpt_e.begin() + static_cast<std::ptrdiff_t>(lo));
    } else {
        std::copy(ckpt_e.begin() + static_cast<std::ptrdiff_t>(lo),
                  ckpt_e.begin() + static_cast<std::ptrdiff_t>(hi),
                  live.begin() + static_cast<std::ptrdiff_t>(lo));
    }
}

bool
ValuePlane::bookkeepingConsistent(const partition::Preprocessed &pre) const
{
    const PathId np = pre.paths.numPaths();
    if (path_active_count.size() != np)
        return slot_active.empty(); // run() has not initialized yet
    std::vector<std::uint32_t> recount(np, 0);
    for (std::uint64_t s = 0; s < slot_active.size(); ++s) {
        if (slot_active[s])
            ++recount[sync_->pathOfSlot(s)];
    }
    for (PathId q = 0; q < np; ++q) {
        if (recount[q] != path_active_count[q])
            return false;
        if (recount[q] > 0 && !path_in_worklist[q])
            return false;
    }
    std::vector<std::uint8_t> listed(np, 0);
    for (PartitionId q = 0; q < pre.numPartitions(); ++q) {
        for (const PathId path : partition_worklist[q]) {
            if (listed[path] || !path_in_worklist[path] ||
                sync_->partitionOfPath(path) != q) {
                return false;
            }
            listed[path] = 1;
        }
    }
    for (PathId q = 0; q < np; ++q) {
        if (path_in_worklist[q] && !listed[q])
            return false;
    }
    // Stale queues: each queued vertex is mirrored by the queue's
    // partition, appears once, and holds that entry's pending flag
    // (lane runs: a nonzero mask); every pending entry is queued.
    const std::size_t nentries = sync_->numMirrorEntries();
    const bool lanes = lane_count > 0;
    if ((lanes ? stale_pending_lanes.size() : stale_pending.size()) !=
        nentries)
        return false;
    const auto pending = [&](std::uint64_t k) {
        return lanes ? stale_pending_lanes[k] != 0 : stale_pending[k] != 0;
    };
    std::vector<std::uint8_t> queued(nentries, 0);
    for (PartitionId q = 0; q < pre.numPartitions(); ++q) {
        for (const VertexId v : stale_queue[q]) {
            const std::uint64_t k = sync_->mirrorEntry(v, q);
            if (k == nentries || queued[k] || !pending(k))
                return false;
            queued[k] = 1;
        }
    }
    for (std::uint64_t k = 0; k < nentries; ++k) {
        if (pending(k) && !queued[k])
            return false;
    }
    if (lanes) {
        // Lane invariants: the scalar slot flag tracks the union over
        // lanes, and the per-(partition, lane) counters recount.
        std::vector<std::uint64_t> lane_recount(lane_active_slots.size(),
                                                0);
        for (std::uint64_t s = 0; s < slot_lane_mask.size(); ++s) {
            const std::uint64_t mask = slot_lane_mask[s];
            if ((mask != 0) != (slot_active[s] != 0))
                return false;
            if (mask & ~lane_full_mask)
                return false;
            std::uint64_t m = mask;
            const std::size_t base =
                static_cast<std::size_t>(sync_->partitionOfSlot(s)) *
                lane_count;
            while (m) {
                const unsigned l =
                    static_cast<unsigned>(std::countr_zero(m));
                m &= m - 1;
                ++lane_recount[base + l];
            }
        }
        if (lane_recount != lane_active_slots)
            return false;
    }
    return true;
}

std::size_t
ValuePlane::memoryBytes() const
{
    std::size_t bytes = storage.valueBytes();
    bytes += slot_active.size() * sizeof(std::uint8_t);
    bytes += master_version.size() * sizeof(std::uint32_t);
    bytes += slot_seen_version.size() * sizeof(std::uint32_t);
    bytes += partition_active.size() * sizeof(std::uint8_t);
    bytes += path_active_count.size() * sizeof(std::uint32_t);
    bytes += path_in_worklist.size() * sizeof(std::uint8_t);
    for (const auto &wl : partition_worklist)
        bytes += wl.capacity() * sizeof(PathId);
    for (const auto &queue : stale_queue)
        bytes += queue.capacity() * sizeof(VertexId);
    bytes += stale_pending.size() * sizeof(std::uint8_t);
    bytes += stale_pending_lanes.size() * sizeof(std::uint64_t);
    for (const auto &dirty : partition_dirty)
        bytes += dirty.memoryBytes();
    bytes += (lane_v.size() + lane_s.size() + lane_loaded.size() +
              lane_e.size()) *
             sizeof(Value);
    bytes += slot_lane_mask.size() * sizeof(std::uint64_t);
    bytes += lane_active_slots.size() * sizeof(std::uint64_t);
    bytes += (ckpt_v.size() + ckpt_e.size()) * sizeof(Value);
    bytes += ckpt_v_dirty.size() * sizeof(std::uint8_t);
    bytes += ckpt_v_dirty_list.capacity() * sizeof(VertexId);
    bytes += ckpt_part_dirty.size() * sizeof(std::uint8_t);
    bytes += ckpt_part_dirty_list.capacity() * sizeof(PartitionId);
    bytes += (vertex_values.size() + vertex_values_next.size() +
              edge_values.size()) *
             sizeof(Value);
    bytes += (vertex_active.size() + vertex_active_next.size()) *
             sizeof(std::uint8_t);
    return bytes;
}

} // namespace digraph::engine
