#include "engine/value_plane.hpp"

#include <algorithm>

#include "algorithms/multi_source.hpp"
#include "common/logging.hpp"

namespace digraph::engine {

void
ValuePlane::initializeState(const graph::DirectedGraph &g,
                            const algorithms::Algorithm &algo,
                            const WarmStart *warm)
{
    const std::vector<Value> *warm_v = warm ? warm->vertex_state : nullptr;
    const std::vector<Value> *warm_e = warm ? warm->edge_state : nullptr;
    if (warm_v && warm_v->size() != g.numVertices())
        panic("DiGraphEngine::run: warm state size mismatch");
    if (warm_e && warm_e->size() != g.numEdges())
        panic("DiGraphEngine::run: warm edge-state size mismatch");
    const auto *lane_algo =
        dynamic_cast<const algorithms::LaneAlgorithm *>(&algo);
    if (lane_algo) {
        storage.initialize(
            lane_algo->lanes(),
            [&](VertexId v, unsigned l) {
                return lane_algo->initVertexLane(g, v, l);
            },
            [&](EdgeId e, unsigned l) {
                return lane_algo->initEdgeLane(g, e, l);
            });
        return;
    }
    storage.initialize(
        1,
        [&](VertexId v, unsigned) {
            return warm_v ? (*warm_v)[v] : algo.initVertex(g, v);
        },
        [&](EdgeId e, unsigned) {
            if (warm_e)
                return (*warm_e)[e];
            return warm ? algo.warmEdgeState(
                              g, e, storage.vVal(g.edgeSource(e)))
                        : algo.initEdge(g, e);
        });
}

void
ValuePlane::beginRun(const partition::Preprocessed &pre)
{
    if (sync_ == nullptr)
        panic("ValuePlane::beginRun: no ReplicaSync attached");
    const PartitionId nparts = pre.numPartitions();
    const PathId npaths = pre.paths.numPaths();
    const std::size_t nslots = storage.eIdx().size();
    const std::size_t nentries = sync_->numMirrorEntries();
    // One activation width per run: flags at K = 1, lane masks above.
    const bool masked = laneMasked();
    slot_active.assign(masked ? 0 : nslots, 0);
    slot_lane_mask.assign(masked ? nslots : 0, 0);
    lane_active_slots.assign(
        masked ? static_cast<std::size_t>(nparts) * lanes() : 0, 0);
    master_version.assign(storage.numVertices(), 0);
    entry_seen.assign(nentries, 0);
    lane_version.assign(
        masked ? static_cast<std::size_t>(storage.numVertices()) * lanes()
               : 0,
        0);
    partition_active.assign(nparts, 0);
    path_active_count.assign(npaths, 0);
    dedupe_stamp_.assign(storage.numVertices(), 0);
    dedupe_pos_.assign(masked ? storage.numVertices() : 0, 0);
    dedupe_clock_ = 0;
    partition_dirty.resize(nparts);
    for (PartitionId q = 0; q < nparts; ++q) {
        partition_dirty[q].bind(
            storage.pathOffset(pre.partition_offsets[q]),
            storage.pathOffset(pre.partition_offsets[q + 1]));
    }
}

std::uint64_t
ValuePlane::activeLanes() const
{
    if (!laneMasked()) {
        return std::any_of(path_active_count.begin(),
                           path_active_count.end(),
                           [](std::uint32_t n) { return n != 0; });
    }
    const unsigned k = lanes();
    std::uint64_t mask = 0;
    for (std::size_t i = 0; i < lane_active_slots.size(); ++i) {
        if (lane_active_slots[i])
            mask |= std::uint64_t{1} << (i % k);
    }
    return mask;
}

void
ValuePlane::initCheckpoint(const graph::DirectedGraph &g,
                           const partition::Preprocessed &pre)
{
    // Epoch-0 checkpoint: the freshly-initialized state. Later epochs
    // only copy journalled-dirty entries.
    const auto vvals = storage.vVals();
    ckpt_v.assign(vvals.begin(), vvals.end());
    const auto evals = storage.eVals();
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
    if (path_active_count.size() != np) // run() has not initialized yet
        return slot_active.empty() && slot_lane_mask.empty();
    const bool masked = laneMasked();
    const std::size_t nslots = sync_->numSlots();
    if ((masked ? slot_lane_mask.size() : slot_active.size()) != nslots)
        return false;
    std::vector<std::uint32_t> recount(np, 0);
    for (std::uint64_t s = 0; s < nslots; ++s) {
        if (masked ? slot_lane_mask[s] != 0 : slot_active[s] != 0)
            ++recount[sync_->pathOfSlot(s)];
    }
    for (PathId q = 0; q < np; ++q) {
        if (recount[q] != path_active_count[q])
            return false;
    }
    // Versions: no entry has absorbed a version its master has not
    // reached, and a stale consumer entry's partition is active (the
    // barrier that moved the version woke it).
    if (entry_seen.size() != sync_->numMirrorEntries())
        return false;
    for (PartitionId q = 0; q < pre.numPartitions(); ++q) {
        // The consumer entries come first.
        std::size_t consumers = sync_->partitionConsumerEntries(q).size();
        for (const MirrorEntryId k : sync_->partitionEntries(q)) {
            const bool consumer = consumers > 0;
            consumers -= consumer;
            const std::uint32_t version =
                master_version[sync_->entryVertex(k)];
            if (entry_seen[k] > version)
                return false;
            if (entry_seen[k] != version && consumer &&
                !partition_active[q])
                return false;
        }
    }
    if (masked) {
        // Lane masks stay within K lanes, and the per-(partition, lane)
        // counters recount.
        const unsigned k = lanes();
        const std::uint64_t full =
            k == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << k) - 1;
        std::vector<std::uint64_t> lane_recount(lane_active_slots.size(),
                                                0);
        for (std::uint64_t s = 0; s < nslots; ++s) {
            const std::uint64_t mask = slot_lane_mask[s];
            if (mask & ~full)
                return false;
            if (mask == 0)
                continue;
            const std::size_t base =
                static_cast<std::size_t>(sync_->partitionOfSlot(s)) * k;
            forEachLane<0>(mask,
                           [&](unsigned l) { ++lane_recount[base + l]; });
        }
        if (lane_recount != lane_active_slots)
            return false;
        // Each master version is the latest of its lanes' versions.
        if (lane_version.size() != master_version.size() * k)
            return false;
        for (std::size_t v = 0; v < master_version.size(); ++v) {
            const auto first = lane_version.begin() +
                               static_cast<std::ptrdiff_t>(v * k);
            if (*std::max_element(first, first + k) != master_version[v])
                return false;
        }
    } else if (!lane_version.empty()) {
        return false;
    }
    return true;
}

std::size_t
ValuePlane::memoryBytes() const
{
    std::size_t bytes = storage.valueBytes();
    bytes += slot_active.size() * sizeof(std::uint8_t);
    bytes += (master_version.size() + entry_seen.size() +
              lane_version.size()) *
             sizeof(std::uint32_t);
    bytes += partition_active.size() * sizeof(std::uint8_t);
    bytes += path_active_count.size() * sizeof(std::uint32_t);
    bytes += (dedupe_stamp_.size() + dedupe_pos_.size()) *
             sizeof(std::uint32_t);
    for (const auto &dirty : partition_dirty)
        bytes += dirty.memoryBytes();
    bytes += slot_lane_mask.size() * sizeof(std::uint64_t);
    bytes += lane_active_slots.size() * sizeof(std::uint64_t);
    bytes += (ckpt_v.size() + ckpt_e.size()) * sizeof(Value);
    bytes += ckpt_v_dirty.size() * sizeof(std::uint8_t);
    bytes += ckpt_v_dirty_list.capacity() * sizeof(VertexId);
    bytes += ckpt_part_dirty.size() * sizeof(std::uint8_t);
    bytes += ckpt_part_dirty_list.capacity() * sizeof(PartitionId);
    return bytes;
}

} // namespace digraph::engine
