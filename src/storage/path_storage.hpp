/**
 * @file
 * The paper's four-array directed-path storage (Section 3.2.1, Fig 4).
 *
 *  - E_idx: per-path vertex-id sequences, concatenated (two successive
 *    items describe one directed edge);
 *  - S_val: mirror state per E_idx slot (the replica a GPU thread reads
 *    and writes while walking the path);
 *  - E_val: per-edge algorithm value (e.g. the last-propagated source
 *    contribution), aligned with the edges of each path;
 *  - V_val: master state per vertex (one slot per vertex id);
 *  - PTable: offset of each path's first vertex in E_idx; two successive
 *    entries delimit a path.
 *
 * Because a partition's paths occupy consecutive PTable/E_idx ranges, a
 * warp assigned to a partition reads consecutive global memory — the
 * coalesced-access property the cost model rewards.
 *
 * The storage is split along the mutability boundary: PathLayout holds
 * the immutable topology arrays (PTable, E_idx, edge ids) and is shared
 * between concurrent jobs via shared_ptr; PathStorage adds the per-job
 * mutable value arrays (S_val, loaded snapshots, E_val, V_val) on top of
 * one layout.
 *
 * Every value array holds lanes() values per entry, striped entry-major
 * (vertex v * K + lane, slot * K + lane, path edge * K + lane), so the K
 * values of one vertex, slot or edge are contiguous. A scalar run is the
 * K = 1 case; batched multi-source runs (DESIGN.md §17) use K > 1.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/prefetch.hpp"
#include "common/types.hpp"
#include "graph/digraph.hpp"
#include "partition/path_set.hpp"

namespace digraph::storage {

/**
 * Incremental dirty-slot worklist over a contiguous E_idx slot range
 * (one partition). mark() appends a slot on its first marking; drain
 * callers take the slot list (sorting it if a deterministic order is
 * required) and reset() clears the marks in O(marked). Replaces the
 * per-round full-range sweeps of the mirror-push phase.
 */
class SlotDirtySet
{
  public:
    SlotDirtySet() = default;

    /** Bind to slot range [lo, hi); clears any previous state. */
    void
    bind(std::uint64_t lo, std::uint64_t hi)
    {
        lo_ = lo;
        marked_.assign(hi - lo, 0);
        slots_.clear();
    }

    /** Mark @p slot (must be inside the bound range) dirty. */
    void
    mark(std::uint64_t slot)
    {
        std::uint8_t &flag = marked_[slot - lo_];
        if (!flag) {
            flag = 1;
            slots_.push_back(slot);
        }
    }

    /** Slots marked since the last reset, in marking order. */
    const std::vector<std::uint64_t> &slots() const { return slots_; }

    /** Number of marked slots. */
    std::size_t size() const { return slots_.size(); }

    /** Unmark everything (O(marked), not O(range)). */
    void
    reset()
    {
        for (const std::uint64_t slot : slots_)
            marked_[slot - lo_] = 0;
        slots_.clear();
    }

    /** Bytes of the bound range flags plus the current worklist. */
    std::size_t
    memoryBytes() const
    {
        return marked_.size() * sizeof(std::uint8_t) +
               slots_.size() * sizeof(std::uint64_t);
    }

  private:
    std::uint64_t lo_ = 0;
    std::vector<std::uint8_t> marked_;
    std::vector<std::uint64_t> slots_;
};

/**
 * Immutable topology half of the four-array storage: PTable, E_idx and
 * the per-edge original-graph edge ids. Built once per preprocessing
 * result and shared (read-only) by every job running on it.
 */
class PathLayout
{
  public:
    PathLayout() = default;

    /** Materialize from @p paths (already in final partition order). */
    explicit PathLayout(const partition::PathSet &paths);

    /** Number of paths. */
    PathId numPaths() const
    {
        return ptable_.empty() ? 0
                               : static_cast<PathId>(ptable_.size() - 1);
    }

    /** Total E_idx slots. */
    std::size_t numSlots() const { return e_idx_.size(); }

    /** Total path edges (E_val length). */
    std::size_t numPathEdges() const { return edge_ids_.size(); }

    /** PTable entry: E_idx offset of path @p p's first vertex. */
    std::uint64_t pathOffset(PathId p) const { return ptable_[p]; }

    /** Raw E_idx array. */
    std::span<const VertexId> eIdx() const { return e_idx_; }

    /** Vertex id stored at E_idx slot @p slot. */
    VertexId vertexAt(std::uint64_t slot) const { return e_idx_[slot]; }

    /** Original graph edge id stored at E_val index @p i. */
    EdgeId edgeIdAt(std::uint64_t i) const { return edge_ids_[i]; }

    /** Raw per-path-edge original edge-id array. */
    std::span<const EdgeId> edgeIds() const { return edge_ids_; }

    /** Bytes a GPU must move to load path @p p (E_idx + S_val + E_val
     *  slices plus its PTable entry). */
    std::size_t pathBytes(PathId p) const;

    /** Bytes for a contiguous path range [first, last). */
    std::size_t rangeBytes(PathId first, PathId last) const;

    /** Host bytes of the layout arrays themselves. */
    std::size_t memoryBytes() const;

  private:
    std::vector<std::uint64_t> ptable_;
    std::vector<VertexId> e_idx_;
    std::vector<EdgeId> edge_ids_;
};

/**
 * The four arrays plus PTable: one shared immutable PathLayout plus this
 * instance's own mutable value arrays (per-job state), lanes() values
 * per entry.
 */
class PathStorage
{
  public:
    PathStorage() = default;

    /** Build a fresh private layout from @p paths over @p g. */
    PathStorage(const partition::PathSet &paths,
                const graph::DirectedGraph &g);

    /** Share @p layout (concurrent jobs over one topology); only the
     *  value arrays are allocated here. */
    PathStorage(std::shared_ptr<const PathLayout> layout,
                VertexId num_vertices);

    /** The shared topology half. */
    const PathLayout &layout() const { return *layout_; }

    /** Number of paths. */
    PathId numPaths() const { return layout_->numPaths(); }

    /** Number of vertices (V_val entries). */
    VertexId numVertices() const { return num_vertices_; }

    /** Values K per entry of every value array (1 until initialize()
     *  says otherwise). */
    unsigned lanes() const { return lanes_; }

    /** PTable entry: E_idx offset of path @p p's first vertex. */
    std::uint64_t pathOffset(PathId p) const
    {
        return layout_->pathOffset(p);
    }

    /** Raw E_idx array (tests / coalescing analysis). */
    std::span<const VertexId> eIdx() const { return layout_->eIdx(); }

    /** Vertex id stored at E_idx slot @p slot. */
    VertexId vertexAt(std::uint64_t slot) const
    {
        return layout_->vertexAt(slot);
    }

    /** Original graph edge id stored at E_val index @p i. Path p's
     *  edges occupy indexes [pathOffset(p) - p, pathOffset(p + 1) - p
     *  - 1). */
    EdgeId edgeIdAt(std::uint64_t i) const
    {
        return layout_->edgeIdAt(i);
    }

    /** Master state of vertex @p v in lane @p lane. */
    Value &vVal(VertexId v, unsigned lane = 0)
    {
        return v_val_[static_cast<std::size_t>(v) * lanes_ + lane];
    }
    Value vVal(VertexId v, unsigned lane = 0) const
    {
        return v_val_[static_cast<std::size_t>(v) * lanes_ + lane];
    }

    /** Mirror state at slot @p slot in lane @p lane. */
    Value &sVal(std::uint64_t slot, unsigned lane = 0)
    {
        return s_val_[slot * lanes_ + lane];
    }
    Value sVal(std::uint64_t slot, unsigned lane = 0) const
    {
        return s_val_[slot * lanes_ + lane];
    }

    /** Partition-load snapshot at slot @p slot in lane @p lane. */
    Value &loadedVal(std::uint64_t slot, unsigned lane = 0)
    {
        return loaded_val_[slot * lanes_ + lane];
    }
    Value loadedVal(std::uint64_t slot, unsigned lane = 0) const
    {
        return loaded_val_[slot * lanes_ + lane];
    }

    /** Whole striped arrays (hot loops index them with a compile-time
     *  K; checkpoints and reports read the K = 1 arrays). */
    std::span<Value> vVals() { return v_val_; }
    std::span<const Value> vVals() const { return v_val_; }
    std::span<Value> sVals() { return s_val_; }
    std::span<Value> loadedVals() { return loaded_val_; }
    std::span<Value> eVals() { return e_val_; }
    std::span<const Value> eVals() const { return e_val_; }

    /**
     * Fill every S_val and loaded-state stripe of path @p p from V_val
     * (the partition-load pull).
     * @tparam LanesCT lanes() known at compile time (0 = read it at run
     *         time), so the 1-lane pull is a plain scalar copy.
     */
    template <unsigned LanesCT = 0>
    void
    pullPath(PathId p)
    {
        const std::size_t k = LanesCT ? LanesCT : lanes_;
        const std::uint64_t lo = layout_->pathOffset(p);
        const std::uint64_t hi = layout_->pathOffset(p + 1);
        for (std::uint64_t slot = lo; slot < hi; ++slot) {
            // Path-sequential gather prefetch of the master array (E_idx
            // streams linearly, V_val is hit through the vertex id).
            if (slot + kPrefetchDistance < hi) {
                DIGRAPH_PREFETCH(&v_val_[static_cast<std::size_t>(
                                             layout_->vertexAt(
                                                 slot + kPrefetchDistance)) *
                                         k]);
            }
            const Value *master =
                &v_val_[static_cast<std::size_t>(layout_->vertexAt(slot)) *
                        k];
            for (std::size_t l = 0; l < k; ++l) {
                s_val_[slot * k + l] = master[l];
                loaded_val_[slot * k + l] = master[l];
            }
        }
    }

    /** Bytes a GPU must move to load path @p p. */
    std::size_t pathBytes(PathId p) const
    {
        return layout_->pathBytes(p);
    }

    /** Bytes for a contiguous path range [first, last). */
    std::size_t rangeBytes(PathId first, PathId last) const
    {
        return layout_->rangeBytes(first, last);
    }

    /**
     * Size every value array for @p lanes values per entry and fill it:
     * V_val from @p vertex_init(v, lane), S_val and the loaded snapshots
     * from V_val, E_val from @p edge_init(e, lane) per original edge id
     * e. V_val is complete before the first @p edge_init call, so edge
     * caches may be derived from it.
     */
    template <class VertexInit, class EdgeInit>
    void
    initialize(unsigned lanes, VertexInit &&vertex_init,
               EdgeInit &&edge_init)
    {
        lanes_ = lanes;
        const std::size_t k = lanes;
        v_val_.resize(static_cast<std::size_t>(num_vertices_) * k);
        for (VertexId v = 0; v < num_vertices_; ++v) {
            for (unsigned l = 0; l < lanes; ++l)
                v_val_[v * k + l] = vertex_init(v, l);
        }
        const std::size_t slots = layout_->numSlots();
        s_val_.resize(slots * k);
        loaded_val_.resize(slots * k);
        for (std::size_t slot = 0; slot < slots; ++slot) {
            const Value *master =
                &v_val_[static_cast<std::size_t>(layout_->vertexAt(slot)) *
                        k];
            for (std::size_t l = 0; l < k; ++l) {
                s_val_[slot * k + l] = master[l];
                loaded_val_[slot * k + l] = master[l];
            }
        }
        const std::size_t edges = layout_->numPathEdges();
        e_val_.resize(edges * k);
        for (std::size_t i = 0; i < edges; ++i) {
            const EdgeId e = layout_->edgeIdAt(i);
            for (unsigned l = 0; l < lanes; ++l)
                e_val_[i * k + l] = edge_init(e, l);
        }
    }

    /** Host bytes of this instance's private value arrays (excludes the
     *  shared layout). */
    std::size_t valueBytes() const;

  private:
    std::shared_ptr<const PathLayout> layout_ =
        std::make_shared<PathLayout>();
    VertexId num_vertices_ = 0;
    unsigned lanes_ = 1;
    std::vector<Value> s_val_;
    std::vector<Value> loaded_val_;
    std::vector<Value> e_val_;
    std::vector<Value> v_val_;
};

} // namespace digraph::storage
