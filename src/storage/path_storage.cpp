#include "storage/path_storage.hpp"

#include "common/logging.hpp"
#include "common/prefetch.hpp"

namespace digraph::storage {

PathLayout::PathLayout(const partition::PathSet &paths)
{
    const PathId np = paths.numPaths();
    ptable_.reserve(np + 1);
    std::uint64_t offset = 0;
    for (PathId p = 0; p < np; ++p) {
        ptable_.push_back(offset);
        const auto verts = paths.pathVertices(p);
        const auto edges = paths.pathEdges(p);
        for (const VertexId v : verts)
            e_idx_.push_back(v);
        for (const EdgeId e : edges)
            edge_ids_.push_back(e);
        offset += verts.size();
    }
    ptable_.push_back(offset);
}

std::size_t
PathLayout::pathBytes(PathId p) const
{
    const std::uint64_t verts = ptable_[p + 1] - ptable_[p];
    const std::uint64_t edges = verts - 1;
    return static_cast<std::size_t>(
        verts * (sizeof(VertexId) + sizeof(Value)) + // E_idx + S_val
        edges * sizeof(Value) +                      // E_val
        sizeof(std::uint64_t));                      // PTable entry
}

std::size_t
PathLayout::rangeBytes(PathId first, PathId last) const
{
    std::size_t total = 0;
    for (PathId p = first; p < last; ++p)
        total += pathBytes(p);
    return total;
}

std::size_t
PathLayout::memoryBytes() const
{
    return ptable_.size() * sizeof(std::uint64_t) +
           e_idx_.size() * sizeof(VertexId) +
           edge_ids_.size() * sizeof(EdgeId);
}

PathStorage::PathStorage(const partition::PathSet &paths,
                         const graph::DirectedGraph &g)
    : layout_(std::make_shared<PathLayout>(paths))
{
    s_val_.assign(layout_->numSlots(), 0.0);
    loaded_val_.assign(layout_->numSlots(), 0.0);
    e_val_.assign(layout_->numPathEdges(), 0.0);
    v_val_.assign(g.numVertices(), 0.0);
}

PathStorage::PathStorage(std::shared_ptr<const PathLayout> layout,
                         VertexId num_vertices)
    : layout_(std::move(layout))
{
    if (layout_ == nullptr)
        panic("PathStorage: null shared layout");
    s_val_.assign(layout_->numSlots(), 0.0);
    loaded_val_.assign(layout_->numSlots(), 0.0);
    e_val_.assign(layout_->numPathEdges(), 0.0);
    v_val_.assign(num_vertices, 0.0);
}

PathView
PathStorage::path(PathId p)
{
    const std::uint64_t lo = layout_->pathOffset(p);
    const std::uint64_t hi = layout_->pathOffset(p + 1);
    const std::uint64_t elo = lo - p; // p paths before -> p fewer edges
    const std::uint64_t ehi = hi - p - 1;
    const std::span<const VertexId> e_idx = layout_->eIdx();
    const std::span<const EdgeId> edge_ids = layout_->edgeIds();
    PathView view;
    view.vertex_ids = e_idx.subspan(lo, hi - lo);
    view.mirror_states = {s_val_.data() + lo, s_val_.data() + hi};
    view.loaded_states = {loaded_val_.data() + lo, loaded_val_.data() + hi};
    view.edge_states = {e_val_.data() + elo, e_val_.data() + ehi};
    view.edge_ids = edge_ids.subspan(elo, ehi - elo);
    return view;
}

void
PathStorage::pullPath(PathId p)
{
    const std::uint64_t lo = layout_->pathOffset(p);
    const std::uint64_t hi = layout_->pathOffset(p + 1);
    for (std::uint64_t slot = lo; slot < hi; ++slot) {
        // Path-sequential gather prefetch of the master array (E_idx
        // streams linearly, V_val is hit through the vertex id).
        if (slot + kPrefetchDistance < hi)
            DIGRAPH_PREFETCH(
                &v_val_[layout_->vertexAt(slot + kPrefetchDistance)]);
        s_val_[slot] = v_val_[layout_->vertexAt(slot)];
        loaded_val_[slot] = s_val_[slot];
    }
}

void
PathStorage::initialize(const std::vector<Value> &vertex_init,
                        const std::vector<Value> &edge_init)
{
    if (vertex_init.size() != v_val_.size())
        panic("PathStorage::initialize: vertex array size mismatch");
    v_val_ = vertex_init;
    const std::size_t slots = layout_->numSlots();
    for (std::size_t slot = 0; slot < slots; ++slot) {
        s_val_[slot] = v_val_[layout_->vertexAt(slot)];
        loaded_val_[slot] = s_val_[slot];
    }
    const std::size_t edges = layout_->numPathEdges();
    for (std::size_t i = 0; i < edges; ++i)
        e_val_[i] = edge_init[layout_->edgeIdAt(i)];
}

std::size_t
PathStorage::valueBytes() const
{
    return (s_val_.size() + loaded_val_.size() + e_val_.size() +
            v_val_.size()) *
           sizeof(Value);
}

} // namespace digraph::storage
