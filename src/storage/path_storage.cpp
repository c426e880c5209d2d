#include "storage/path_storage.hpp"

#include "common/logging.hpp"

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
    : layout_(std::make_shared<PathLayout>(paths)),
      num_vertices_(g.numVertices())
{
    s_val_.assign(layout_->numSlots(), 0.0);
    loaded_val_.assign(layout_->numSlots(), 0.0);
    e_val_.assign(layout_->numPathEdges(), 0.0);
    v_val_.assign(g.numVertices(), 0.0);
}

PathStorage::PathStorage(std::shared_ptr<const PathLayout> layout,
                         VertexId num_vertices)
    : layout_(std::move(layout)), num_vertices_(num_vertices)
{
    if (layout_ == nullptr)
        panic("PathStorage: null shared layout");
    s_val_.assign(layout_->numSlots(), 0.0);
    loaded_val_.assign(layout_->numSlots(), 0.0);
    e_val_.assign(layout_->numPathEdges(), 0.0);
    v_val_.assign(num_vertices, 0.0);
}

std::size_t
PathStorage::valueBytes() const
{
    return (s_val_.size() + loaded_val_.size() + e_val_.size() +
            v_val_.size()) *
           sizeof(Value);
}

} // namespace digraph::storage
