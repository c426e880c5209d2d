/**
 * @file
 * Tests for the four-array path storage, including a direct check of the
 * paper's Figure 4 example layout.
 */

#include <gtest/gtest.h>

#include "graph/builder.hpp"
#include "partition/path_set.hpp"
#include "storage/path_storage.hpp"

namespace digraph::storage {
namespace {

/** The directed graph of the paper's Figure 3(a)/Figure 4. */
graph::DirectedGraph
figure3Graph()
{
    graph::GraphBuilder b(15);
    const std::pair<int, int> edges[] = {
        {0, 1},  {1, 2},   {2, 3},   {3, 4},  {4, 5},
        {3, 6},  {6, 7},   {7, 8},   {8, 9},  {8, 10},
        {10, 11}, {11, 12}, {7, 13},  {13, 14}, {14, 6}};
    for (const auto &[s, t] : edges)
        b.addEdge(static_cast<VertexId>(s), static_cast<VertexId>(t));
    return b.build();
}

/** The paper's Figure 3(a) path decomposition, built explicitly. */
partition::PathSet
figure3Paths(const graph::DirectedGraph &g)
{
    auto edge_id = [&g](VertexId s, VertexId t) {
        const auto nbrs = g.outNeighbors(s);
        for (std::size_t k = 0; k < nbrs.size(); ++k) {
            if (nbrs[k] == t)
                return g.outEdgeId(s, k);
        }
        ADD_FAILURE() << "missing edge " << s << "->" << t;
        return kInvalidEdge;
    };
    partition::PathSet ps;
    auto add = [&](std::initializer_list<VertexId> verts) {
        auto it = verts.begin();
        ps.beginPath(*it);
        VertexId prev = *it++;
        for (; it != verts.end(); ++it) {
            ps.extend(*it, edge_id(prev, *it));
            prev = *it;
        }
    };
    add({0, 1, 2, 3, 4, 5});     // p1
    add({3, 6, 7, 8, 9});        // p2
    add({8, 10, 11, 12});        // p3
    add({7, 13, 14, 6});         // p4
    return ps;
}

TEST(PathStorage, Figure4Layout)
{
    const auto g = figure3Graph();
    const auto paths = figure3Paths(g);
    ASSERT_TRUE(paths.validate(g));
    PathStorage storage(paths, g);

    // PTable: offsets of each path's first vertex in E_idx (Fig 4).
    EXPECT_EQ(storage.pathOffset(0), 0u);
    EXPECT_EQ(storage.pathOffset(1), 6u);
    EXPECT_EQ(storage.pathOffset(2), 11u);
    EXPECT_EQ(storage.pathOffset(3), 15u);
    EXPECT_EQ(storage.pathOffset(4), 19u);

    // E_idx: vertex ids along the paths.
    const auto e_idx = storage.eIdx();
    const VertexId expected[] = {0, 1, 2,  3,  4,  5, 3, 6, 7, 8,
                                 9, 8, 10, 11, 12, 7, 13, 14, 6};
    ASSERT_EQ(e_idx.size(), std::size(expected));
    for (std::size_t i = 0; i < std::size(expected); ++i)
        EXPECT_EQ(e_idx[i], expected[i]) << "slot " << i;

    // V_val has one master slot per vertex.
    EXPECT_EQ(storage.numVertices(), 15u);
    EXPECT_EQ(storage.numPaths(), 4u);
}

/** Initialize @p storage at K = 1 from per-vertex / per-edge vectors. */
void
initializeScalar(PathStorage &storage, const std::vector<Value> &vinit,
                 const std::vector<Value> &einit)
{
    storage.initialize(
        1, [&](VertexId v, unsigned) { return vinit[v]; },
        [&](EdgeId e, unsigned) { return einit[e]; });
}

TEST(PathStorage, SlotRangesSliceCorrectly)
{
    const auto g = figure3Graph();
    PathStorage storage(figure3Paths(g), g);
    // p2 = 3 -> 6 -> 7 -> 8 -> 9 occupies slots [6, 11) and, one edge
    // fewer per earlier path, E_val indexes [5, 9).
    ASSERT_EQ(storage.pathOffset(2) - storage.pathOffset(1), 5u);
    EXPECT_EQ(storage.vertexAt(6), 3u);
    EXPECT_EQ(storage.vertexAt(10), 9u);
    EXPECT_EQ(g.edgeSource(storage.edgeIdAt(5)), 3u);
    EXPECT_EQ(g.edgeTarget(storage.edgeIdAt(5)), 6u);
    EXPECT_EQ(g.edgeSource(storage.edgeIdAt(8)), 8u);
    EXPECT_EQ(g.edgeTarget(storage.edgeIdAt(8)), 9u);
}

TEST(PathStorage, InitializeAndPull)
{
    const auto g = figure3Graph();
    PathStorage storage(figure3Paths(g), g);
    std::vector<Value> vinit(g.numVertices());
    for (VertexId v = 0; v < g.numVertices(); ++v)
        vinit[v] = 100.0 + v;
    std::vector<Value> einit(g.numEdges(), -1.0);
    initializeScalar(storage, vinit, einit);

    // p1 = 0 -> 1 -> 2 -> 3 -> 4 -> 5 occupies slots [0, 6).
    EXPECT_EQ(storage.sVal(0), 100.0);
    EXPECT_EQ(storage.sVal(5), 105.0);
    EXPECT_EQ(storage.eVals()[0], -1.0);

    // Mutate a master and pull the path: mirror and snapshot refresh.
    storage.vVal(1) = 999.0;
    storage.pullPath(0);
    EXPECT_EQ(storage.sVal(1), 999.0);
    EXPECT_EQ(storage.loadedVal(1), 999.0);
}

TEST(PathStorage, ReplicasHaveIndependentMirrors)
{
    const auto g = figure3Graph();
    PathStorage storage(figure3Paths(g), g);
    initializeScalar(storage, std::vector<Value>(g.numVertices(), 0.0),
                     std::vector<Value>(g.numEdges(), 0.0));

    // Vertex 3 occurs on p1 (slot 3) and p2 (slot 6 = head).
    ASSERT_EQ(storage.vertexAt(3), 3u);
    ASSERT_EQ(storage.vertexAt(6), 3u);
    storage.sVal(3) = 7.0;
    EXPECT_EQ(storage.sVal(6), 0.0)
        << "replica mirrors must be independent";
    EXPECT_EQ(storage.vVal(3), 0.0);
}

TEST(PathStorage, LaneStripesAreEntryMajor)
{
    // K values per entry, entry * K + lane: every mirror lane starts at
    // its master lane, and a pull refreshes one stripe only.
    const auto g = figure3Graph();
    PathStorage storage(figure3Paths(g), g);
    constexpr unsigned kLanes = 3;
    storage.initialize(
        kLanes, [](VertexId v, unsigned l) { return 10.0 * v + l; },
        [](EdgeId e, unsigned l) { return -(10.0 * e + l); });
    ASSERT_EQ(storage.lanes(), kLanes);
    EXPECT_EQ(storage.vVals().size(), g.numVertices() * kLanes);
    EXPECT_EQ(storage.sVals().size(), storage.eIdx().size() * kLanes);
    EXPECT_EQ(storage.valueBytes(),
              kLanes *
                  (g.numVertices() + 2 * storage.eIdx().size() +
                   storage.layout().numPathEdges()) *
                  sizeof(Value));
    for (std::uint64_t s = 0; s < storage.eIdx().size(); ++s) {
        for (unsigned l = 0; l < kLanes; ++l) {
            EXPECT_EQ(storage.sVal(s, l), 10.0 * storage.vertexAt(s) + l);
            EXPECT_EQ(storage.sVals()[s * kLanes + l], storage.sVal(s, l));
        }
    }
    for (std::uint64_t i = 0; i < storage.layout().numPathEdges(); ++i) {
        for (unsigned l = 0; l < kLanes; ++l) {
            EXPECT_EQ(storage.eVals()[i * kLanes + l],
                      -(10.0 * storage.edgeIdAt(i) + l));
        }
    }
    storage.vVal(1, 2) = 999.0;
    storage.pullPath(0);
    EXPECT_EQ(storage.sVal(1, 2), 999.0);
    EXPECT_EQ(storage.loadedVal(1, 2), 999.0);
    EXPECT_EQ(storage.sVal(1, 1), 11.0);
}

TEST(PathStorage, ByteAccountingMatchesLayout)
{
    const auto g = figure3Graph();
    PathStorage storage(figure3Paths(g), g);
    // p1 has 6 vertices, 5 edges.
    const std::size_t expected = 6 * (sizeof(VertexId) + sizeof(Value)) +
                                 5 * sizeof(Value) +
                                 sizeof(std::uint64_t);
    EXPECT_EQ(storage.pathBytes(0), expected);
    EXPECT_EQ(storage.rangeBytes(0, 2),
              storage.pathBytes(0) + storage.pathBytes(1));
}

TEST(PathStorage, SlotAccessorsMatchLayout)
{
    const auto g = figure3Graph();
    PathStorage storage(figure3Paths(g), g);
    initializeScalar(storage, std::vector<Value>(g.numVertices(), 1.5),
                     std::vector<Value>(g.numEdges(), 0.0));
    for (std::uint64_t s = 0; s < storage.eIdx().size(); ++s) {
        EXPECT_EQ(storage.vertexAt(s), storage.eIdx()[s]);
        EXPECT_EQ(storage.sVal(s), 1.5);
    }
}

} // namespace
} // namespace digraph::storage
