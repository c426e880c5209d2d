/**
 * @file
 * The wave engine runs each wave's dispatches one at a time in
 * Dispatcher::waveOrder(), so a run is a function of its input alone:
 * fresh engines, reruns and traced runs agree bit for bit, down to the
 * trace's event sequence. A local round's Pri(p) selection keeps the
 * paths the former stable sort kept. The incremental activation
 * bookkeeping (per-path counters, mirror-entry versions and the
 * partitions the barrier wakes) must stay consistent across dispatch
 * patterns, lane runs and device-loss recovery, and the checker must
 * catch an unwoken stale entry and an impossible version. The barrier's
 * wake picks between walking the changed masters' entries and the
 * inactive partitions' entries; both walks must wake exactly the set a
 * brute-force scan finds. Dispatcher::build's partition bitsets must
 * give the precursor lists and groups the sorted vector unions gave.
 */

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "algorithms/factory.hpp"
#include "algorithms/multi_source.hpp"
#include "common/rng.hpp"
#include "engine/digraph_engine.hpp"
#include "engine/dispatcher.hpp"
#include "engine/substrate_catalog.hpp"
#include "engine/value_plane.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/scc.hpp"
#include "graph/traversal.hpp"
#include "gpusim/fault.hpp"
#include "metrics/trace.hpp"
#include "partition/preprocess.hpp"
#include "test_util.hpp"

namespace digraph {
namespace {

/** Fields that must match bit-for-bit between runs of one input. */
void
expectIdenticalReports(const metrics::RunReport &a,
                       const metrics::RunReport &b,
                       const std::string &label)
{
    ASSERT_EQ(a.final_state.size(), b.final_state.size()) << label;
    for (std::size_t v = 0; v < a.final_state.size(); ++v) {
        // Bitwise, not near: even float accumulation must agree.
        EXPECT_EQ(a.final_state[v], b.final_state[v])
            << label << ": vertex " << v;
    }
    EXPECT_EQ(a.edge_processings, b.edge_processings) << label;
    EXPECT_EQ(a.vertex_updates, b.vertex_updates) << label;
    EXPECT_EQ(a.rounds, b.rounds) << label;
    EXPECT_EQ(a.waves, b.waves) << label;
    EXPECT_EQ(a.partition_processings, b.partition_processings) << label;
    EXPECT_EQ(a.host_transfer_bytes, b.host_transfer_bytes) << label;
    EXPECT_EQ(a.ring_transfer_bytes, b.ring_transfer_bytes) << label;
    EXPECT_EQ(a.global_load_bytes, b.global_load_bytes) << label;
    EXPECT_EQ(a.loaded_vertices, b.loaded_vertices) << label;
    EXPECT_EQ(a.sim_cycles, b.sim_cycles) << label;
    EXPECT_EQ(a.utilization, b.utilization) << label;
    EXPECT_EQ(a.comm_cycles, b.comm_cycles) << label;
}

TEST(WaveOrder, PermutesTheBatchAndKeepsItsHead)
{
    // The wave order regroups a batch into vertex-disjoint chunks; it
    // never drops, duplicates or demotes the highest-priority partition.
    bool reordered = false;
    for (auto &ng : test::testGraphs()) {
        const engine::DiGraphEngine eng(ng.graph);
        const auto &sched = eng.substrate()->dispatcher;
        std::vector<PartitionId> batch(eng.preprocessed().numPartitions());
        for (PartitionId q = 0; q < batch.size(); ++q)
            batch[q] = static_cast<PartitionId>(batch.size() - 1 - q);
        auto order = batch;
        sched.waveOrder(order);
        ASSERT_EQ(order.size(), batch.size()) << ng.name;
        EXPECT_EQ(order.front(), batch.front()) << ng.name;
        reordered |= order != batch;
        std::sort(order.begin(), order.end());
        std::sort(batch.begin(), batch.end());
        EXPECT_EQ(order, batch) << ng.name;
    }
    EXPECT_TRUE(reordered);
}

/** Directed circulant graph v -> v+1..v+3 (mod @p n): every vertex has
 *  out-degree 3 and the graph is one SCC, so its paths share their
 *  average degree and layer, and equal counts tie on Pri(p). */
graph::DirectedGraph
circulantGraph(VertexId n)
{
    graph::GraphBuilder b(n);
    for (VertexId v = 0; v < n; ++v) {
        for (VertexId d = 1; d <= 3; ++d)
            b.addEdge(v, (v + d) % n);
    }
    return b.build();
}

TEST(PathSelection, KeepsTheStableSortPrefix)
{
    // When more paths are active than the warp scheduler holds, Pri(p)
    // selects which run. The selection must keep exactly the paths that
    // a stable sort by descending Pri(p) followed by truncation keeps
    // (the engine's former schedule), in ascending id, with ties broken
    // toward the lower id. Active sets are drawn with many ties: counts
    // come from a small range or from the path's (average degree,
    // layer) class, so equal counts meet equal avg_degree and layer.
    graph::GeneratorConfig c;
    c.num_vertices = 400;
    c.num_edges = 2400;
    c.seed = 77;
    std::size_t cut_in_tie = 0;
    for (const auto &g : {graph::generate(c), circulantGraph(2000)}) {
        const engine::DiGraphEngine eng(g);
        const auto &pre = eng.preprocessed();
        const auto &sched = eng.substrate()->dispatcher;
        const PathId np = pre.paths.numPaths();
        ASSERT_GT(np, 160u);
        SplitMix64 rng(np);
        for (int trial = 0; trial < 60; ++trial) {
            const bool by_class = trial % 2 == 1;
            const double density = 0.2 + 0.8 * rng.nextDouble();
            std::vector<std::uint32_t> count(np, 0);
            std::vector<PathId> active;
            for (PathId q = 0; q < np; ++q) {
                if (!rng.nextBool(density))
                    continue;
                active.push_back(q);
                const std::uint64_t cls =
                    std::bit_cast<std::uint64_t>(pre.path_avg_degree[q]) ^
                    (std::uint64_t{pre.path_layer[q]} << 7) ^
                    static_cast<std::uint64_t>(trial);
                count[q] = 1 + static_cast<std::uint32_t>(
                                   (by_class ? cls : rng.next()) % 3);
            }
            if (active.empty())
                continue;
            const auto pri = [&](PathId q) {
                return sched.priority(q, count[q]);
            };
            std::vector<PathId> ranked = active;
            std::stable_sort(ranked.begin(), ranked.end(),
                             [&](PathId a, PathId b) {
                                 return pri(a) > pri(b);
                             });
            for (const std::size_t cap :
                 {std::size_t{1}, std::size_t{32}, std::size_t{128},
                  active.size(), active.size() + 5}) {
                std::vector<PathId> want(
                    ranked.begin(),
                    ranked.begin() + static_cast<std::ptrdiff_t>(
                                         std::min(cap, ranked.size())));
                std::sort(want.begin(), want.end());
                if (cap < ranked.size() &&
                    pri(ranked[cap - 1]) == pri(ranked[cap]))
                    ++cut_in_tie;
                std::vector<PathId> got = active;
                sched.selectByPriority(got, count, cap);
                ASSERT_EQ(got, want) << "trial " << trial << " cap " << cap;
                EXPECT_EQ(sched.topPriorityPath(got, count), ranked.front())
                    << "trial " << trial << " cap " << cap;
            }
        }
    }
    // The tie-break decided the cut in many draws.
    EXPECT_GT(cut_in_tie, 50u);
}

/** Precursor lists and dependency groups built with sorted vector
 *  unions, as Dispatcher::build did before it kept partition sets as
 *  bitsets. */
struct ReferenceDeps
{
    std::vector<std::vector<PartitionId>> precursors;
    std::vector<SccId> group;
};

ReferenceDeps
referenceDeps(const partition::Preprocessed &pre)
{
    const auto dedupe = [](std::vector<PartitionId> &v) {
        std::sort(v.begin(), v.end());
        v.erase(std::unique(v.begin(), v.end()), v.end());
    };
    const PartitionId nparts = pre.numPartitions();
    std::vector<std::vector<PartitionId>> parts_of_scc(pre.dag.num_sccs);
    for (PathId p = 0; p < pre.paths.numPaths(); ++p)
        parts_of_scc[pre.scc_of_path[p]].push_back(pre.partitionOfPath(p));
    for (auto &v : parts_of_scc)
        dedupe(v);
    std::vector<std::vector<PartitionId>> eff_parts(pre.dag.num_sccs);
    for (const VertexId s : graph::topologicalOrder(pre.dag.sketch)) {
        for (const VertexId t : pre.dag.sketch.inNeighbors(s)) {
            const auto &src = pre.dag.paths_in_scc[t].empty()
                                  ? eff_parts[t]
                                  : parts_of_scc[t];
            eff_parts[s].insert(eff_parts[s].end(), src.begin(), src.end());
        }
        dedupe(eff_parts[s]);
    }
    ReferenceDeps ref;
    ref.precursors.resize(nparts);
    graph::GraphBuilder builder(nparts);
    for (PartitionId q = 0; q < nparts; ++q) {
        auto &mine = ref.precursors[q];
        for (std::uint32_t p = pre.partition_offsets[q];
             p < pre.partition_offsets[q + 1]; ++p) {
            const auto &src = eff_parts[pre.scc_of_path[p]];
            mine.insert(mine.end(), src.begin(), src.end());
        }
        dedupe(mine);
        std::erase(mine, q);
        for (const PartitionId t : mine)
            builder.addEdge(t, q);
    }
    for (const auto &parts : parts_of_scc) {
        if (parts.size() < 2)
            continue;
        for (std::size_t i = 0; i < parts.size(); ++i)
            builder.addEdge(parts[i], parts[(i + 1) % parts.size()]);
    }
    ref.group = graph::computeScc(builder.build()).component;
    return ref;
}

void
expectReferenceDeps(const engine::EngineSubstrate &sub,
                    const std::string &label)
{
    const auto ref = referenceDeps(sub.pre);
    for (PartitionId q = 0; q < sub.pre.numPartitions(); ++q) {
        ASSERT_EQ(sub.dispatcher.precursors(q), ref.precursors[q])
            << label << " partition " << q;
        ASSERT_EQ(sub.dispatcher.group(q), ref.group[q])
            << label << " partition " << q;
    }
}

/** Path-less SCC-vertices of @p pre's sketch that have a predecessor:
 *  the relays precursor sets are resolved through. */
std::size_t
countRelays(const partition::Preprocessed &pre)
{
    std::size_t relays = 0;
    for (SccId s = 0; s < pre.dag.num_sccs; ++s) {
        if (pre.dag.paths_in_scc[s].empty() &&
            !pre.dag.sketch.inNeighbors(s).empty())
            ++relays;
    }
    return relays;
}

/** Route every relay's out-edges through a fresh path-less SCC-vertex,
 *  so relays feed relays. A dependency graph never has such an edge (a
 *  star's hub links paths only), but the relation must resolve it. */
partition::Preprocessed
chainRelays(partition::Preprocessed pre)
{
    auto &dag = pre.dag;
    const SccId n = dag.num_sccs;
    std::vector<std::pair<SccId, SccId>> edges;
    SccId next = n;
    for (SccId s = 0; s < n; ++s) {
        SccId from = s;
        if (dag.paths_in_scc[s].empty() &&
            !dag.sketch.inNeighbors(s).empty()) {
            from = next++;
            edges.emplace_back(s, from);
        }
        for (const VertexId t : dag.sketch.outNeighbors(s))
            edges.emplace_back(from, t);
    }
    graph::GraphBuilder builder(next);
    for (const auto &[a, b] : edges)
        builder.addEdge(a, b);
    dag.sketch = builder.build();
    dag.num_sccs = next;
    dag.paths_in_scc.resize(next);
    dag.layer.resize(next, 0);
    return pre;
}

/**
 * Rings 0..8 (directed 24-cycles) joined by hubs 0..7: every vertex of
 * ring h feeds hub h, which feeds every vertex of ring h + 1. A hub is
 * acyclic between two cyclic SCCs, so region-confined paths end at it
 * or start from it, and its 24 x 24 dependency star becomes a path-less
 * relay between the rings' paths.
 */
graph::DirectedGraph
hubChainGraph()
{
    constexpr VertexId kHubs = 8;
    constexpr VertexId kRing = 24;
    const auto ring = [](VertexId r, VertexId k) {
        return kHubs + r * kRing + k;
    };
    graph::GraphBuilder b(kHubs + (kHubs + 1) * kRing);
    for (VertexId r = 0; r <= kHubs; ++r) {
        for (VertexId k = 0; k < kRing; ++k)
            b.addEdge(ring(r, k), ring(r, (k + 1) % kRing));
    }
    for (VertexId h = 0; h < kHubs; ++h) {
        for (VertexId k = 0; k < kRing; ++k) {
            b.addEdge(ring(h, k), h);
            b.addEdge(h, ring(h + 1, k));
        }
    }
    return b.build();
}

partition::PreprocessOptions
budgetOptions(std::size_t edges_per_partition)
{
    partition::PreprocessOptions opts;
    opts.partition.edges_per_partition = edges_per_partition;
    return opts;
}

TEST(DispatcherBuild, PrecursorsMatchReferenceUnion)
{
    // Every stand-in, with the engine's own partition budget.
    for (const auto d : graph::allDatasets()) {
        const auto g = graph::makeDataset(d, 0.05);
        const engine::DiGraphEngine eng(g);
        expectReferenceDeps(*eng.substrate(), graph::datasetName(d));
    }

    // Hubs whose stars are path-less relays, and the same sketch with
    // every relay feeding a second relay.
    {
        const auto g = hubChainGraph();
        auto pre = partition::preprocess(g, budgetOptions(16));
        ASSERT_EQ(countRelays(pre), 8u);
        ASSERT_GT(pre.numPartitions(), 8u);
        auto chained = chainRelays(pre);
        EXPECT_EQ(countRelays(chained), 2 * countRelays(pre));
        expectReferenceDeps(*engine::EngineSubstrate::build(g, pre),
                            "hubs");
        expectReferenceDeps(
            *engine::EngineSubstrate::build(g, std::move(chained)),
            "chained hubs");
    }

    // Every epoch of a 10-append chain: appended paths become isolated
    // SCC-vertices in appended partitions.
    {
        graph::GeneratorConfig c;
        c.num_vertices = 400;
        c.num_edges = 2400;
        c.seed = 5;
        engine::SubstrateCatalog cat(graph::generate(c), {});
        SplitMix64 rng(6);
        const PartitionId root_parts =
            cat.currentSubstrate()->pre.numPartitions();
        for (int e = 0; e <= 10; ++e) {
            if (e > 0) {
                std::vector<graph::Edge> batch;
                while (batch.size() < 40) {
                    const auto s = static_cast<VertexId>(
                        rng.nextBounded(c.num_vertices));
                    const auto t = static_cast<VertexId>(
                        rng.nextBounded(c.num_vertices));
                    if (s != t)
                        batch.push_back({s, t, 1.0});
                }
                ASSERT_TRUE(cat.append(batch).created);
            }
            expectReferenceDeps(*cat.currentSubstrate(),
                                "epoch " + std::to_string(e + 1));
        }
        EXPECT_GT(cat.currentSubstrate()->pre.numPartitions(), root_parts);
    }

    // Partition counts on both sides of the 64-partition word boundary.
    {
        const auto g = graph::makeDataset(graph::Dataset::twitter, 0.05);
        bool below = false;
        bool above = false;
        for (const std::size_t div : {40, 60, 64, 66, 70, 130, 200}) {
            const auto pre =
                partition::preprocess(g, budgetOptions(g.numEdges() / div));
            const PartitionId n = pre.numPartitions();
            below = below || (n > 32 && n <= 64);
            above = above || (n > 64 && n <= 128);
            expectReferenceDeps(
                *engine::EngineSubstrate::build(g, pre),
                "budget 1/" + std::to_string(div) + ", " +
                    std::to_string(n) + " partitions");
        }
        EXPECT_TRUE(below);
        EXPECT_TRUE(above);
    }
}

TEST(SerialWaves, FreshEnginesAgreeOnEveryTestGraph)
{
    for (auto &ng : test::testGraphs()) {
        for (const char *algo_name : {"pagerank", "sssp", "wcc"}) {
            const auto algo =
                algorithms::makeAlgorithm(algo_name, ng.graph);
            engine::DiGraphEngine first(ng.graph);
            engine::DiGraphEngine second(ng.graph);
            expectIdenticalReports(first.run(*algo), second.run(*algo),
                                   ng.name + "/" + algo_name);
        }
    }
}

TEST(SerialWaves, TracedRunsRecordTheSameEventSequence)
{
    const auto g = graph::makeDataset(graph::Dataset::dblp, 0.2);
    const auto algo = algorithms::makeAlgorithm("sssp", g);

    engine::DiGraphEngine plain(g);
    const auto base = plain.run(*algo);

    std::vector<metrics::TraceEvent> events[2];
    for (auto &recorded : events) {
        metrics::TraceSink sink;
        engine::EngineOptions opts;
        opts.trace = &sink;
        engine::DiGraphEngine traced(g, opts);
        const auto got = traced.run(*algo);
        expectIdenticalReports(base, got, "traced");
        EXPECT_TRUE(sink.counters() ==
                    metrics::CounterRegistry::fromReport(got));
        recorded = sink.events();
    }
    // Everything but the wall-clock stamps is a function of the input.
    ASSERT_EQ(events[0].size(), events[1].size());
    ASSERT_FALSE(events[0].empty());
    for (std::size_t i = 0; i < events[0].size(); ++i) {
        const auto &a = events[0][i];
        const auto &b = events[1][i];
        ASSERT_EQ(a.type, b.type) << "event " << i;
        ASSERT_EQ(a.wave, b.wave) << "event " << i;
        ASSERT_EQ(a.partition, b.partition) << "event " << i;
        ASSERT_EQ(a.sim_begin, b.sim_begin) << "event " << i;
        ASSERT_EQ(a.sim_dur, b.sim_dur) << "event " << i;
        ASSERT_EQ(a.arg0, b.arg0) << "event " << i;
        ASSERT_EQ(a.arg1, b.arg1) << "event " << i;
    }
}

TEST(SerialWaves, RerunOnSameEngineIsReproducible)
{
    const auto g = test::testGraphs()[6].graph; // "random"
    const auto algo = algorithms::makeAlgorithm("pagerank", g);
    engine::DiGraphEngine eng(g);
    const auto first = eng.run(*algo);
    const auto second = eng.run(*algo);
    expectIdenticalReports(first, second, "rerun");
}

/** The incremental activation structures must agree with a full recount
 *  after every run, including runs that hit the max_local_rounds
 *  redispatch path and runs over multi-partition graphs. */
TEST(ActivationBookkeeping, ConsistentAfterConvergence)
{
    for (auto &ng : test::testGraphs()) {
        const auto algo = algorithms::makeAlgorithm("pagerank", ng.graph);
        engine::DiGraphEngine eng(ng.graph);
        (void)eng.run(*algo);
        EXPECT_TRUE(eng.activationBookkeepingConsistent()) << ng.name;
    }
}

TEST(ActivationBookkeeping, ConsistentUnderForcedRedispatch)
{
    // max_local_rounds = 1 forces every partition through the
    // reactivate-self path repeatedly, exercising worklist carry-over
    // between dispatches (paths left active across dispatch boundaries).
    for (const char *algo_name : {"pagerank", "sssp"}) {
        const auto g = graph::makeDataset(graph::Dataset::dblp, 0.2);
        const auto algo = algorithms::makeAlgorithm(algo_name, g);

        engine::EngineOptions opts;
        opts.max_local_rounds = 1;
        engine::DiGraphEngine eng(g, opts);
        const auto report = eng.run(*algo);
        EXPECT_TRUE(eng.activationBookkeepingConsistent()) << algo_name;

        // The truncated dispatches must still reach the same fixed
        // point as the unconstrained engine.
        engine::DiGraphEngine ref_eng(g);
        const auto ref = ref_eng.run(*algo);
        test::expectStatesNear(report.final_state, ref.final_state,
                               algo->resultTolerance(),
                               std::string("redispatch/") + algo_name);
    }
}

TEST(ActivationBookkeeping, ConsistentOnEightLanePpr)
{
    // Lane runs version every master lane and absorb only the lanes
    // newer than an entry's version; the checker also holds each master
    // version to the latest of its lanes.
    const auto g = graph::makeDataset(graph::Dataset::dblp, 0.2);
    std::vector<VertexId> seeds;
    for (VertexId i = 0; i < 8; ++i)
        seeds.push_back(i * (g.numVertices() / 8));
    const algorithms::Ppr ppr(seeds);
    engine::EngineOptions opts;
    opts.max_local_rounds = 1;
    engine::DiGraphEngine eng(g, opts);
    const auto report = eng.run(ppr);
    EXPECT_EQ(report.value_lanes, 8u);
    EXPECT_TRUE(eng.activationBookkeepingConsistent());
    const auto inv = eng.postRunInvariants(ppr);
    EXPECT_TRUE(inv.ok()) << inv.detail;
}

TEST(ActivationBookkeeping, ConsistentAfterDeviceLossRecovery)
{
    // Recovery restarts every version together; an entry version left
    // above its reset master would never be absorbed again.
    const auto g = graph::makeDataset(graph::Dataset::dblp, 0.2);
    for (const char *algo_name : {"pagerank", "sssp"}) {
        const auto algo = algorithms::makeAlgorithm(algo_name, g);
        engine::EngineOptions opts;
        opts.platform.num_devices = 2;
        engine::DiGraphEngine clean(g, opts);
        const auto want = clean.run(*algo);

        std::string err;
        opts.faults = gpusim::FaultPlan::parse(
            "seed=3,device=1@" + std::to_string(0.4 * want.sim_cycles),
            err);
        ASSERT_EQ(err, "");
        engine::DiGraphEngine faulted(g, opts);
        const auto got = faulted.run(*algo);
        EXPECT_EQ(got.recoveries, 1u) << algo_name;
        EXPECT_TRUE(faulted.activationBookkeepingConsistent())
            << algo_name;
        test::expectStatesNear(got.final_state, want.final_state,
                               algo->resultTolerance(),
                               std::string("device-loss/") + algo_name);
    }
}

/** A plane over @p sub for @p algo, reset as at run start. */
engine::ValuePlane
freshPlane(const graph::DirectedGraph &g, const engine::EngineSubstrate &sub,
           const algorithms::Algorithm &algo)
{
    engine::ValuePlane plane;
    plane.bindLayout(sub.layout, g.numVertices());
    plane.attach(&sub.sync);
    plane.initializeState(g, algo, nullptr);
    plane.beginRun(sub.pre);
    return plane;
}

TEST(ActivationBookkeeping, RejectsUnwokenStaleEntryAndFutureVersion)
{
    // A stale consumer entry must belong to an active partition, and no
    // entry may have absorbed a version its master has not reached.
    const auto g = graph::makeDataset(graph::Dataset::dblp, 0.2);
    const engine::DiGraphEngine eng(g);
    const auto &sub = *eng.substrate();
    const auto &sync = sub.sync;
    ASSERT_GT(sub.pre.numPartitions(), 1u);
    auto plane = freshPlane(g, sub, *algorithms::makeAlgorithm("sssp", g));
    ASSERT_TRUE(plane.bookkeepingConsistent(sub.pre));

    const PartitionId nparts = sub.pre.numPartitions();
    PartitionId owner = 0;
    while (sync.partitionConsumerEntries(owner).empty())
        ++owner;
    const engine::MirrorEntryId k =
        *sync.partitionConsumerEntries(owner).begin();
    const VertexId v = sync.entryVertex(k);
    plane.master_version[v] = 1; // every entry of v is now stale
    EXPECT_FALSE(plane.bookkeepingConsistent(sub.pre));
    // Waking every consumer partition of v restores the invariant;
    // stale tail-only entries need no wake.
    for (PartitionId q = 0; q < nparts; ++q) {
        for (const engine::MirrorEntryId c : sync.partitionConsumerEntries(q)) {
            if (sync.entryVertex(c) == v)
                plane.partition_active[q] = 1;
        }
    }
    EXPECT_TRUE(plane.bookkeepingConsistent(sub.pre));

    plane.entry_seen[k] = 2; // ahead of its master's version 1
    EXPECT_FALSE(plane.bookkeepingConsistent(sub.pre));
    plane.entry_seen[k] = 1;
    EXPECT_TRUE(plane.bookkeepingConsistent(sub.pre));

    // K > 1: a master version must be the latest of its lane versions.
    std::vector<VertexId> seeds;
    for (VertexId i = 0; i < 8; ++i)
        seeds.push_back(i * (g.numVertices() / 8));
    auto lanes = freshPlane(g, sub, algorithms::Ppr(seeds));
    ASSERT_TRUE(lanes.bookkeepingConsistent(sub.pre));
    lanes.master_version[0] = 1;
    lanes.partition_active.assign(sub.pre.numPartitions(), 1);
    EXPECT_FALSE(lanes.bookkeepingConsistent(sub.pre));
    lanes.lane_version[3] = 1; // vertex 0, lane 3
    EXPECT_TRUE(lanes.bookkeepingConsistent(sub.pre));
}

/** Brute-force wake: the inactive partitions other than @p p holding a
 *  source occurrence of a vertex in @p changed, ascending. */
std::vector<PartitionId>
bruteForceWake(const engine::EngineSubstrate &sub,
               const std::vector<engine::MirrorEntryId> &changed,
               PartitionId p, const std::vector<std::uint8_t> &active)
{
    std::vector<std::uint8_t> is_changed(sub.num_vertices, 0);
    for (const engine::MirrorEntryId k : changed)
        is_changed[sub.sync.entryVertex(k)] = 1;
    std::vector<std::uint8_t> woken(sub.pre.numPartitions(), 0);
    const auto e_idx = sub.layout->eIdx();
    for (std::uint64_t s = 0; s < e_idx.size(); ++s) {
        const PartitionId q = sub.sync.partitionOfSlot(s);
        if (sub.sync.isSrcSlot(s) && is_changed[e_idx[s]] && q != p &&
            !active[q])
            woken[q] = 1;
    }
    std::vector<PartitionId> out;
    for (PartitionId q = 0; q < woken.size(); ++q) {
        if (woken[q])
            out.push_back(q);
    }
    return out;
}

TEST(BarrierWake, BothSidesMatchBruteForce)
{
    // The hub-heavy twitter stand-in (vertices mirrored by more than 32
    // partitions) and the low-fanout webbase stand-in. Hand-set active
    // flags and changed lists make either walk the cheaper one.
    for (const auto dataset : {graph::Dataset::twitter,
                               graph::Dataset::webbase}) {
        const auto g = graph::makeDataset(dataset, 0.02);
        const engine::DiGraphEngine eng(g);
        const auto &sub = *eng.substrate();
        const auto &sync = sub.sync;
        const PartitionId nparts = sub.pre.numPartitions();
        ASSERT_GT(nparts, 8u);
        const auto algo = algorithms::makeAlgorithm("pagerank", g);
        SplitMix64 rng(17);
        // Per side: some case chose it, and some case it chose woke a
        // partition.
        bool saw_push = false;
        bool saw_pull = false;
        bool woke_push = false;
        bool woke_pull = false;
        for (int c = 0; c < 48; ++c) {
            auto plane = freshPlane(g, sub, *algo);
            const PartitionId p =
                static_cast<PartitionId>(rng.nextBounded(nparts));
            // Changed masters: one entry, a tenth, or all of p's.
            std::vector<engine::MirrorEntryId> changed;
            const unsigned keep = c % 3;
            for (const engine::MirrorEntryId k : sync.partitionEntries(p)) {
                if (keep == 2 || (keep == 1 && rng.nextBounded(10) == 0) ||
                    (keep == 0 && changed.empty()))
                    changed.push_back(k);
            }
            // Active partitions: none, half, or all but a few.
            const unsigned density = (c / 3) % 4;
            for (PartitionId q = 0; q < nparts; ++q) {
                const std::uint64_t roll = rng.nextBounded(100);
                plane.partition_active[q] =
                    density == 1 ? roll < 50
                    : density == 2 ? roll < 95
                    : density == 3 ? roll < 99
                                   : 0;
            }
            plane.partition_active[p] = 0; // dispatching
            const std::vector<std::uint8_t> before = plane.partition_active;

            std::vector<std::uint64_t> no_lanes;
            const std::uint32_t stamp =
                plane.dedupeChanged<1>(changed, no_lanes);
            std::uint64_t push_visits = 0;
            for (const engine::MirrorEntryId k : changed)
                push_visits +=
                    sync.mirrorPartitions(sync.entryVertex(k)).size();
            std::uint64_t pull_visits = 0;
            for (PartitionId q = 0; q < nparts; ++q) {
                if (q != p && !before[q])
                    pull_visits += sync.partitionConsumerEntries(q).size();
            }
            EXPECT_EQ(sync.pushWakeVisits(changed), push_visits);
            EXPECT_EQ(sync.pullWakeVisits(plane, p, ~std::uint64_t{0}),
                      pull_visits);
            const bool push_side = push_visits <= pull_visits;
            (push_side ? saw_push : saw_pull) = true;

            std::vector<PartitionId> woken;
            sync.wakeConsumers(plane, p, changed, stamp, woken);
            if (!woken.empty())
                (push_side ? woke_push : woke_pull) = true;
            std::vector<PartitionId> sorted = woken;
            std::sort(sorted.begin(), sorted.end());
            EXPECT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) ==
                        sorted.end())
                << "a partition was woken twice, case " << c;
            EXPECT_EQ(sorted, bruteForceWake(sub, changed, p, before))
                << (push_side ? "push" : "pull") << " side, case " << c;
            for (PartitionId q = 0; q < nparts; ++q) {
                const bool want =
                    before[q] || std::binary_search(sorted.begin(),
                                                    sorted.end(), q);
                EXPECT_EQ(plane.partition_active[q] != 0, want)
                    << "partition " << q << ", case " << c;
            }
        }
        EXPECT_TRUE(saw_push && woke_push)
            << "no push-side case woke a partition";
        EXPECT_TRUE(saw_pull && woke_pull)
            << "no pull-side case woke a partition";
    }
}

} // namespace
} // namespace digraph
