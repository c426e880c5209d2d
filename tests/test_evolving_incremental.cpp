/**
 * @file
 * Incremental evolving-graph ingestion: the delta-journaled
 * GraphBuilder::append, the patched adjacency cache, appendPreprocess's
 * verbatim structure reuse, and the end-to-end warm-vs-cold equivalence
 * of the evolving engine for every algorithm family.
 */

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "algorithms/adsorption.hpp"
#include "algorithms/katz.hpp"
#include "algorithms/kcore.hpp"
#include "algorithms/pagerank.hpp"
#include "algorithms/sssp.hpp"
#include "algorithms/wcc.hpp"
#include "baselines/sequential.hpp"
#include "common/rng.hpp"
#include "engine/evolving.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "partition/preprocess.hpp"
#include "test_util.hpp"

namespace digraph {
namespace {

gpusim::PlatformConfig
smallPlatform()
{
    gpusim::PlatformConfig pc;
    pc.num_devices = 2;
    pc.smx_per_device = 4;
    return pc;
}

engine::EngineOptions
smallOptions()
{
    engine::EngineOptions opts;
    opts.platform = smallPlatform();
    return opts;
}

graph::DirectedGraph
testGraph(std::uint64_t seed, VertexId n = 600, EdgeId m = 3000)
{
    graph::GeneratorConfig c;
    c.num_vertices = n;
    c.num_edges = m;
    c.seed = seed;
    return graph::generate(c);
}

std::vector<graph::Edge>
randomBatch(SplitMix64 &rng, VertexId n, std::size_t count)
{
    std::vector<graph::Edge> batch;
    batch.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        batch.push_back({static_cast<VertexId>(rng.nextBounded(n)),
                         static_cast<VertexId>(rng.nextBounded(n)),
                         1.0 + static_cast<double>(rng.nextBounded(8))});
    }
    return batch;
}

/** Exact (bitwise) state comparison for algorithms with a unique
 *  dispatch-order-independent fixed point (sssp, wcc, kcore). */
void
expectStatesIdentical(const std::vector<Value> &got,
                      const std::vector<Value> &want,
                      const std::string &label)
{
    ASSERT_EQ(got.size(), want.size()) << label;
    for (std::size_t v = 0; v < got.size(); ++v) {
        EXPECT_TRUE(got[v] == want[v] ||
                    (std::isinf(got[v]) && std::isinf(want[v])))
            << label << ": vertex " << v << " got " << got[v]
            << " want " << want[v];
    }
}

// ------------------------------------------------ GraphBuilder::append

TEST(GraphAppend, MatchesFullRebuildAndJournalsIds)
{
    const auto base = testGraph(71);
    SplitMix64 rng(72);
    auto batch = randomBatch(rng, 650, 120); // some targets beyond n

    const graph::GraphDelta delta = graph::GraphBuilder::append(base,
                                                                batch);
    const auto &g = delta.graph;

    // Reference: full rebuild from the combined edge list.
    graph::GraphBuilder b(base.numVertices());
    b.addEdges(base.edgeList());
    b.addEdges(batch);
    const auto ref = b.build();

    ASSERT_EQ(g.numVertices(), ref.numVertices());
    ASSERT_EQ(g.numEdges(), ref.numEdges());
    for (EdgeId e = 0; e < g.numEdges(); ++e) {
        EXPECT_EQ(g.edgeSource(e), ref.edgeSource(e));
        EXPECT_EQ(g.edgeTarget(e), ref.edgeTarget(e));
        EXPECT_EQ(g.edgeWeight(e), ref.edgeWeight(e));
    }

    // Journal: every old edge maps to the same (src, dst, weight).
    ASSERT_EQ(delta.old_to_new.size(), base.numEdges());
    for (EdgeId e = 0; e < base.numEdges(); ++e) {
        const EdgeId ne = delta.old_to_new[e];
        EXPECT_EQ(g.edgeSource(ne), base.edgeSource(e));
        EXPECT_EQ(g.edgeTarget(ne), base.edgeTarget(e));
        EXPECT_EQ(g.edgeWeight(ne), base.edgeWeight(e));
    }
    // Journal: fresh_ids point at the accepted batch edges.
    ASSERT_EQ(delta.fresh_ids.size(), delta.fresh.size());
    for (std::size_t i = 0; i < delta.fresh.size(); ++i) {
        const EdgeId ne = delta.fresh_ids[i];
        EXPECT_EQ(g.edgeSource(ne), delta.fresh[i].src);
        EXPECT_EQ(g.edgeTarget(ne), delta.fresh[i].dst);
        EXPECT_EQ(g.edgeWeight(ne), delta.fresh[i].weight);
    }
    EXPECT_EQ(base.numEdges() + delta.fresh.size(), g.numEdges());
    EXPECT_EQ(delta.old_num_vertices, base.numVertices());
}

TEST(GraphAppend, NormalizesTheBatch)
{
    const auto base = graph::makeChain(10); // edges v -> v+1, weight 1
    const std::vector<graph::Edge> batch = {
        {3, 3, 1.0},  // self-loop: dropped
        {0, 1, 9.0},  // already present: dropped, old weight wins
        {2, 7, 0.5},  // fresh
        {2, 7, 9.0},  // intra-batch repeat: first occurrence wins
        {4, 12, 2.0}, // grows the vertex set
    };
    const auto delta = graph::GraphBuilder::append(base, batch);
    ASSERT_EQ(delta.fresh.size(), 2u);
    EXPECT_EQ(delta.graph.numVertices(), 13u);
    EXPECT_EQ(delta.graph.numEdges(), base.numEdges() + 2);
    EXPECT_EQ(delta.graph.edgeWeight(delta.fresh_ids[0]), 0.5);
    EXPECT_EQ(delta.graph.edgeWeight(
                  delta.graph.findEdge(0, 1)),
              1.0);
}

TEST(GraphAppend, FindEdgeAgreesWithHasEdge)
{
    const auto g = testGraph(73, 200, 900);
    SplitMix64 rng(74);
    for (int i = 0; i < 2000; ++i) {
        const auto s = static_cast<VertexId>(rng.nextBounded(210));
        const auto d = static_cast<VertexId>(rng.nextBounded(210));
        const EdgeId e = g.findEdge(s, d);
        if (s < g.numVertices() && g.hasEdge(s, d)) {
            ASSERT_NE(e, kInvalidEdge);
            EXPECT_EQ(g.edgeSource(e), s);
            EXPECT_EQ(g.edgeTarget(e), d);
        } else {
            EXPECT_EQ(e, kInvalidEdge);
        }
    }
}

// ------------------------------------------------- SortedAdjacency

TEST(SortedAdjacency, DeltaPatchMatchesFreshBuild)
{
    for (const bool degree_sorted : {true, false}) {
        const auto base = testGraph(75);
        partition::SortedAdjacency cached;
        cached.build(base, degree_sorted);

        SplitMix64 rng(76);
        const auto delta = graph::GraphBuilder::append(
            base, randomBatch(rng, 620, 100));
        cached.applyDelta(delta.graph, delta);

        partition::SortedAdjacency fresh;
        fresh.build(delta.graph, degree_sorted);

        ASSERT_TRUE(cached.matches(delta.graph));
        for (VertexId v = 0; v < delta.graph.numVertices(); ++v) {
            const auto &a = cached.row(v);
            const auto &b = fresh.row(v);
            ASSERT_EQ(a.size(), b.size()) << "vertex " << v;
            for (std::size_t k = 0; k < a.size(); ++k) {
                EXPECT_EQ(a[k].target, b[k].target)
                    << "vertex " << v << " slot " << k;
                EXPECT_EQ(a[k].edge, b[k].edge)
                    << "vertex " << v << " slot " << k;
            }
        }
    }
}

// ------------------------------------------------- appendPreprocess

TEST(AppendPreprocess, ReusesStructuresAndStaysValid)
{
    const auto base = testGraph(77);
    partition::PreprocessOptions popts;
    popts.partition.edges_per_partition = 512;
    auto pre = partition::preprocess(base, popts);
    ASSERT_TRUE(pre.paths.validate(base));
    const PathId old_paths = pre.paths.numPaths();
    const auto old_offsets = pre.partition_offsets;
    const auto old_layers = pre.path_layer;

    SplitMix64 rng(78);
    const auto delta = graph::GraphBuilder::append(
        base, randomBatch(rng, 620, 150));
    pre = partition::appendPreprocess(std::move(pre), delta.graph, delta,
                                      popts);

    EXPECT_TRUE(pre.incremental);
    EXPECT_TRUE(pre.paths.validate(delta.graph))
        << "appended path set must still cover every edge exactly once";
    EXPECT_EQ(pre.incremental_stats.reused_paths, old_paths);
    EXPECT_GT(pre.incremental_stats.new_paths, 0u);
    EXPECT_GT(pre.incremental_stats.new_partitions, 0u);
    EXPECT_FALSE(pre.incremental_stats.dirty_partitions.empty());

    // Old partition boundaries and layers survive verbatim.
    ASSERT_GE(pre.partition_offsets.size(), old_offsets.size());
    for (std::size_t i = 0; i < old_offsets.size(); ++i)
        EXPECT_EQ(pre.partition_offsets[i], old_offsets[i]);
    for (std::size_t p = 0; p < old_layers.size(); ++p)
        EXPECT_EQ(pre.path_layer[p], old_layers[p]);

    // New paths are isolated layer-0 SCC-vertices.
    const PathId np = pre.paths.numPaths();
    ASSERT_EQ(pre.scc_of_path.size(), np);
    ASSERT_EQ(pre.path_layer.size(), np);
    ASSERT_EQ(pre.path_avg_degree.size(), np);
    ASSERT_EQ(pre.path_hot.size(), np);
    ASSERT_EQ(pre.dag.layer.size(), pre.dag.num_sccs);
    ASSERT_EQ(pre.dag.paths_in_scc.size(), pre.dag.num_sccs);
    EXPECT_EQ(pre.dag.sketch.numVertices(), pre.dag.num_sccs);
    for (PathId p = old_paths; p < np; ++p) {
        EXPECT_EQ(pre.path_layer[p], 0u);
        const SccId s = pre.scc_of_path[p];
        EXPECT_EQ(pre.dag.paths_in_scc[s].size(), 1u);
        EXPECT_EQ(pre.dag.layer[s], 0u);
    }
    // And the adjacency cache was patched, not dropped.
    ASSERT_TRUE(pre.sorted_adjacency != nullptr);
    EXPECT_TRUE(pre.sorted_adjacency->matches(delta.graph));
}

TEST(AppendPreprocess, BitIdenticalAcrossThreadCounts)
{
    // The batch decomposition splits into a FIXED number of subgraphs
    // (kAppendSubgraphs), not one per worker thread, so the worker count
    // cannot change the derived path set: the appended structures must
    // be bitwise identical for every thread count.
    const auto base = testGraph(83, 300, 1500);
    SplitMix64 rng(84);
    const auto batch = randomBatch(rng, 320, 80);
    const auto delta = graph::GraphBuilder::append(base, batch);

    partition::Preprocessed want;
    bool have_want = false;
    for (const unsigned threads : {1u, 2u, 4u, 8u}) {
        // Base preprocess at a fixed thread count (its split is
        // historically thread-derived); only the APPEND varies.
        partition::PreprocessOptions base_opts;
        base_opts.decompose.num_threads = 2;
        auto pre = partition::preprocess(base, base_opts);
        partition::PreprocessOptions append_opts = base_opts;
        append_opts.decompose.num_threads = threads;
        pre = partition::appendPreprocess(std::move(pre), delta.graph,
                                          delta, append_opts);
        ASSERT_TRUE(pre.paths.validate(delta.graph))
            << threads << " threads";
        if (!have_want) {
            want = std::move(pre);
            have_want = true;
            continue;
        }
        const std::string label =
            std::to_string(threads) + " threads";
        ASSERT_EQ(pre.paths.numPaths(), want.paths.numPaths()) << label;
        for (PathId p = 0; p < want.paths.numPaths(); ++p) {
            const auto gv = pre.paths.pathVertices(p);
            const auto wv = want.paths.pathVertices(p);
            ASSERT_TRUE(std::equal(gv.begin(), gv.end(), wv.begin(),
                                   wv.end()))
                << label << ": path " << p << " vertices";
            const auto ge = pre.paths.pathEdges(p);
            const auto we = want.paths.pathEdges(p);
            ASSERT_TRUE(std::equal(ge.begin(), ge.end(), we.begin(),
                                   we.end()))
                << label << ": path " << p << " edges";
        }
        EXPECT_EQ(pre.partition_offsets, want.partition_offsets)
            << label;
        EXPECT_EQ(pre.partition_layer, want.partition_layer) << label;
        EXPECT_EQ(pre.scc_of_path, want.scc_of_path) << label;
        EXPECT_EQ(pre.path_layer, want.path_layer) << label;
        EXPECT_EQ(pre.path_hot, want.path_hot) << label;
        EXPECT_EQ(pre.merges, want.merges) << label;
    }
}

TEST(AppendPreprocess, IsIndependentOfBatchSplit)
{
    // Appending two batches one by one equals appending their union as
    // far as edge coverage goes (paths differ, coverage must not).
    const auto base = testGraph(79, 300, 1500);
    partition::PreprocessOptions popts;
    SplitMix64 rng(80);
    const auto all = randomBatch(rng, 320, 80);
    const std::vector<graph::Edge> first(all.begin(), all.begin() + 40);
    const std::vector<graph::Edge> second(all.begin() + 40, all.end());

    auto pre = partition::preprocess(base, popts);
    auto d1 = graph::GraphBuilder::append(base, first);
    pre = partition::appendPreprocess(std::move(pre), d1.graph, d1,
                                      popts);
    auto d2 = graph::GraphBuilder::append(d1.graph, second);
    pre = partition::appendPreprocess(std::move(pre), d2.graph, d2,
                                      popts);
    EXPECT_TRUE(pre.paths.validate(d2.graph));
}

// ---------------------------------------- evolving engine equivalence

/** Drive `batches` insertions through an evolving engine and compare
 *  each warm/fallback result against the sequential oracle. */
template <typename MakeAlgo>
void
checkEvolvingAgainstOracle(MakeAlgo make_algo, double tol,
                           bool expect_warm, const std::string &label,
                           engine::EvolvingOptions evolve = {})
{
    auto initial = testGraph(81);
    const VertexId n = initial.numVertices();
    engine::EvolvingEngine evolving(std::move(initial), smallOptions(),
                                    evolve);
    {
        const auto algo = make_algo(evolving.graph());
        evolving.run(*algo);
    }
    SplitMix64 rng(82);
    for (int step_i = 0; step_i < 3; ++step_i) {
        const auto batch = randomBatch(rng, n + 20, 60);
        const auto algo = make_algo(evolving.graph());
        const auto step = evolving.insertAndRun(*algo, batch);
        EXPECT_EQ(step.warm, expect_warm) << label;
        const auto check = make_algo(evolving.graph());
        const auto oracle =
            baselines::runSequential(evolving.graph(), *check);
        if (tol == 0.0) {
            expectStatesIdentical(step.run.final_state, oracle.state,
                                  label);
        } else {
            test::expectStatesNear(step.run.final_state, oracle.state,
                                   tol, label);
        }
        EXPECT_TRUE(
            evolving.preprocessed().paths.validate(evolving.graph()))
            << label;
    }
}

TEST(EvolvingIncremental, SsspWarmMatchesOracleBitwise)
{
    checkEvolvingAgainstOracle(
        [](const graph::DirectedGraph &) {
            return std::make_unique<algorithms::Sssp>(0);
        },
        0.0, true, "sssp");
}

TEST(EvolvingIncremental, WccWarmMatchesOracleBitwise)
{
    checkEvolvingAgainstOracle(
        [](const graph::DirectedGraph &) {
            return std::make_unique<algorithms::Wcc>();
        },
        0.0, true, "wcc");
}

TEST(EvolvingIncremental, KcoreColdFallbackMatchesOracleBitwise)
{
    checkEvolvingAgainstOracle(
        [](const graph::DirectedGraph &) {
            return std::make_unique<algorithms::KCore>(3);
        },
        0.0, false, "kcore");
}

TEST(EvolvingIncremental, KatzWarmMatchesOracle)
{
    checkEvolvingAgainstOracle(
        [](const graph::DirectedGraph &g) {
            return std::make_unique<algorithms::Katz>(g, 1e-3);
        },
        1e-2, true, "katz");
}

TEST(EvolvingIncremental, PagerankColdFallbackMatchesOracle)
{
    checkEvolvingAgainstOracle(
        [](const graph::DirectedGraph &) {
            return std::make_unique<algorithms::PageRank>();
        },
        algorithms::PageRank().resultTolerance(), false, "pagerank");
}

TEST(EvolvingIncremental, AdsorptionMatchesOracleAfterIngestion)
{
    // Adsorption precomputes normalized in-weights for the graph it is
    // constructed with, so (unlike the algorithms above) an instance
    // must never run on a graph with more edges. Ingest the batches
    // first (sssp drives the insertions), then run a fresh instance
    // cold on the incremental structures.
    engine::EvolvingEngine evolving(testGraph(81), smallOptions());
    const algorithms::Sssp sssp(0);
    evolving.run(sssp);
    SplitMix64 rng(82);
    for (int step_i = 0; step_i < 3; ++step_i) {
        const auto step =
            evolving.insertAndRun(sssp, randomBatch(rng, 620, 60));
        EXPECT_TRUE(step.incremental);
    }
    const algorithms::Adsorption ads(evolving.graph());
    const auto step = evolving.run(ads);
    const auto oracle = baselines::runSequential(evolving.graph(), ads);
    test::expectStatesNear(step.run.final_state, oracle.state,
                           ads.resultTolerance(), "adsorption");
}

TEST(EvolvingIncremental, FullRebuildModeMatchesOracle)
{
    engine::EvolvingOptions evolve;
    evolve.incremental = false; // the pre-incremental baseline
    checkEvolvingAgainstOracle(
        [](const graph::DirectedGraph &) {
            return std::make_unique<algorithms::Sssp>(0);
        },
        0.0, true, "sssp full-rebuild mode", evolve);
}

// ------------------------------------------------- edge-case batches

TEST(EvolvingIncremental, DegenerateBatchesAreHandled)
{
    engine::EvolvingEngine evolving(graph::makeChain(30),
                                    smallOptions());
    const algorithms::Sssp sssp(0);
    evolving.run(sssp);

    // Batch of only self-loops and already-present edges: nothing
    // inserted, graph and structures unchanged, result preserved.
    const auto before_edges = evolving.graph().numEdges();
    const auto before_paths = evolving.preprocessed().paths.numPaths();
    auto step = evolving.insertAndRun(
        sssp, {{4, 4, 1.0}, {0, 1, 5.0}, {7, 8, 2.0}});
    EXPECT_EQ(step.inserted_edges, 0u);
    EXPECT_EQ(evolving.graph().numEdges(), before_edges);
    EXPECT_EQ(evolving.preprocessed().paths.numPaths(), before_paths);
    auto oracle = baselines::runSequential(evolving.graph(), sssp);
    expectStatesIdentical(step.run.final_state, oracle.state,
                          "degenerate batch");

    // Batch introducing brand-new vertices (beyond the current range).
    step = evolving.insertAndRun(sssp, {{2, 35, 0.5}, {35, 36, 0.5}});
    EXPECT_EQ(step.inserted_edges, 2u);
    EXPECT_EQ(evolving.graph().numVertices(), 37u);
    EXPECT_TRUE(step.incremental);
    oracle = baselines::runSequential(evolving.graph(), sssp);
    expectStatesIdentical(step.run.final_state, oracle.state,
                          "new-vertex batch");

    // Duplicates inside the batch collapse to the first occurrence.
    step = evolving.insertAndRun(
        sssp, {{5, 20, 0.25}, {5, 20, 99.0}, {5, 20, 1.0}});
    EXPECT_EQ(step.inserted_edges, 1u);
    const EdgeId e = evolving.graph().findEdge(5, 20);
    ASSERT_NE(e, kInvalidEdge);
    EXPECT_EQ(evolving.graph().edgeWeight(e), 0.25);
    oracle = baselines::runSequential(evolving.graph(), sssp);
    expectStatesIdentical(step.run.final_state, oracle.state,
                          "duplicate batch");
}

TEST(EvolvingIncremental, RebuildFractionGuardTriggersFullPipeline)
{
    engine::EvolvingOptions evolve;
    evolve.full_rebuild_fraction = 0.01; // almost any batch trips it
    engine::EvolvingEngine evolving(testGraph(83), smallOptions(),
                                    evolve);
    const algorithms::Sssp sssp(0);
    evolving.run(sssp);
    SplitMix64 rng(84);
    const auto step =
        evolving.insertAndRun(sssp, randomBatch(rng, 600, 80));
    EXPECT_FALSE(step.incremental)
        << "the structure-quality guard must force a full rebuild";
    EXPECT_FALSE(evolving.preprocessed().incremental);
    const auto oracle =
        baselines::runSequential(evolving.graph(), sssp);
    expectStatesIdentical(step.run.final_state, oracle.state,
                          "fraction guard");
}

// ------------------------------------------------- determinism

TEST(EvolvingIncremental, BitIdenticalAcrossDecomposeThreads)
{
    // The incremental path is deterministic in its worker count: with
    // the base decomposition's subgraph split fixed (the appended batch
    // always splits into kAppendSubgraphs), structures and results must
    // be bit-identical for every preprocess.decompose.num_threads.
    std::vector<std::vector<Value>> per_thread_results;
    std::vector<std::vector<std::uint32_t>> per_thread_offsets;
    for (const unsigned threads : {1u, 4u}) {
        engine::EngineOptions opts = smallOptions();
        opts.preprocess.decompose.num_subgraphs = 4;
        opts.preprocess.decompose.num_threads = threads;
        engine::EvolvingEngine evolving(testGraph(85), opts);
        const algorithms::Sssp sssp(0);
        evolving.run(sssp);
        SplitMix64 rng(86);
        std::vector<Value> concat;
        for (int step_i = 0; step_i < 3; ++step_i) {
            const auto step =
                evolving.insertAndRun(sssp, randomBatch(rng, 620, 50));
            EXPECT_TRUE(step.incremental);
            concat.insert(concat.end(), step.run.final_state.begin(),
                          step.run.final_state.end());
        }
        per_thread_results.push_back(std::move(concat));
        per_thread_offsets.push_back(
            evolving.preprocessed().partition_offsets);
    }
    ASSERT_EQ(per_thread_results[0].size(),
              per_thread_results[1].size());
    for (std::size_t i = 0; i < per_thread_results[0].size(); ++i) {
        ASSERT_EQ(per_thread_results[0][i], per_thread_results[1][i])
            << "state diverged at flat index " << i;
    }
    EXPECT_EQ(per_thread_offsets[0], per_thread_offsets[1])
        << "incremental structures must not depend on the worker count";
}

// ------------------------------------------------- fig11-style smoke

TEST(EvolvingIncremental, Fig11MultiBatchSmoke)
{
    // Miniature of the bench/fig11_updates ingestion workload: a
    // sequence of insertion batches, warm sssp after each, incremental
    // ingestion throughout, correct final state.
    engine::EvolvingEngine evolving(testGraph(87, 1500, 9000),
                                    smallOptions());
    const algorithms::Sssp sssp(0);
    evolving.run(sssp);
    SplitMix64 rng(88);
    double incremental_pre = 0.0;
    for (int step_i = 0; step_i < 5; ++step_i) {
        const auto step =
            evolving.insertAndRun(sssp, randomBatch(rng, 1520, 100));
        EXPECT_TRUE(step.incremental);
        EXPECT_TRUE(step.warm);
        EXPECT_GT(step.reused_paths, 0u);
        incremental_pre += step.preprocess_seconds;
    }
    EXPECT_EQ(evolving.batchesApplied(), 5u);
    const auto oracle = baselines::runSequential(evolving.graph(), sssp);
    expectStatesIdentical(oracle.state,
                          baselines::runSequential(evolving.graph(),
                                                   sssp)
                              .state,
                          "oracle self-check");
    const auto final_step = evolving.insertAndRun(sssp, {});
    expectStatesIdentical(final_step.run.final_state, oracle.state,
                          "fig11 smoke");
    EXPECT_GE(incremental_pre, 0.0);
}

} // namespace
} // namespace digraph
