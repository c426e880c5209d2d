/**
 * @file
 * Batched multi-source (lane) execution: every lane of a K-wide run
 * must equal the corresponding single-source run — bitwise for the
 * monotone msbfs lanes, within resultTolerance() for the accumulative
 * ppr lanes; a K = 1 lane run must be
 * bit-identical (states AND counters) to the scalar engine; and lane
 * jobs must run as ordinary batch jobs through the GraphService path.
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "algorithms/factory.hpp"
#include "algorithms/multi_source.hpp"
#include "engine/digraph_engine.hpp"
#include "engine/job_manager.hpp"
#include "test_util.hpp"

namespace digraph {
namespace {

engine::EngineOptions
laneOptions()
{
    engine::EngineOptions opts;
    opts.verify_invariants = true; // lane invariant checker on, always
    return opts;
}

/** Spread K sources over the vertex range deterministically. */
std::vector<VertexId>
pickSources(VertexId n, unsigned k)
{
    std::vector<VertexId> sources;
    for (unsigned i = 0; i < k; ++i)
        sources.push_back(static_cast<VertexId>((i * n) / k + i % 3));
    for (VertexId &s : sources)
        s = s % n;
    return sources;
}

/** Bitwise comparison of two state vectors (inf == inf included). */
void
expectStatesBitwise(const std::vector<Value> &got,
                    const std::vector<Value> &want,
                    const std::string &label)
{
    ASSERT_EQ(got.size(), want.size()) << label;
    for (std::size_t v = 0; v < got.size(); ++v) {
        EXPECT_EQ(got[v], want[v]) << label << ": vertex " << v;
    }
}

TEST(MultiSourceLanes, EveryMsBfsLaneMatchesScalarBfsBitwise)
{
    for (auto &ng : test::testGraphs()) {
        const auto sources = pickSources(ng.graph.numVertices(), 5);
        const algorithms::MsBfs batched(sources);
        engine::DiGraphEngine eng(ng.graph, laneOptions());
        const auto report = eng.run(batched);
        ASSERT_EQ(report.value_lanes, sources.size());
        ASSERT_EQ(report.lane_states.size(), sources.size());
        for (std::size_t l = 0; l < sources.size(); ++l) {
            const algorithms::Bfs oracle(sources[l]);
            engine::DiGraphEngine ref(ng.graph, laneOptions());
            const auto want = ref.run(oracle);
            // Monotone min-plus lanes: bitwise, not near.
            expectStatesBitwise(report.lane_states[l], want.final_state,
                                ng.name + "/msbfs lane " +
                                    std::to_string(l));
        }
    }
}

TEST(MultiSourceLanes, EveryPprLaneMatchesSingleSeedOracle)
{
    for (auto &ng : test::testGraphs()) {
        const auto seeds = pickSources(ng.graph.numVertices(), 4);
        const algorithms::Ppr batched(seeds);
        engine::DiGraphEngine eng(ng.graph, laneOptions());
        const auto report = eng.run(batched);
        ASSERT_EQ(report.value_lanes, seeds.size());
        for (std::size_t l = 0; l < seeds.size(); ++l) {
            const algorithms::PprSingle oracle(seeds[l]);
            engine::DiGraphEngine ref(ng.graph, laneOptions());
            const auto want = ref.run(oracle);
            // Accumulative family: lanes and the scalar oracle may
            // truncate different sub-epsilon residuals, so compare
            // within the algorithm's result tolerance.
            test::expectStatesNear(report.lane_states[l],
                                   want.final_state,
                                   batched.resultTolerance(),
                                   ng.name + "/ppr lane " +
                                       std::to_string(l));
        }
    }
}

/** Fields that must match bit-for-bit between a K = 1 lane run and the
 *  equivalent scalar run (lane machinery mirrors the scalar control
 *  flow exactly at K = 1, counters included). */
void
expectIdenticalRuns(const metrics::RunReport &lane,
                    const metrics::RunReport &scalar,
                    const std::string &label)
{
    expectStatesBitwise(lane.final_state, scalar.final_state, label);
    EXPECT_EQ(lane.edge_processings, scalar.edge_processings) << label;
    EXPECT_EQ(lane.vertex_updates, scalar.vertex_updates) << label;
    EXPECT_EQ(lane.rounds, scalar.rounds) << label;
    EXPECT_EQ(lane.waves, scalar.waves) << label;
    EXPECT_EQ(lane.partition_processings, scalar.partition_processings)
        << label;
    EXPECT_EQ(lane.host_transfer_bytes, scalar.host_transfer_bytes)
        << label;
    EXPECT_EQ(lane.ring_transfer_bytes, scalar.ring_transfer_bytes)
        << label;
    EXPECT_EQ(lane.global_load_bytes, scalar.global_load_bytes)
        << label;
    EXPECT_EQ(lane.loaded_vertices, scalar.loaded_vertices) << label;
    EXPECT_EQ(lane.sim_cycles, scalar.sim_cycles) << label;
    EXPECT_EQ(lane.utilization, scalar.utilization) << label;
}

TEST(MultiSourceLanes, SingleLaneMsBfsIsBitIdenticalToScalarBfs)
{
    for (auto &ng : test::testGraphs()) {
        const VertexId src = ng.graph.numVertices() / 3;
        const algorithms::MsBfs batched({src});
        const algorithms::Bfs scalar(src);
        engine::DiGraphEngine lane_eng(ng.graph, laneOptions());
        const auto lane = lane_eng.run(batched);
        engine::DiGraphEngine ref(ng.graph, laneOptions());
        const auto want = ref.run(scalar);
        EXPECT_EQ(lane.value_lanes, 1u);
        expectIdenticalRuns(lane, want, ng.name + "/K=1 msbfs");
    }
}

TEST(MultiSourceLanes, SingleLanePprIsBitIdenticalToScalarOracle)
{
    for (auto &ng : test::testGraphs()) {
        const VertexId seed = ng.graph.numVertices() / 2;
        const algorithms::Ppr batched({seed});
        const algorithms::PprSingle scalar(seed);
        engine::DiGraphEngine lane_eng(ng.graph, laneOptions());
        const auto lane = lane_eng.run(batched);
        engine::DiGraphEngine ref(ng.graph, laneOptions());
        const auto want = ref.run(scalar);
        expectIdenticalRuns(lane, want, ng.name + "/K=1 ppr");
    }
}

TEST(MultiSourceLanes, BatchedResultsAreReproducible)
{
    const auto g = graph::makeDataset(graph::Dataset::dblp, 0.1);
    const auto sources = pickSources(g.numVertices(), 8);
    const algorithms::Ppr batched(sources);

    engine::DiGraphEngine first(g, laneOptions());
    const auto base = first.run(batched);
    engine::DiGraphEngine second(g, laneOptions());
    const auto got = second.run(batched);
    ASSERT_EQ(got.lane_states.size(), base.lane_states.size());
    for (std::size_t l = 0; l < base.lane_states.size(); ++l) {
        expectStatesBitwise(got.lane_states[l], base.lane_states[l],
                            "ppr lane " + std::to_string(l));
    }
    EXPECT_EQ(got.edge_processings, base.edge_processings);
    EXPECT_EQ(got.sim_cycles, base.sim_cycles);
    EXPECT_EQ(got.lane_converged_wave, base.lane_converged_wave);
}

TEST(MultiSourceLanes, LaneConvergedWaveIsMonotoneInformation)
{
    // A lane seeded at an isolated-from-the-rest position converges no
    // later than the whole batch; every entry is <= total waves.
    const auto g = graph::makeDataset(graph::Dataset::dblp, 0.1);
    const auto sources = pickSources(g.numVertices(), 6);
    const algorithms::MsBfs batched(sources);
    engine::DiGraphEngine eng(g, laneOptions());
    const auto report = eng.run(batched);
    ASSERT_EQ(report.lane_converged_wave.size(), sources.size());
    for (const std::uint64_t w : report.lane_converged_wave)
        EXPECT_LE(w, report.waves + 1);
}

TEST(MultiSourceLanes, FactorySpecsBuildLaneAlgorithms)
{
    const auto g = graph::makeDataset(graph::Dataset::dblp, 0.1);
    const auto ppr = algorithms::makeAlgorithmSpec("ppr:1+5+9", g);
    const auto *ppr_lane =
        dynamic_cast<const algorithms::Ppr *>(ppr.get());
    ASSERT_NE(ppr_lane, nullptr);
    EXPECT_EQ(ppr_lane->lanes(), 3u);
    EXPECT_EQ(ppr_lane->seeds(), (std::vector<VertexId>{1, 5, 9}));

    const auto msbfs = algorithms::makeAlgorithmSpec("msbfs:0,2,4,6", g);
    const auto *msbfs_lane =
        dynamic_cast<const algorithms::MsBfs *>(msbfs.get());
    ASSERT_NE(msbfs_lane, nullptr);
    EXPECT_EQ(msbfs_lane->lanes(), 4u);
}

TEST(MultiSourceLanes, ServiceRunsLaneJobsAsBatchClass)
{
    // Lane jobs are ordinary batch jobs of the two-level scheduler:
    // submitted by spec, run over the shared substrate, reported with
    // per-lane states.
    const auto g = graph::makeDataset(graph::Dataset::dblp, 0.1);
    engine::JobManager manager(g, engine::EngineOptions{});
    manager.addJobs("msbfs:0+5+9,pagerank,ppr:1+7");
    const auto results = manager.runAll(false);
    ASSERT_EQ(results.size(), 3u);

    EXPECT_EQ(results[0].report.value_lanes, 3u);
    EXPECT_EQ(results[1].report.value_lanes, 1u);
    EXPECT_EQ(results[2].report.value_lanes, 2u);

    // Each lane of the service job equals a direct single-source run.
    const algorithms::Bfs oracle(5);
    engine::DiGraphEngine ref(g, laneOptions());
    const auto want = ref.run(oracle);
    expectStatesBitwise(results[0].report.lane_states[1],
                        want.final_state, "service msbfs lane 1");
}

TEST(MultiSourceLanesDeath, VertexAsyncModeIsRejected)
{
    const auto g = graph::makeChain(16, 1.0);
    const algorithms::MsBfs batched({0, 4});
    engine::EngineOptions opts;
    opts.mode = engine::ExecutionMode::VertexAsync;
    engine::DiGraphEngine eng(g, opts);
    EXPECT_EXIT((void)eng.run(batched),
                ::testing::ExitedWithCode(1), "lane");
}

TEST(MultiSourceLanesDeath, LaneCountLimitsAreEnforced)
{
    EXPECT_EXIT((void)algorithms::MsBfs({}),
                ::testing::ExitedWithCode(1), "1..64");
    std::vector<VertexId> too_many(65, 0);
    EXPECT_EXIT((void)algorithms::Ppr(too_many),
                ::testing::ExitedWithCode(1), "1..64");
}

} // namespace
} // namespace digraph
