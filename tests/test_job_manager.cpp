/**
 * @file
 * JobManager: N concurrent algorithm jobs over ONE shared immutable
 * EngineSubstrate. The contract under test: per-job results are
 * bit-identical to dedicated single-job engines, independent of job
 * order and across repeated drains; the substrate is genuinely shared
 * (pointer identity, paid once); and every job's counters equal its
 * report aggregates.
 */

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "algorithms/factory.hpp"
#include "engine/digraph_engine.hpp"
#include "engine/job_manager.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "metrics/counter_registry.hpp"

namespace digraph {
namespace {

graph::DirectedGraph
testGraph(std::uint64_t seed = 77)
{
    graph::GeneratorConfig c;
    c.num_vertices = 400;
    c.num_edges = 2400;
    c.seed = seed;
    return graph::generate(c);
}

engine::EngineOptions
testOptions()
{
    engine::EngineOptions opts;
    opts.platform.num_devices = 2;
    opts.platform.smx_per_device = 4;
    return opts;
}

const std::vector<std::string> kJobs = {"sssp:0", "pagerank", "wcc"};

void
expectSameReport(const metrics::RunReport &a, const metrics::RunReport &b,
                 const std::string &label)
{
    EXPECT_EQ(a.waves, b.waves) << label;
    EXPECT_EQ(a.edge_processings, b.edge_processings) << label;
    EXPECT_EQ(a.vertex_updates, b.vertex_updates) << label;
    EXPECT_EQ(a.sim_cycles, b.sim_cycles) << label;
    EXPECT_EQ(a.final_state, b.final_state) << label;
}

TEST(JobManager, ThreeConcurrentJobsMatchDedicatedEngines)
{
    const auto g = testGraph();
    const auto opts = testOptions();

    engine::JobManager manager(g, opts);
    for (const auto &spec : kJobs)
        manager.addJob(spec);
    ASSERT_EQ(manager.numJobs(), kJobs.size());
    const auto results = manager.runAll();
    ASSERT_EQ(results.size(), kJobs.size());

    for (std::size_t i = 0; i < kJobs.size(); ++i) {
        EXPECT_EQ(results[i].spec, kJobs[i]);
        EXPECT_GT(results[i].job_state_bytes, 0u);

        // A dedicated engine with its OWN preprocessing must agree bit
        // for bit: sharing the substrate changes nothing observable.
        engine::DiGraphEngine eng(g, opts);
        const auto algo = algorithms::makeAlgorithmSpec(kJobs[i], g);
        const auto dedicated = eng.run(*algo);
        expectSameReport(results[i].report, dedicated, kJobs[i]);
    }
}

TEST(JobManager, ResultsIndependentOfJobOrder)
{
    const auto g = testGraph();
    const auto opts = testOptions();

    engine::JobManager forward(g, opts);
    for (const auto &spec : kJobs)
        forward.addJob(spec);
    const auto fwd = forward.runAll();

    std::vector<std::string> reversed(kJobs.rbegin(), kJobs.rend());
    engine::JobManager backward(g, opts);
    for (const auto &spec : reversed)
        backward.addJob(spec);
    const auto bwd = backward.runAll();

    for (std::size_t i = 0; i < kJobs.size(); ++i) {
        const auto match = std::find_if(
            bwd.begin(), bwd.end(),
            [&](const auto &job) { return job.spec == kJobs[i]; });
        ASSERT_NE(match, bwd.end()) << kJobs[i];
        expectSameReport(fwd[i].report, match->report, kJobs[i]);
    }
}

TEST(JobManager, RepeatedDrainsAreIdentical)
{
    const auto g = testGraph();
    engine::JobManager manager(g, testOptions());
    manager.addJobs("sssp:0,pagerank,wcc");
    const auto first = manager.runAll();
    const auto second = manager.runAll();

    ASSERT_EQ(first.size(), second.size());
    for (std::size_t i = 0; i < first.size(); ++i)
        expectSameReport(first[i].report, second[i].report,
                         first[i].spec);
}

TEST(JobManager, AdoptedSubstrateIsSharedByPointer)
{
    const auto g = testGraph();
    const auto opts = testOptions();

    engine::DiGraphEngine eng(g, opts);
    const auto sub = eng.substrate();
    ASSERT_NE(sub, nullptr);

    engine::JobManager manager(g, sub, opts);
    EXPECT_EQ(manager.substrate().get(), sub.get());
    EXPECT_EQ(manager.sharedBytes(), sub->memoryBytes());

    // The adopted substrate drives runs just like a freshly built one.
    manager.addJob("wcc");
    const auto results = manager.runAll();
    ASSERT_EQ(results.size(), 1u);
    const auto algo = algorithms::makeAlgorithmSpec("wcc", g);
    engine::DiGraphEngine check(g, opts);
    expectSameReport(results[0].report, check.run(*algo), "wcc adopted");
}

TEST(JobManager, CountersEqualReportAggregates)
{
    const auto g = testGraph();
    engine::JobManager manager(g, testOptions());
    manager.addJobs("sssp:0,pagerank,wcc");
    const auto results = manager.runAll(/*with_traces=*/true);
    for (const auto &job : results) {
        EXPECT_EQ(job.counters,
                  metrics::CounterRegistry::fromReport(job.report))
            << job.spec;
        ASSERT_NE(job.trace, nullptr) << job.spec;
        EXPECT_EQ(job.trace->counters(), job.counters) << job.spec;
    }
}

TEST(JobManager, NoTracesUnlessRequested)
{
    const auto g = testGraph();
    engine::JobManager manager(g, testOptions());
    manager.addJob("kcore:2");
    const auto results = manager.runAll();
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].trace, nullptr);
}

TEST(JobManager, AddJobsSplitsCommaSpecs)
{
    const auto g = testGraph();
    engine::JobManager manager(g, testOptions());
    manager.addJobs("sssp:0,pagerank");
    manager.addJob("wcc");
    EXPECT_EQ(manager.numJobs(), 3u);
}

TEST(JobManager, AddJobsToleratesTrailingCommasAndWhitespace)
{
    const auto g = testGraph();
    engine::JobManager manager(g, testOptions());
    // Shell artifacts: trailing comma, doubled comma, padding — all
    // skipped; the specs themselves arrive trimmed.
    manager.addJobs(" sssp:0 ,, pagerank\t, wcc ,");
    ASSERT_EQ(manager.numJobs(), 3u);
    const auto results = manager.runAll();
    ASSERT_EQ(results.size(), 3u);
    EXPECT_EQ(results[0].spec, "sssp:0");
    EXPECT_EQ(results[1].spec, "pagerank");
    EXPECT_EQ(results[2].spec, "wcc");
}

TEST(JobManagerDeathTest, AddJobsRejectsAllEmptyList)
{
    const auto g = testGraph();
    engine::JobManager manager(g, testOptions());
    EXPECT_EXIT(manager.addJobs(" , ,"),
                ::testing::ExitedWithCode(1), "no job specs");
}

TEST(JobManagerDeathTest, AdoptRejectsVertexCountMismatch)
{
    // Graph B has the same edges as graph A plus one extra isolated
    // vertex: the substrate's edge-count check alone would pass, so
    // the vertex-count check must catch the mismatch.
    const auto makeChain = [](VertexId n) {
        graph::GraphBuilder builder(n);
        builder.addEdge(0, 1);
        builder.addEdge(1, 2);
        builder.addEdge(2, 3);
        return builder.build();
    };
    const auto a = makeChain(4);
    const auto b = makeChain(5);
    const auto opts = testOptions();

    engine::DiGraphEngine eng(a, opts);
    const auto sub = eng.substrate();
    ASSERT_EQ(sub->pre.paths.numEdges(), b.numEdges());
    EXPECT_EXIT(engine::JobManager(b, sub, opts),
                ::testing::ExitedWithCode(1), "vertices");
}

} // namespace
} // namespace digraph
