/**
 * @file
 * The parallel wave execution engine: results must be bit-identical for
 * every engine_threads value (the wave-snapshot + ordered-barrier design
 * guarantee), and the incremental activation bookkeeping (per-path
 * counters, worklists, stale queues and their pending flags) must stay
 * consistent across dispatch patterns, lane runs and device-loss
 * recovery.
 */

#include <gtest/gtest.h>

#include "algorithms/factory.hpp"
#include "algorithms/multi_source.hpp"
#include "engine/digraph_engine.hpp"
#include "gpusim/fault.hpp"
#include "metrics/trace.hpp"
#include "test_util.hpp"

namespace digraph {
namespace {

engine::EngineOptions
optionsWithThreads(std::size_t threads)
{
    engine::EngineOptions opts;
    opts.engine_threads = threads;
    return opts;
}

/** Fields that must match bit-for-bit between thread counts. */
void
expectIdenticalReports(const metrics::RunReport &a,
                       const metrics::RunReport &b,
                       const std::string &label)
{
    ASSERT_EQ(a.final_state.size(), b.final_state.size()) << label;
    for (std::size_t v = 0; v < a.final_state.size(); ++v) {
        // Bitwise, not near: the barrier replays master merges in
        // dispatch order, so even float accumulation must agree.
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

TEST(ParallelWaves, ThreadCountDoesNotChangeResults)
{
    for (auto &ng : test::testGraphs()) {
        for (const char *algo_name : {"pagerank", "sssp", "wcc"}) {
            const auto algo =
                algorithms::makeAlgorithm(algo_name, ng.graph);

            engine::DiGraphEngine serial(ng.graph, optionsWithThreads(1));
            const auto base = serial.run(*algo);
            EXPECT_EQ(base.engine_threads, 1u);

            for (const std::size_t threads : {2ul, 4ul}) {
                engine::DiGraphEngine parallel(ng.graph,
                                               optionsWithThreads(threads));
                const auto got = parallel.run(*algo);
                EXPECT_EQ(got.engine_threads, threads);
                expectIdenticalReports(
                    base, got,
                    ng.name + "/" + algo_name + "/threads=" +
                        std::to_string(threads));
            }
        }
    }
}

TEST(ParallelWaves, TracingDoesNotChangeResultsAtAnyThreadCount)
{
    const auto g = graph::makeDataset(graph::Dataset::dblp, 0.2);
    const auto algo = algorithms::makeAlgorithm("sssp", g);

    engine::DiGraphEngine plain(g, optionsWithThreads(1));
    const auto base = plain.run(*algo);

    metrics::CounterRegistry serial_counters;
    for (const std::size_t threads : {1ul, 2ul, 4ul}) {
        auto opts = optionsWithThreads(threads);
        metrics::TraceSink sink;
        opts.trace = &sink;
        engine::DiGraphEngine traced(g, opts);
        const auto got = traced.run(*algo);
        expectIdenticalReports(base, got,
                               "traced/threads=" +
                                   std::to_string(threads));
        // Counter totals and per-type event counts must not depend on
        // the thread count (event *order* may).
        EXPECT_TRUE(sink.counters() ==
                    metrics::CounterRegistry::fromReport(got));
        if (threads == 1) {
            serial_counters = sink.counters();
        } else {
            EXPECT_TRUE(sink.counters() == serial_counters)
                << "threads=" << threads;
        }
    }
}

TEST(ParallelWaves, RerunOnSameEngineIsReproducible)
{
    const auto g = test::testGraphs()[6].graph; // "random"
    const auto algo = algorithms::makeAlgorithm("pagerank", g);
    engine::DiGraphEngine eng(g, optionsWithThreads(4));
    const auto first = eng.run(*algo);
    const auto second = eng.run(*algo);
    expectIdenticalReports(first, second, "rerun");
}

TEST(ParallelWaves, ThreadsZeroResolvesToHardwareConcurrency)
{
    const auto g = graph::makeChain(8, 1.0);
    engine::DiGraphEngine eng(g, optionsWithThreads(0));
    EXPECT_GE(eng.engineThreads(), 1u);
}

/** The incremental activation structures must agree with a full recount
 *  after every run, including runs that hit the max_local_rounds
 *  redispatch path and runs over multi-partition graphs. */
TEST(ActivationBookkeeping, ConsistentAfterConvergence)
{
    for (auto &ng : test::testGraphs()) {
        const auto algo = algorithms::makeAlgorithm("pagerank", ng.graph);
        engine::DiGraphEngine eng(ng.graph, optionsWithThreads(2));
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
        opts.engine_threads = 2;
        opts.max_local_rounds = 1;
        engine::DiGraphEngine eng(g, opts);
        const auto report = eng.run(*algo);
        EXPECT_TRUE(eng.activationBookkeepingConsistent()) << algo_name;

        // The truncated dispatches must still reach the same fixed
        // point as the unconstrained engine.
        engine::DiGraphEngine ref_eng(g, optionsWithThreads(1));
        const auto ref = ref_eng.run(*algo);
        test::expectStatesNear(report.final_state, ref.final_state,
                               algo->resultTolerance(),
                               std::string("redispatch/") + algo_name);
    }
}

TEST(ActivationBookkeeping, ConsistentOnEightLanePpr)
{
    // Lane runs dedupe stale entries with a per-entry pending lane mask
    // instead of the scalar flag; the recount covers both.
    const auto g = graph::makeDataset(graph::Dataset::dblp, 0.2);
    std::vector<VertexId> seeds;
    for (VertexId i = 0; i < 8; ++i)
        seeds.push_back(i * (g.numVertices() / 8));
    const algorithms::Ppr ppr(seeds);
    for (const std::size_t threads : {1ul, 2ul}) {
        auto opts = optionsWithThreads(threads);
        opts.max_local_rounds = 1;
        engine::DiGraphEngine eng(g, opts);
        const auto report = eng.run(ppr);
        EXPECT_EQ(report.value_lanes, 8u);
        EXPECT_TRUE(eng.activationBookkeepingConsistent())
            << "threads=" << threads;
        const auto inv = eng.postRunLaneInvariants(ppr);
        EXPECT_TRUE(inv.ok()) << inv.detail;
    }
}

TEST(ActivationBookkeeping, ConsistentAfterDeviceLossRecovery)
{
    // Recovery drops every stale queue; the pending flags must go with
    // them, or the flagged vertices are never enqueued again.
    const auto g = graph::makeDataset(graph::Dataset::dblp, 0.2);
    for (const char *algo_name : {"pagerank", "sssp"}) {
        const auto algo = algorithms::makeAlgorithm(algo_name, g);
        engine::EngineOptions opts = optionsWithThreads(2);
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

} // namespace
} // namespace digraph
