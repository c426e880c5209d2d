/**
 * @file
 * The wave engine runs each wave's dispatches one at a time in
 * Dispatcher::waveOrder(), so a run is a function of its input alone:
 * fresh engines, reruns and traced runs agree bit for bit, down to the
 * trace's event sequence. The incremental activation bookkeeping
 * (per-path counters, worklists, stale queues and their pending flags)
 * must stay consistent across dispatch patterns, lane runs and
 * device-loss recovery.
 */

#include <algorithm>

#include <gtest/gtest.h>

#include "algorithms/factory.hpp"
#include "algorithms/multi_source.hpp"
#include "engine/digraph_engine.hpp"
#include "engine/dispatcher.hpp"
#include "gpusim/fault.hpp"
#include "metrics/trace.hpp"
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
    // Lane runs dedupe stale entries with a per-entry pending lane mask
    // instead of the scalar flag; the recount covers both.
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
    const auto inv = eng.postRunLaneInvariants(ppr);
    EXPECT_TRUE(inv.ok()) << inv.detail;
}

TEST(ActivationBookkeeping, ConsistentAfterDeviceLossRecovery)
{
    // Recovery drops every stale queue; the pending flags must go with
    // them, or the flagged vertices are never enqueued again.
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

} // namespace
} // namespace digraph
