/**
 * @file
 * Tests for the observability subsystem: CounterRegistry semantics,
 * TraceSink event collection, exporter output, the invariant that a
 * trace's counter totals equal the RunReport aggregates of the traced
 * run — on the DiGraph engine and both baselines — and that tracing
 * never changes a DiGraph run in any mode or lane width.
 */

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "algorithms/multi_source.hpp"
#include "algorithms/pagerank.hpp"
#include "algorithms/sssp.hpp"
#include "baselines/async_engine.hpp"
#include "baselines/bsp_engine.hpp"
#include "baselines/sequential.hpp"
#include "engine/digraph_engine.hpp"
#include "graph/generators.hpp"
#include "metrics/counter_registry.hpp"
#include "metrics/trace.hpp"

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

graph::DirectedGraph
testGraph(std::uint64_t seed = 77)
{
    graph::GeneratorConfig c;
    c.num_vertices = 400;
    c.num_edges = 2400;
    c.seed = seed;
    return graph::generate(c);
}

// ------------------------------------------------------ CounterRegistry

TEST(CounterRegistry, AddSetGetReset)
{
    metrics::CounterRegistry c;
    EXPECT_EQ(c.get(metrics::Counter::Rounds), 0u);
    c.add(metrics::Counter::Rounds);
    c.add(metrics::Counter::Rounds, 4);
    EXPECT_EQ(c.get(metrics::Counter::Rounds), 5u);
    c.set(metrics::Counter::Waves, 9);
    EXPECT_EQ(c.get(metrics::Counter::Waves), 9u);
    c.reset();
    EXPECT_EQ(c.get(metrics::Counter::Rounds), 0u);
    EXPECT_EQ(c.get(metrics::Counter::Waves), 0u);
}

TEST(CounterRegistry, MergeAddsEveryCounter)
{
    metrics::CounterRegistry a, b;
    a.add(metrics::Counter::EdgeProcessings, 10);
    b.add(metrics::Counter::EdgeProcessings, 7);
    b.add(metrics::Counter::VertexUpdates, 3);
    a.merge(b);
    EXPECT_EQ(a.get(metrics::Counter::EdgeProcessings), 17u);
    EXPECT_EQ(a.get(metrics::Counter::VertexUpdates), 3u);
}

TEST(CounterRegistry, ReportRoundTripIsExact)
{
    metrics::CounterRegistry c;
    std::uint64_t next = 1;
    c.forEach([&](metrics::Counter counter, std::uint64_t) {
        c.set(counter, next++);
    });
    metrics::RunReport report;
    c.exportTo(report);
    EXPECT_EQ(report.edge_processings,
              c.get(metrics::Counter::EdgeProcessings));
    EXPECT_EQ(report.ring_transfer_bytes,
              c.get(metrics::Counter::RingTransferBytes));
    EXPECT_TRUE(metrics::CounterRegistry::fromReport(report) == c);
}

TEST(CounterRegistry, NamesAreStableSnakeCase)
{
    EXPECT_STREQ(metrics::counterName(metrics::Counter::EdgeProcessings),
                 "edge_processings");
    EXPECT_STREQ(metrics::counterName(metrics::Counter::GlobalLoadBytes),
                 "global_load_bytes");
    // Every counter has a distinct non-empty name.
    metrics::CounterRegistry c;
    std::set<std::string> names;
    c.forEach([&](metrics::Counter counter, std::uint64_t) {
        names.insert(metrics::counterName(counter));
    });
    EXPECT_EQ(names.size(), metrics::kNumCounters);
}

// ------------------------------------------------------------ TraceSink

TEST(TraceSink, RecordsCountsAndClears)
{
    metrics::TraceSink sink;
    sink.event(metrics::TraceEventType::WaveStart, 1,
               metrics::kTraceNoPartition, 0.0);
    sink.event(metrics::TraceEventType::Dispatch, 1, 3, 10.0, 5.0, 2, 40);
    sink.event(metrics::TraceEventType::Dispatch, 1, 4, 12.0, 2.0, 1, 8);
    EXPECT_EQ(sink.size(), 3u);
    EXPECT_EQ(sink.count(metrics::TraceEventType::Dispatch), 2u);
    EXPECT_EQ(sink.count(metrics::TraceEventType::Steal), 0u);
    const auto events = sink.events();
    EXPECT_EQ(events[1].partition, 3u);
    EXPECT_EQ(events[1].arg1, 40u);
    sink.clear();
    EXPECT_EQ(sink.size(), 0u);
}

TEST(TraceSink, ChromeJsonIsWellFormed)
{
    const auto path = std::filesystem::temp_directory_path() /
                      "digraph_trace_test.json";
    metrics::TraceSink sink;
    sink.event(metrics::TraceEventType::WaveStart, 1,
               metrics::kTraceNoPartition, 0.0);
    sink.event(metrics::TraceEventType::Dispatch, 1, 7, 5.0, 3.0, 1, 2);
    metrics::CounterRegistry c;
    c.set(metrics::Counter::VertexUpdates, 42);
    sink.setCounters(c);
    sink.writeChromeJson(path.string());

    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string json = ss.str();
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"counters\""), std::string::npos);
    EXPECT_NE(json.find("\"vertex_updates\": 42"), std::string::npos);
    EXPECT_NE(json.find("\"dispatch\""), std::string::npos);
    // Wave-level events omit the partition arg entirely.
    EXPECT_EQ(json.find(std::to_string(metrics::kTraceNoPartition)),
              std::string::npos);
    std::filesystem::remove(path);
}

TEST(TraceSink, CsvHasOneRowPerEvent)
{
    const auto path = std::filesystem::temp_directory_path() /
                      "digraph_trace_test.csv";
    metrics::TraceSink sink;
    sink.event(metrics::TraceEventType::WaveStart, 1,
               metrics::kTraceNoPartition, 0.0);
    sink.event(metrics::TraceEventType::Dispatch, 1, 7, 5.0, 3.0, 1, 2);
    sink.writeCsv(path.string());
    std::ifstream in(path);
    std::string line;
    std::size_t lines = 0;
    while (std::getline(in, line))
        ++lines;
    EXPECT_EQ(lines, sink.size() + 1); // header + events
    std::filesystem::remove(path);
}

// --------------------------------------------- Engine / baseline traces

TEST(EngineTrace, CounterTotalsMatchReportAggregates)
{
    const auto g = testGraph();
    engine::EngineOptions opts;
    opts.platform = smallPlatform();
    metrics::TraceSink sink;
    opts.trace = &sink;
    engine::DiGraphEngine eng(g, opts);
    const algorithms::Sssp sssp(0);
    const auto report = eng.run(sssp);

    EXPECT_GT(sink.size(), 0u);
    EXPECT_TRUE(sink.counters() ==
                metrics::CounterRegistry::fromReport(report))
        << "trace counters must equal the RunReport aggregates";
    EXPECT_EQ(sink.count(metrics::TraceEventType::WaveStart),
              sink.count(metrics::TraceEventType::WaveEnd));
    EXPECT_EQ(sink.count(metrics::TraceEventType::Dispatch),
              report.partition_processings);
    EXPECT_EQ(sink.count(metrics::TraceEventType::MergeBarrier),
              report.partition_processings);
}

TEST(EngineTrace, TracedRunMatchesUntracedRun)
{
    // Traced and untraced runs share one wave body in every mode and
    // lane width, so the sink must only observe: same states in every
    // lane, counters and sim cycles.
    using engine::ExecutionMode;
    const auto g = testGraph(78);
    const algorithms::Sssp sssp(0);
    const algorithms::PageRank pagerank;
    const algorithms::Ppr ppr8({0, 1, 2, 3, 4, 5, 6, 7});
    struct Case
    {
        const algorithms::Algorithm *algo;
        ExecutionMode mode;
    };
    std::vector<Case> cases;
    for (const ExecutionMode mode :
         {ExecutionMode::PathAsync, ExecutionMode::PathNoSched,
          ExecutionMode::VertexAsync}) {
        cases.push_back({&sssp, mode});
        cases.push_back({&pagerank, mode});
    }
    cases.push_back({&ppr8, ExecutionMode::PathAsync});
    cases.push_back({&ppr8, ExecutionMode::PathNoSched});

    for (const Case &c : cases) {
        const std::string label =
            c.algo->name() + " " + engine::modeName(c.mode);
        engine::EngineOptions opts;
        opts.platform = smallPlatform();
        opts.mode = c.mode;
        engine::DiGraphEngine plain(g, opts);
        const auto base = plain.run(*c.algo);

        metrics::TraceSink sink;
        opts.trace = &sink;
        engine::DiGraphEngine traced(g, opts);
        const auto withtrace = traced.run(*c.algo);

        EXPECT_EQ(base.final_state, withtrace.final_state) << label;
        EXPECT_EQ(base.lane_states, withtrace.lane_states) << label;
        EXPECT_TRUE(plain.counters() == traced.counters()) << label;
        EXPECT_EQ(base.sim_cycles, withtrace.sim_cycles) << label;
        // Pri(p) path selection, and the event that reports it, belong
        // to DiGraph alone.
        const std::size_t schedules =
            sink.count(metrics::TraceEventType::PathSchedule);
        if (c.mode == ExecutionMode::PathAsync)
            EXPECT_GT(schedules, 0u) << label;
        else
            EXPECT_EQ(schedules, 0u) << label;
    }
}

TEST(EngineTrace, ReusedEngineResetsCountersBetweenRuns)
{
    const auto g = testGraph(79);
    engine::EngineOptions opts;
    opts.platform = smallPlatform();
    engine::DiGraphEngine eng(g, opts);
    const algorithms::Sssp sssp(0);
    const auto first = eng.run(sssp);
    const auto second = eng.run(sssp);
    EXPECT_EQ(first.edge_processings, second.edge_processings);
    EXPECT_EQ(first.vertex_updates, second.vertex_updates);
}

TEST(BaselineTrace, BspCounterTotalsMatchReport)
{
    const auto g = testGraph(80);
    baselines::BaselineOptions opts;
    opts.platform = smallPlatform();
    metrics::TraceSink sink;
    opts.trace = &sink;
    const algorithms::PageRank pr;
    const auto report = baselines::runBsp(g, pr, opts);
    EXPECT_GT(sink.size(), 0u);
    EXPECT_TRUE(sink.counters() ==
                metrics::CounterRegistry::fromReport(report));
    EXPECT_EQ(sink.count(metrics::TraceEventType::WaveStart),
              report.rounds);
    EXPECT_EQ(sink.count(metrics::TraceEventType::WaveEnd),
              report.rounds);
}

TEST(BaselineTrace, AsyncCounterTotalsMatchReport)
{
    const auto g = testGraph(81);
    baselines::BaselineOptions opts;
    opts.platform = smallPlatform();
    metrics::TraceSink sink;
    opts.trace = &sink;
    const algorithms::Sssp sssp(0);
    const auto result = baselines::runAsync(g, sssp, opts);
    EXPECT_GT(sink.size(), 0u);
    EXPECT_TRUE(sink.counters() ==
                metrics::CounterRegistry::fromReport(result.report));
    EXPECT_EQ(sink.count(metrics::TraceEventType::Dispatch),
              result.report.partition_processings);
}

TEST(BaselineTrace, SequentialCounterTotalsMatchReport)
{
    const auto g = testGraph(82);
    metrics::TraceSink sink;
    const algorithms::Sssp sssp(0);
    const auto result = baselines::runSequential(g, sssp, &sink);
    EXPECT_TRUE(sink.counters() ==
                metrics::CounterRegistry::fromReport(result.report));
    EXPECT_EQ(result.report.edge_processings, result.edge_processings);
    EXPECT_EQ(result.report.vertex_updates, result.vertex_updates);
    EXPECT_EQ(result.report.final_state, result.state);
    EXPECT_EQ(result.report.system, "sequential");
}

TEST(BaselineTrace, TopologicalCounterTotalsMatchReport)
{
    const auto g = testGraph(83);
    metrics::TraceSink sink;
    const algorithms::PageRank pr;
    const auto result = baselines::runTopological(g, pr, &sink);
    EXPECT_TRUE(sink.counters() ==
                metrics::CounterRegistry::fromReport(result.report));
    EXPECT_EQ(result.report.rounds, result.rounds);
    EXPECT_EQ(result.report.system, "sequential-topo");
}

} // namespace
} // namespace digraph
