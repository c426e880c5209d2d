/**
 * @file
 * Golden single-job bit-identity harness: replays the checked-in
 * fixtures under tests/fixtures/golden/ — produced by the PRE-refactor
 * monolithic engine — against the layered engine.
 *
 * Discrete algorithms (sssp, wcc, kcore, bfs) must match every fixture
 * double BIT FOR BIT, counters included. The accumulative family
 * (pagerank, adsorption, katz) is held to a tight numeric tolerance
 * instead, so a future intentional reassociation of their floating-point
 * sums does not invalidate the whole harness; today they too match
 * exactly. HITS is compared against the power-iteration reference.
 *
 * The hub_* fixtures replay pagerank and sssp on the twitter stand-in at
 * scale 0.02, whose hubs are mirrored by more than 32 partitions; both
 * are held bit for bit (see golden_fixture_gen.cpp for their origin).
 * The hub_*_trace fixtures hold the same runs' full trace event
 * sequences, every field but the host wall stamp held exactly.
 * The longdist_* fixtures pin the wave dispatch order of every factory
 * algorithm on the longdist test graph, bit for bit. The lanes_*
 * fixtures pin batched ppr and msbfs runs at K = 8 and K = 12, every
 * lane bit for bit.
 */

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "algorithms/factory.hpp"
#include "algorithms/hits.hpp"
#include "algorithms/multi_source.hpp"
#include "engine/digraph_engine.hpp"
#include "graph/generators.hpp"
#include "metrics/trace.hpp"
#include "test_util.hpp"

namespace digraph {
namespace {

#ifndef DIGRAPH_FIXTURE_DIR
#error "DIGRAPH_FIXTURE_DIR must point at tests/fixtures/golden"
#endif

gpusim::PlatformConfig
smallPlatform()
{
    gpusim::PlatformConfig pc;
    pc.num_devices = 2;
    pc.smx_per_device = 4;
    return pc;
}

graph::DirectedGraph
goldenGraph()
{
    graph::GeneratorConfig c;
    c.num_vertices = 400;
    c.num_edges = 2400;
    c.seed = 77;
    return graph::generate(c);
}

std::uint64_t
bits(double v)
{
    std::uint64_t u = 0;
    std::memcpy(&u, &v, sizeof(u));
    return u;
}

double
fromBits(std::uint64_t u)
{
    double v = 0.0;
    std::memcpy(&v, &u, sizeof(v));
    return v;
}

struct Fixture
{
    std::uint64_t sim_cycles_bits = 0;
    std::uint64_t waves = 0;
    std::uint64_t edge_processings = 0;
    std::uint64_t vertex_updates = 0;
    std::vector<std::uint64_t> state_bits;
    /** Lane runs only (state_bits then stays empty). */
    std::vector<std::uint64_t> lane_converged_wave;
    std::vector<std::vector<std::uint64_t>> lane_bits;
};

Fixture
loadFixture(const std::string &algo, const std::string &mode)
{
    const std::string path = std::string(DIGRAPH_FIXTURE_DIR) + "/" +
                             algo + "_" + mode + ".txt";
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "missing fixture " << path;
    Fixture fx;
    std::string line;
    std::size_t expected_states = 0;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ss(line);
        std::string key;
        ss >> key;
        if (key == "sim_cycles") {
            ss >> std::hex >> fx.sim_cycles_bits;
        } else if (key == "waves") {
            ss >> fx.waves;
        } else if (key == "edge_processings") {
            ss >> fx.edge_processings;
        } else if (key == "vertex_updates") {
            ss >> fx.vertex_updates;
        } else if (key == "state") {
            ss >> expected_states;
            fx.state_bits.reserve(expected_states);
            while (fx.state_bits.size() < expected_states &&
                   std::getline(in, line)) {
                fx.state_bits.push_back(
                    std::stoull(line, nullptr, 16));
            }
        } else if (key == "lane_converged_wave") {
            std::size_t count = 0;
            ss >> count;
            while (fx.lane_converged_wave.size() < count &&
                   std::getline(in, line)) {
                fx.lane_converged_wave.push_back(std::stoull(line));
            }
        } else if (key == "lane") {
            std::size_t lane = 0, count = 0;
            ss >> lane >> count;
            EXPECT_EQ(lane, fx.lane_bits.size()) << path;
            auto &dst = fx.lane_bits.emplace_back();
            dst.reserve(count);
            while (dst.size() < count && std::getline(in, line))
                dst.push_back(std::stoull(line, nullptr, 16));
        }
    }
    EXPECT_EQ(fx.state_bits.size(), expected_states) << path;
    return fx;
}

metrics::RunReport
runGolden(const graph::DirectedGraph &g, const std::string &algo_name,
          engine::ExecutionMode mode)
{
    engine::EngineOptions opts;
    opts.mode = mode;
    opts.platform = smallPlatform();
    engine::DiGraphEngine eng(g, opts);
    const auto algo = algorithms::makeAlgorithm(algo_name, g);
    return eng.run(*algo);
}

void
expectBitwise(const Fixture &fx, const metrics::RunReport &report,
              const std::string &label)
{
    EXPECT_EQ(report.waves, fx.waves) << label;
    EXPECT_EQ(report.edge_processings, fx.edge_processings) << label;
    EXPECT_EQ(report.vertex_updates, fx.vertex_updates) << label;
    EXPECT_EQ(bits(report.sim_cycles), fx.sim_cycles_bits) << label;
    ASSERT_EQ(report.final_state.size(), fx.state_bits.size()) << label;
    for (std::size_t v = 0; v < fx.state_bits.size(); ++v) {
        ASSERT_EQ(bits(report.final_state[v]), fx.state_bits[v])
            << label << ": vertex " << v;
    }
}

void
expectTolerance(const Fixture &fx, const metrics::RunReport &report,
                const std::string &label, double tol = 1e-9)
{
    // The dispatch schedule and work counts must still match exactly —
    // only the floating-point values get slack.
    EXPECT_EQ(report.waves, fx.waves) << label;
    EXPECT_EQ(report.edge_processings, fx.edge_processings) << label;
    EXPECT_EQ(report.vertex_updates, fx.vertex_updates) << label;
    ASSERT_EQ(report.final_state.size(), fx.state_bits.size()) << label;
    for (std::size_t v = 0; v < fx.state_bits.size(); ++v) {
        const double want = fromBits(fx.state_bits[v]);
        ASSERT_NEAR(report.final_state[v], want,
                    tol * std::max(1.0, std::abs(want)))
            << label << ": vertex " << v;
    }
}

// ------------------------------------------------- bitwise algorithms

TEST(GoldenIdentity, BitwiseAlgorithms)
{
    const auto g = goldenGraph();
    for (const std::string algo : {"sssp", "kcore", "bfs", "wcc"}) {
        const Fixture fx = loadFixture(algo, "digraph");
        const auto report =
            runGolden(g, algo, engine::ExecutionMode::PathAsync);
        expectBitwise(fx, report, algo);
    }
}

TEST(GoldenIdentity, BitwiseAlternateModes)
{
    const auto g = goldenGraph();
    struct Case
    {
        const char *algo;
        engine::ExecutionMode mode;
        const char *mode_name;
    };
    for (const Case c :
         {Case{"sssp", engine::ExecutionMode::PathNoSched, "digraph-w"},
          Case{"sssp", engine::ExecutionMode::VertexAsync, "digraph-t"},
          Case{"wcc", engine::ExecutionMode::PathNoSched, "digraph-w"},
          Case{"wcc", engine::ExecutionMode::VertexAsync, "digraph-t"}}) {
        const Fixture fx = loadFixture(c.algo, c.mode_name);
        const auto report = runGolden(g, c.algo, c.mode);
        expectBitwise(fx, report,
                      std::string(c.algo) + " " + c.mode_name);
    }
}

// ----------------------------------------------- tolerance algorithms

TEST(GoldenIdentity, AccumulativeAlgorithmsWithinTolerance)
{
    const auto g = goldenGraph();
    for (const std::string algo : {"pagerank", "adsorption", "katz"}) {
        const Fixture fx = loadFixture(algo, "digraph");
        const auto report =
            runGolden(g, algo, engine::ExecutionMode::PathAsync);
        expectTolerance(fx, report, algo);
    }
}

TEST(GoldenIdentity, PagerankAlternateModesWithinTolerance)
{
    const auto g = goldenGraph();
    for (const auto &[mode, name] :
         {std::pair{engine::ExecutionMode::PathNoSched, "digraph-w"},
          std::pair{engine::ExecutionMode::VertexAsync, "digraph-t"}}) {
        const Fixture fx = loadFixture("pagerank", name);
        const auto report = runGolden(g, "pagerank", mode);
        expectTolerance(fx, report, std::string("pagerank ") + name);
    }
}

// ----------------------------------------------------------- hub graph

TEST(GoldenIdentity, HubGraphBitwise)
{
    // The twitter stand-in replicates its hubs across more than 32
    // partitions, so every master change there goes stale in that many
    // mirror entries — the case the 400-vertex graph never reaches. These
    // fixtures were recorded by the layered engine, not the pre-refactor
    // one, so the accumulative pagerank is held bitwise too, sim cycles
    // included.
    const auto g = graph::makeDataset(graph::Dataset::twitter, 0.02);
    for (const std::string algo : {"pagerank", "sssp"}) {
        const Fixture fx = loadFixture("hub_" + algo, "digraph");
        engine::EngineOptions opts;
        opts.platform = smallPlatform();
        engine::DiGraphEngine eng(g, opts);
        if (algo == "pagerank") {
            const auto &sync = eng.substrate()->sync;
            std::size_t hubs = 0;
            for (VertexId v = 0; v < g.numVertices(); ++v)
                hubs += sync.mirrorPartitions(v).size() > 32;
            EXPECT_GT(hubs, 0u) << "no vertex has > 32 mirrors";
        }
        const auto report = eng.run(*algorithms::makeAlgorithm(algo, g));
        expectBitwise(fx, report, "hub " + algo);
        EXPECT_TRUE(eng.activationBookkeepingConsistent()) << "hub " << algo;
    }
}

TEST(GoldenIdentity, HubTraceEventsBitwise)
{
    // Every trace event of the traced hub runs: path_schedule (the
    // active-path count before the warp-scheduler cap and the first
    // highest-Pri path), mirror_push, dispatch, merge_barrier, steal and
    // the wave events, with simulated timestamps held bit for bit.
    const auto g = graph::makeDataset(graph::Dataset::twitter, 0.02);
    for (const std::string algo : {"pagerank", "sssp"}) {
        const std::string path = std::string(DIGRAPH_FIXTURE_DIR) +
                                 "/hub_" + algo + "_trace.txt";
        std::ifstream in(path);
        ASSERT_TRUE(in.good()) << "missing fixture " << path;
        std::vector<std::string> want;
        std::size_t expected = 0;
        std::string line;
        while (std::getline(in, line)) {
            if (line.empty() || line[0] == '#')
                continue;
            if (line.rfind("events ", 0) == 0)
                expected = std::stoull(line.substr(7));
            else
                want.push_back(line);
        }
        ASSERT_EQ(want.size(), expected) << path;

        metrics::TraceSink sink;
        engine::EngineOptions opts;
        opts.platform = smallPlatform();
        opts.trace = &sink;
        engine::DiGraphEngine eng(g, opts);
        eng.run(*algorithms::makeAlgorithm(algo, g));
        const auto events = sink.events();
        ASSERT_EQ(events.size(), want.size()) << "hub " << algo;
        for (std::size_t i = 0; i < events.size(); ++i) {
            const metrics::TraceEvent &e = events[i];
            char got[256];
            std::snprintf(got, sizeof(got),
                          "%s %llu %llu %016llx %016llx %llu %llu",
                          metrics::traceEventName(e.type),
                          static_cast<unsigned long long>(e.wave),
                          static_cast<unsigned long long>(e.partition),
                          static_cast<unsigned long long>(bits(e.sim_begin)),
                          static_cast<unsigned long long>(bits(e.sim_dur)),
                          static_cast<unsigned long long>(e.arg0),
                          static_cast<unsigned long long>(e.arg1));
            ASSERT_EQ(got, want[i]) << "hub " << algo << ": event " << i;
        }
    }
}

// ---------------------------------------------------- wave dispatch order

TEST(GoldenIdentity, LongdistGraphPinsWaveOrder)
{
    // On the locality-windowed longdist graph, waves group
    // vertex-disjoint partitions into shared Dispatcher::waveOrder()
    // chunks, so the wave order differs from batch order and running a
    // wave in batch order changes every algorithm's result. Each is held
    // bit for bit, sim cycles included.
    graph::DirectedGraph g;
    for (auto &named : test::testGraphs()) {
        if (named.name == "longdist")
            g = std::move(named.graph);
    }
    ASSERT_EQ(g.numVertices(), 400u);
    for (const std::string algo : {"pagerank", "adsorption", "sssp",
                                   "kcore", "katz", "bfs", "wcc"}) {
        const Fixture fx = loadFixture("longdist_" + algo, "digraph");
        const auto report =
            runGolden(g, algo, engine::ExecutionMode::PathAsync);
        expectBitwise(fx, report, "longdist " + algo);
    }
}

// --------------------------------------------------------- batched lanes

TEST(GoldenIdentity, LaneRunsBitwise)
{
    // K = 8 and K = 12 (both on the run-time-K body), both lane
    // policies and both path modes; every lane is held bit for bit, the
    // accumulative ppr included, with sim cycles and the per-lane
    // convergence waves.
    const auto g = goldenGraph();
    struct Case
    {
        const char *algo;
        unsigned lanes;
        engine::ExecutionMode mode;
    };
    for (const Case c :
         {Case{"ppr", 8, engine::ExecutionMode::PathAsync},
          Case{"ppr", 12, engine::ExecutionMode::PathNoSched},
          Case{"msbfs", 8, engine::ExecutionMode::PathNoSched},
          Case{"msbfs", 12, engine::ExecutionMode::PathAsync}}) {
        const std::string algo = c.algo + std::to_string(c.lanes);
        const std::string label = algo + " " + engine::modeName(c.mode);
        const Fixture fx =
            loadFixture("lanes_" + algo, engine::modeName(c.mode));
        const auto seeds = test::laneSeeds(g.numVertices(), c.lanes);
        engine::EngineOptions opts;
        opts.mode = c.mode;
        opts.platform = smallPlatform();
        engine::DiGraphEngine eng(g, opts);
        const auto report = std::string(c.algo) == "ppr"
                                ? eng.run(algorithms::Ppr(seeds))
                                : eng.run(algorithms::MsBfs(seeds));
        EXPECT_EQ(report.waves, fx.waves) << label;
        EXPECT_EQ(report.edge_processings, fx.edge_processings) << label;
        EXPECT_EQ(report.vertex_updates, fx.vertex_updates) << label;
        EXPECT_EQ(bits(report.sim_cycles), fx.sim_cycles_bits) << label;
        EXPECT_EQ(report.lane_converged_wave, fx.lane_converged_wave)
            << label;
        ASSERT_EQ(fx.lane_bits.size(), c.lanes) << label;
        ASSERT_EQ(report.lane_states.size(), c.lanes) << label;
        for (unsigned l = 0; l < c.lanes; ++l) {
            const auto &want = fx.lane_bits[l];
            const auto &got = report.lane_states[l];
            ASSERT_EQ(got.size(), want.size()) << label << " lane " << l;
            for (std::size_t v = 0; v < want.size(); ++v) {
                ASSERT_EQ(bits(got[v]), want[v])
                    << label << " lane " << l << ": vertex " << v;
            }
        }
        EXPECT_TRUE(eng.activationBookkeepingConsistent()) << label;
    }
}

// ---------------------------------------------------------------- HITS

TEST(GoldenIdentity, HitsMatchesPowerIterationFixture)
{
    const auto g = goldenGraph();
    const std::string path =
        std::string(DIGRAPH_FIXTURE_DIR) + "/hits_power.txt";
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << "missing fixture " << path;

    std::uint32_t iterations = 0;
    std::vector<double> authority, hub;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ss(line);
        std::string key;
        ss >> key;
        if (key == "iterations") {
            ss >> iterations;
        } else if (key == "authority" || key == "hub") {
            std::size_t count = 0;
            ss >> count;
            auto &dst = key == "authority" ? authority : hub;
            dst.reserve(count);
            while (dst.size() < count && std::getline(in, line))
                dst.push_back(fromBits(std::stoull(line, nullptr, 16)));
        }
    }

    const algorithms::HitsScores scores = algorithms::computeHits(g);
    EXPECT_EQ(scores.iterations, iterations);
    ASSERT_EQ(scores.authority.size(), authority.size());
    ASSERT_EQ(scores.hub.size(), hub.size());
    for (std::size_t v = 0; v < authority.size(); ++v) {
        ASSERT_NEAR(scores.authority[v], authority[v], 1e-9) << v;
        ASSERT_NEAR(scores.hub[v], hub[v], 1e-9) << v;
    }
}

} // namespace
} // namespace digraph
