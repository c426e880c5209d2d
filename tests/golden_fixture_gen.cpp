/**
 * @file
 * Golden-fixture generator for the bit-identity harness
 * (tests/test_golden_identity.cpp).
 *
 * Runs every factory algorithm through the DiGraph engine on a
 * deterministic generated graph and records the converged state (exact
 * double bit patterns) plus the headline work counters into one text
 * file per (algorithm, mode) under the directory given as argv[1].
 *
 * The checked-in fixtures under tests/fixtures/golden/ were produced by
 * the PRE-refactor monolithic engine (PR 4 tree); the harness replays
 * them against the layered engine, so regenerating them with a current
 * build only makes sense after an *intentional* numeric change.
 *
 * The hub_* fixtures cover the replication hub case the 400-vertex
 * golden graph lacks (no vertex there is mirrored by more than 8
 * partitions): the twitter stand-in at scale 0.02 has vertices mirrored
 * by more than 32 of its partitions. They were recorded by the engine
 * whose stale queues were sorted and deduplicated at every dispatch,
 * before stale entries were deduplicated when enqueued.
 *
 * The longdist_* fixtures pin the wave dispatch order. A wave runs in
 * the concatenated order of its greedy vertex-disjoint chunks
 * (Dispatcher::waveOrder), which differs from the batch order only when
 * a chunk holds two or more partitions. No run on the golden or hub
 * graphs has such a chunk; on the locality-windowed longdist test graph
 * (test::testGraphs()) every algorithm does. They were recorded by the
 * engine that ran each chunk's partitions on worker threads, before
 * dispatches ran one at a time in the same order.
 */

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "algorithms/factory.hpp"
#include "algorithms/hits.hpp"
#include "common/logging.hpp"
#include "engine/digraph_engine.hpp"
#include "graph/generators.hpp"

#include "test_util.hpp"

namespace {

using namespace digraph;

gpusim::PlatformConfig
smallPlatform()
{
    gpusim::PlatformConfig pc;
    pc.num_devices = 2;
    pc.smx_per_device = 4;
    return pc;
}

graph::GeneratorConfig
goldenGraphConfig()
{
    graph::GeneratorConfig c;
    c.num_vertices = 400;
    c.num_edges = 2400;
    c.seed = 77;
    return c;
}

std::uint64_t
bits(double v)
{
    std::uint64_t u = 0;
    std::memcpy(&u, &v, sizeof(u));
    return u;
}

/** Write one fixture as <prefix><algo>_<mode>.txt under @p dir. */
void
writeFixture(const std::string &dir, const std::string &prefix,
             const std::string &header, const std::string &algo,
             engine::ExecutionMode mode, const metrics::RunReport &report)
{
    const std::string mode_name = engine::modeName(mode);
    const std::string path =
        dir + "/" + prefix + algo + "_" + mode_name + ".txt";
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        fatal("golden_fixture_gen: cannot open ", path);
    std::fprintf(f, "# golden fixture: %s\n", header.c_str());
    std::fprintf(f, "algo %s\n", algo.c_str());
    std::fprintf(f, "mode %s\n", mode_name.c_str());
    std::fprintf(f, "sim_cycles %016" PRIx64 "\n", bits(report.sim_cycles));
    std::fprintf(f, "waves %" PRIu64 "\n", report.waves);
    std::fprintf(f, "edge_processings %" PRIu64 "\n",
                 report.edge_processings);
    std::fprintf(f, "vertex_updates %" PRIu64 "\n", report.vertex_updates);
    std::fprintf(f, "state %zu\n", report.final_state.size());
    for (const Value v : report.final_state)
        std::fprintf(f, "%016" PRIx64 "\n", bits(v));
    std::fclose(f);
    std::printf("wrote %s (waves=%" PRIu64 ", edges=%" PRIu64 ")\n",
                path.c_str(), report.waves, report.edge_processings);
}

void
writeHitsFixture(const std::string &dir, const graph::DirectedGraph &g)
{
    const algorithms::HitsScores scores = algorithms::computeHits(g);
    const std::string path = dir + "/hits_power.txt";
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        fatal("golden_fixture_gen: cannot open ", path);
    std::fprintf(f, "# golden fixture: HITS power iteration\n");
    std::fprintf(f, "algo hits\n");
    std::fprintf(f, "iterations %u\n", scores.iterations);
    std::fprintf(f, "authority %zu\n", scores.authority.size());
    for (const Value v : scores.authority)
        std::fprintf(f, "%016" PRIx64 "\n", bits(v));
    std::fprintf(f, "hub %zu\n", scores.hub.size());
    for (const Value v : scores.hub)
        std::fprintf(f, "%016" PRIx64 "\n", bits(v));
    std::fclose(f);
    std::printf("wrote %s (iterations=%u)\n", path.c_str(),
                scores.iterations);
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc != 2) {
        std::fprintf(stderr, "usage: %s <output-dir>\n", argv[0]);
        return 2;
    }
    const std::string dir = argv[1];
    const std::string kPreRefactor = "pre-refactor DiGraph engine";
    const graph::DirectedGraph g = graph::generate(goldenGraphConfig());

    const std::vector<std::string> all_algos = {
        "pagerank", "adsorption", "sssp", "kcore", "katz", "bfs", "wcc"};
    // Alternate execution modes exercise the scheduling/propagation
    // machinery; three representative families keep the matrix small.
    const std::vector<std::string> mode_algos = {"sssp", "pagerank", "wcc"};

    for (const std::string &name : all_algos) {
        engine::EngineOptions opts;
        opts.platform = smallPlatform();
        engine::DiGraphEngine eng(g, opts);
        const auto algo = algorithms::makeAlgorithm(name, g);
        writeFixture(dir, "", kPreRefactor, name,
                     engine::ExecutionMode::PathAsync, eng.run(*algo));
    }
    for (const std::string &name : mode_algos) {
        for (const engine::ExecutionMode mode :
             {engine::ExecutionMode::PathNoSched,
              engine::ExecutionMode::VertexAsync}) {
            engine::EngineOptions opts;
            opts.mode = mode;
            opts.platform = smallPlatform();
                engine::DiGraphEngine eng(g, opts);
            const auto algo = algorithms::makeAlgorithm(name, g);
            writeFixture(dir, "", kPreRefactor, name, mode,
                         eng.run(*algo));
        }
    }
    writeHitsFixture(dir, g);

    const graph::DirectedGraph hub =
        graph::makeDataset(graph::Dataset::twitter, 0.02);
    for (const std::string name : {"pagerank", "sssp"}) {
        engine::EngineOptions opts;
        opts.platform = smallPlatform();
        engine::DiGraphEngine eng(hub, opts);
        const auto algo = algorithms::makeAlgorithm(name, hub);
        writeFixture(dir, "hub_",
                     "twitter stand-in at scale 0.02, sorted stale queues",
                     name, engine::ExecutionMode::PathAsync,
                     eng.run(*algo));
    }

    graph::DirectedGraph longdist;
    for (auto &named : test::testGraphs()) {
        if (named.name == "longdist")
            longdist = std::move(named.graph);
    }
    for (const std::string &name : all_algos) {
        engine::EngineOptions opts;
        opts.platform = smallPlatform();
        engine::DiGraphEngine eng(longdist, opts);
        const auto algo = algorithms::makeAlgorithm(name, longdist);
        writeFixture(dir, "longdist_",
                     "longdist test graph, chunked parallel waves", name,
                     engine::ExecutionMode::PathAsync, eng.run(*algo));
    }
    return 0;
}
