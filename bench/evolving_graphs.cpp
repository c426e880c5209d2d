/**
 * @file
 * Extension bench (the paper's Section 6 future work): evolving directed
 * graphs. Measures warm incremental re-runs against cold re-runs after
 * edge-insertion batches of growing size, for SSSP and Katz centrality
 * over the webbase stand-in.
 *
 * Also hosts the Fig 11 *update workload* ingestion study: a sequence
 * of edge-insertion batches driven through the evolving engine with
 * incremental ingestion (delta-journaled CSR append + appendPreprocess)
 * versus the full per-batch rebuild baseline. The acceptance metric is
 * the per-batch preprocessing time ratio; see EXPERIMENTS.md "Fig 11
 * update workload" and BENCH_evolving.json. `--benchmark_filter=ingest`
 * runs the ingestion study alone.
 */

#include <map>

#include "algorithms/katz.hpp"
#include "algorithms/sssp.hpp"
#include "bench_common.hpp"
#include "common/rng.hpp"
#include "engine/evolving.hpp"

using namespace digraph;
using namespace digraph::bench;

namespace {

const std::vector<std::size_t> kBatchSizes = {8, 64, 512};

struct Point
{
    double warm_edges = 0.0;
    double cold_edges = 0.0;
    double warm_cycles = 0.0;
    double cold_cycles = 0.0;
};

std::map<std::string, Point> g_points; // "algo/batch"

constexpr std::size_t kIngestBatches = 8;
constexpr std::size_t kIngestBatchSize = 512;

struct IngestPoint
{
    std::size_t batches = 0;
    std::size_t inserted_edges = 0;
    double graph_s = 0.0;    // CSR extension / rebuild
    double pre_s = 0.0;      // preprocessing pipeline
    double engine_s = 0.0;   // storage + dispatch indexes
    PathId reused_paths = 0; // last batch
    PathId new_paths = 0;    // last batch
};

std::map<std::string, IngestPoint> g_ingest; // "incremental"/"full"

std::vector<graph::Edge>
randomBatch(const graph::DirectedGraph &g, std::size_t count,
            std::uint64_t seed)
{
    SplitMix64 rng(seed);
    std::vector<graph::Edge> batch;
    batch.reserve(count);
    while (batch.size() < count) {
        const auto a =
            static_cast<VertexId>(rng.nextBounded(g.numVertices()));
        const auto b =
            static_cast<VertexId>(rng.nextBounded(g.numVertices()));
        if (a != b)
            batch.push_back({a, b, 1.0 + rng.nextDouble() * 9.0});
    }
    return batch;
}

void
BM_point(benchmark::State &state, const std::string &algo_name,
         std::size_t batch_size)
{
    Point point;
    for (auto _ : state) {
        engine::EngineOptions opts;
        opts.platform = benchPlatform(benchGpus());
        engine::EvolvingEngine evolving(
            graph::makeDataset(graph::Dataset::webbase, benchScale()),
            opts);

        const algorithms::Sssp sssp(0);
        const algorithms::Katz katz(evolving.graph());
        const algorithms::Algorithm &algo =
            algo_name == "sssp"
                ? static_cast<const algorithms::Algorithm &>(sssp)
                : static_cast<const algorithms::Algorithm &>(katz);

        evolving.run(algo);
        const auto batch =
            randomBatch(evolving.graph(), batch_size, 1234);
        const auto warm = evolving.insertAndRun(algo, batch);
        point.warm_edges = static_cast<double>(
            warm.run.edge_processings);
        point.warm_cycles = warm.run.sim_cycles;

        // Cold reference on the same evolved snapshot.
        const auto cold =
            runSystemOn("digraph", evolving.graph(), algo_name,
                        benchGpus());
        point.cold_edges = static_cast<double>(cold.edge_processings);
        point.cold_cycles = cold.sim_cycles;
    }
    g_points[algo_name + "/" + std::to_string(batch_size)] = point;
    state.counters["warm_edges"] = point.warm_edges;
    state.counters["cold_edges"] = point.cold_edges;
}

void
BM_ingest(benchmark::State &state, bool incremental)
{
    IngestPoint pt;
    for (auto _ : state) {
        engine::EngineOptions opts;
        opts.platform = benchPlatform(benchGpus());
        engine::CatalogOptions evolve;
        evolve.incremental = incremental;
        evolve.full_rebuild_fraction = 0.0; // measure the pure modes
        engine::EvolvingEngine evolving(
            graph::makeDataset(graph::Dataset::webbase, benchScale()),
            opts, evolve);
        const algorithms::Sssp sssp(0);
        evolving.run(sssp);

        pt = IngestPoint{};
        for (std::size_t b = 0; b < kIngestBatches; ++b) {
            const auto batch = randomBatch(
                evolving.graph(), kIngestBatchSize, 4242 + b);
            const auto step = evolving.insertAndRun(sssp, batch);
            pt.batches += 1;
            pt.inserted_edges += step.inserted_edges;
            pt.graph_s += step.graph_seconds;
            pt.pre_s += step.preprocess_seconds;
            pt.engine_s += step.engine_seconds;
            pt.reused_paths = step.reused_paths;
            pt.new_paths = step.new_paths;
        }
    }
    g_ingest[incremental ? "incremental" : "full"] = pt;
    state.counters["preprocess_s_per_batch"] =
        pt.pre_s / static_cast<double>(pt.batches);
    state.counters["graph_s_per_batch"] =
        pt.graph_s / static_cast<double>(pt.batches);
    state.counters["engine_s_per_batch"] =
        pt.engine_s / static_cast<double>(pt.batches);
}

const int registered = [] {
    for (const std::string algo : {"sssp", "katz"}) {
        for (const std::size_t batch : kBatchSizes) {
            benchmark::RegisterBenchmark(
                ("evolving/" + algo + "/batch:" + std::to_string(batch))
                    .c_str(),
                [algo, batch](benchmark::State &s) {
                    BM_point(s, algo, batch);
                })
                ->Iterations(1)
                ->Unit(benchmark::kMillisecond);
        }
    }
    for (const bool incremental : {false, true}) {
        benchmark::RegisterBenchmark(
            (std::string("evolving/ingest/") +
             (incremental ? "incremental" : "full"))
                .c_str(),
            [incremental](benchmark::State &s) {
                BM_ingest(s, incremental);
            })
            ->Iterations(1)
            ->Unit(benchmark::kMillisecond);
    }
    return 0;
}();

void
printIngestSummary()
{
    if (g_ingest.empty())
        return;
    Table table("Fig 11 update workload — per-batch ingestion seconds "
                "on webbase (" +
                    std::to_string(kIngestBatches) + " batches of " +
                    std::to_string(kIngestBatchSize) + " insertions)",
                {"mode", "graph", "preprocess", "engine", "total"});
    for (const std::string mode : {"full", "incremental"}) {
        const auto it = g_ingest.find(mode);
        if (it == g_ingest.end())
            continue;
        const auto &p = it->second;
        const auto n = static_cast<double>(
            std::max<std::size_t>(1, p.batches));
        table.addRow({mode, Table::num(p.graph_s / n),
                      Table::num(p.pre_s / n),
                      Table::num(p.engine_s / n),
                      Table::num((p.graph_s + p.pre_s + p.engine_s) /
                                 n)});
    }
    table.print();
    if (g_ingest.count("full") && g_ingest.count("incremental")) {
        const auto &f = g_ingest["full"];
        const auto &i = g_ingest["incremental"];
        Table speedup("Fig 11 update workload — full/incremental "
                      "speedup (higher is better)",
                      {"metric", "speedup"});
        speedup.addRow({"preprocess", Table::ratio(f.pre_s, i.pre_s)});
        speedup.addRow(
            {"graph build", Table::ratio(f.graph_s, i.graph_s)});
        speedup.addRow(
            {"total ingestion",
             Table::ratio(f.graph_s + f.pre_s + f.engine_s,
                          i.graph_s + i.pre_s + i.engine_s)});
        speedup.print();
    }
}

void
printWarmColdSummary()
{
    // Skipped under --benchmark_filter runs that exclude the warm/cold
    // points (e.g. the ingest-only CI smoke).
    if (g_points.empty())
        return;
    Table table("Evolving graphs (extension) — warm incremental re-run "
                "vs cold re-run on webbase after edge insertions",
                {"algorithm", "batch", "warm/cold edges processed",
                 "warm/cold sim cycles"});
    for (const std::string algo : {"sssp", "katz"}) {
        for (const std::size_t batch : kBatchSizes) {
            const auto &p =
                g_points[algo + "/" + std::to_string(batch)];
            table.addRow({algo, std::to_string(batch),
                          Table::ratio(p.warm_edges, p.cold_edges),
                          Table::ratio(p.warm_cycles, p.cold_cycles)});
        }
    }
    table.print();
}

void
printSummary()
{
    printWarmColdSummary();
    printIngestSummary();
}

} // namespace

DIGRAPH_BENCH_MAIN(printSummary)
