/**
 * @file
 * Microbenchmarks of the substrate operations (proper google-benchmark
 * timing loops, unlike the figure harnesses): CSR construction, Tarjan
 * SCC, the path pipeline stages, the four-array storage build, the
 * engine substrate build (layout, replica indexes, dispatcher) and one
 * live-graph epoch append. Useful for tracking regressions in the
 * preprocessing and ingestion paths.
 */

#include <benchmark/benchmark.h>

#include "common/rng.hpp"
#include "engine/substrate.hpp"
#include "engine/substrate_catalog.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/scc.hpp"
#include "partition/decomposer.hpp"
#include "partition/dependency.hpp"
#include "partition/merger.hpp"
#include "partition/preprocess.hpp"
#include "storage/path_storage.hpp"

namespace {

using namespace digraph;

const graph::DirectedGraph &
graphOf(std::int64_t edges)
{
    static std::map<std::int64_t, graph::DirectedGraph> cache;
    auto it = cache.find(edges);
    if (it == cache.end()) {
        graph::GeneratorConfig c;
        c.num_vertices = static_cast<VertexId>(edges / 8);
        c.num_edges = static_cast<EdgeId>(edges);
        c.scc_core_fraction = 0.5;
        c.seed = 9;
        it = cache.emplace(edges, graph::generate(c)).first;
    }
    return it->second;
}

void
BM_csr_build(benchmark::State &state)
{
    const auto &g = graphOf(state.range(0));
    const auto edges = g.edgeList();
    for (auto _ : state) {
        graph::GraphBuilder builder(g.numVertices());
        builder.addEdges(edges);
        const auto built = builder.build();
        benchmark::DoNotOptimize(built.numEdges());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(g.numEdges()));
}

void
BM_tarjan_scc(benchmark::State &state)
{
    const auto &g = graphOf(state.range(0));
    for (auto _ : state) {
        const auto scc = graph::computeScc(g);
        benchmark::DoNotOptimize(scc.num_components);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(g.numEdges()));
}

void
BM_path_decompose(benchmark::State &state)
{
    const auto &g = graphOf(state.range(0));
    const partition::SccRegions regions(g);
    for (auto _ : state) {
        const auto paths =
            partition::decompose(g, {}, nullptr, &regions);
        benchmark::DoNotOptimize(paths.numPaths());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(g.numEdges()));
}

void
BM_path_merge(benchmark::State &state)
{
    const auto &g = graphOf(state.range(0));
    const partition::SccRegions regions(g);
    const auto raw = partition::decompose(g, {}, nullptr, &regions);
    for (auto _ : state) {
        const auto merged = partition::mergePaths(raw, g, {}, &regions);
        benchmark::DoNotOptimize(merged.paths.numPaths());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(raw.numPaths()));
}

void
BM_dependency_graph(benchmark::State &state)
{
    const auto &g = graphOf(state.range(0));
    const partition::SccRegions regions(g);
    auto raw = partition::decompose(g, {}, nullptr, &regions);
    const auto paths =
        partition::mergePaths(raw, g, {}, &regions).paths;
    for (auto _ : state) {
        const auto dep = partition::buildDependencyGraph(paths, g);
        benchmark::DoNotOptimize(dep.numEdges());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(paths.numPaths()));
}

void
BM_full_preprocess(benchmark::State &state)
{
    const auto &g = graphOf(state.range(0));
    partition::PreprocessOptions opts;
    opts.decompose.num_threads = 2;
    for (auto _ : state) {
        const auto pre = partition::preprocess(g, opts);
        benchmark::DoNotOptimize(pre.numPartitions());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(g.numEdges()));
}

void
BM_storage_build(benchmark::State &state)
{
    const auto &g = graphOf(state.range(0));
    const auto pre = partition::preprocess(g, {});
    for (auto _ : state) {
        storage::PathStorage built(pre.paths, g);
        benchmark::DoNotOptimize(built.numPaths());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(g.numEdges()));
}

/** Preprocessing with the partition budget an engine derives. */
partition::Preprocessed
enginePreprocess(const graph::DirectedGraph &g)
{
    engine::EngineOptions opts;
    opts.resolvePartitionBudget(g.numEdges());
    return partition::preprocess(g, opts.preprocess);
}

void
BM_engine_substrate_build(benchmark::State &state)
{
    const auto &g = graphOf(state.range(0));
    const auto pre = enginePreprocess(g);
    for (auto _ : state) {
        state.PauseTiming();
        auto copy = pre;
        state.ResumeTiming();
        const auto sub = engine::EngineSubstrate::build(g, std::move(copy));
        benchmark::DoNotOptimize(sub->memoryBytes());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(g.numEdges()));
}

/** One epoch append of a 0.1% edge batch (no durable store): graph
 *  append, incremental preprocessing and the epoch's substrate build.
 *  The full-rebuild guard is off, so every iteration is incremental. */
void
BM_catalog_append(benchmark::State &state)
{
    const auto &g = graphOf(state.range(0));
    engine::CatalogOptions policy;
    policy.full_rebuild_fraction = 0.0;
    engine::SubstrateCatalog cat(graph::DirectedGraph(g),
                                 engine::EngineOptions{}, policy);
    const std::size_t batch_edges =
        std::max<std::size_t>(1, g.numEdges() / 1000);
    SplitMix64 rng(11);
    std::vector<graph::Edge> batch;
    for (auto _ : state) {
        state.PauseTiming();
        batch.clear();
        while (batch.size() < batch_edges) {
            const auto s =
                static_cast<VertexId>(rng.nextBounded(g.numVertices()));
            const auto d =
                static_cast<VertexId>(rng.nextBounded(g.numVertices()));
            if (s != d)
                batch.push_back({s, d, 1.0});
        }
        state.ResumeTiming();
        const auto res = cat.append(batch);
        benchmark::DoNotOptimize(res.epoch);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(batch_edges));
}

BENCHMARK(BM_csr_build)->Arg(1 << 14)->Arg(1 << 17);
BENCHMARK(BM_tarjan_scc)->Arg(1 << 14)->Arg(1 << 17);
BENCHMARK(BM_path_decompose)->Arg(1 << 14)->Arg(1 << 17);
BENCHMARK(BM_path_merge)->Arg(1 << 14)->Arg(1 << 17);
BENCHMARK(BM_dependency_graph)->Arg(1 << 14)->Arg(1 << 17);
BENCHMARK(BM_full_preprocess)->Arg(1 << 14)->Arg(1 << 17);
BENCHMARK(BM_storage_build)->Arg(1 << 14)->Arg(1 << 17);
BENCHMARK(BM_engine_substrate_build)
    ->Arg(1 << 14)
    ->Arg(1 << 17)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_catalog_append)
    ->Arg(1 << 14)
    ->Arg(1 << 17)
    ->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
