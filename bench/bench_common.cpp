#include "bench_common.hpp"

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <tuple>
#include <utility>

#include "common/logging.hpp"
#include "engine/substrate.hpp"
#include "metrics/trace.hpp"
#include "partition/preprocess.hpp"

namespace digraph::bench {

namespace {

metrics::RunReport runSystemImplCached(const std::string &system,
                                       graph::Dataset d,
                                       const std::string &algo_name,
                                       unsigned gpus);

} // namespace

double
benchScale()
{
    static const double scale = [] {
        const char *env = std::getenv("DIGRAPH_BENCH_SCALE");
        return env ? std::atof(env) : 0.4;
    }();
    return scale;
}

unsigned
benchGpus()
{
    static const unsigned gpus = [] {
        const char *env = std::getenv("DIGRAPH_BENCH_GPUS");
        return env ? static_cast<unsigned>(std::atoi(env)) : 4u;
    }();
    return gpus;
}

namespace {

/** DIGRAPH_BENCH_TRACE=DIR dumps one chrome trace per bench run into
 *  DIR (which must already exist); unset disables tracing entirely. */
const char *
benchTraceDir()
{
    static const char *dir = std::getenv("DIGRAPH_BENCH_TRACE");
    return dir;
}

} // namespace

gpusim::PlatformConfig
benchPlatform(unsigned gpus)
{
    gpusim::PlatformConfig pc;
    pc.num_devices = gpus;
    return pc;
}

const graph::DirectedGraph &
dataset(graph::Dataset d)
{
    return dataset(d, benchScale());
}

const graph::DirectedGraph &
dataset(graph::Dataset d, double scale)
{
    static std::map<std::pair<int, double>,
                    std::unique_ptr<graph::DirectedGraph>>
        cache;
    auto &slot = cache[{static_cast<int>(d), scale}];
    if (!slot) {
        slot = std::make_unique<graph::DirectedGraph>(
            graph::makeDataset(d, scale));
    }
    return *slot;
}

engine::DiGraphEngine &
engineFor(graph::Dataset d, engine::ExecutionMode mode, unsigned gpus)
{
    // One substrate per (dataset, gpus): the partition budget depends
    // only on the platform geometry, so the three DiGraph modes share
    // one preprocessing result and its indexes.
    static std::map<std::pair<int, unsigned>,
                    std::shared_ptr<const engine::EngineSubstrate>>
        substrates;
    static std::map<std::tuple<int, int, unsigned>,
                    std::unique_ptr<engine::DiGraphEngine>>
        cache;
    auto &slot = cache[{static_cast<int>(d), static_cast<int>(mode),
                        gpus}];
    if (!slot) {
        const graph::DirectedGraph &g = dataset(d);
        engine::EngineOptions opts;
        opts.mode = mode;
        opts.platform = benchPlatform(gpus);
        auto &sub = substrates[{static_cast<int>(d), gpus}];
        if (!sub) {
            opts.resolvePartitionBudget(g.numEdges());
            sub = engine::EngineSubstrate::build(
                g, partition::preprocess(g, opts.preprocess));
        }
        slot = std::make_unique<engine::DiGraphEngine>(g, sub, opts);
    }
    return *slot;
}

metrics::RunReport
runSystem(const std::string &system, graph::Dataset d,
          const std::string &algo_name, unsigned gpus)
{
    auto report = runSystemImplCached(system, d, algo_name, gpus);
    report.dataset = graph::datasetName(d);
    return report;
}

namespace {

metrics::RunReport
runSystemImplCached(const std::string &system, graph::Dataset d,
                    const std::string &algo_name, unsigned gpus)
{
    const graph::DirectedGraph &g = dataset(d);
    const auto algo = algorithms::makeAlgorithm(algo_name, g);
    const char *const trace_dir = benchTraceDir();
    metrics::TraceSink sink;
    auto finish = [&](metrics::RunReport report) {
        if (trace_dir) {
            sink.writeChromeJson(std::string(trace_dir) + "/" + system +
                                 "_" + algo_name + "_" +
                                 graph::datasetName(d) + ".json");
        }
        return report;
    };
    if (system == "gunrock") {
        baselines::BaselineOptions opts;
        opts.platform = benchPlatform(gpus);
        opts.trace = trace_dir ? &sink : nullptr;
        auto report = baselines::runBsp(g, *algo, opts);
        report.system = "gunrock";
        return finish(std::move(report));
    }
    if (system == "groute") {
        baselines::BaselineOptions opts;
        opts.platform = benchPlatform(gpus);
        opts.trace = trace_dir ? &sink : nullptr;
        auto report = baselines::runAsync(g, *algo, opts).report;
        report.system = "groute";
        return finish(std::move(report));
    }
    engine::ExecutionMode mode = engine::ExecutionMode::PathAsync;
    if (system == "digraph-t")
        mode = engine::ExecutionMode::VertexAsync;
    else if (system == "digraph-w")
        mode = engine::ExecutionMode::PathNoSched;
    else if (system != "digraph")
        fatal("runSystem: unknown system '", system, "'");
    auto &eng = engineFor(d, mode, gpus);
    eng.setTrace(trace_dir ? &sink : nullptr);
    auto report = eng.run(*algo);
    eng.setTrace(nullptr);
    return finish(std::move(report));
}

} // namespace

metrics::RunReport
runSystemOn(const std::string &system, const graph::DirectedGraph &g,
            const std::string &algo_name, unsigned gpus)
{
    const auto algo = algorithms::makeAlgorithm(algo_name, g);
    if (system == "gunrock") {
        baselines::BaselineOptions opts;
        opts.platform = benchPlatform(gpus);
        auto report = baselines::runBsp(g, *algo, opts);
        report.system = "gunrock";
        return report;
    }
    if (system == "groute") {
        baselines::BaselineOptions opts;
        opts.platform = benchPlatform(gpus);
        auto report = baselines::runAsync(g, *algo, opts).report;
        report.system = "groute";
        return report;
    }
    engine::EngineOptions opts;
    opts.platform = benchPlatform(gpus);
    if (system == "digraph-t")
        opts.mode = engine::ExecutionMode::VertexAsync;
    else if (system == "digraph-w")
        opts.mode = engine::ExecutionMode::PathNoSched;
    else if (system != "digraph")
        fatal("runSystemOn: unknown system '", system, "'");
    engine::DiGraphEngine eng(g, opts);
    return eng.run(*algo);
}

namespace {

/** Reports stored by registerComparison(), keyed
 *  "system/algorithm/dataset". */
std::map<std::string, metrics::RunReport> &
reportRegistry()
{
    static std::map<std::string, metrics::RunReport> registry;
    return registry;
}

} // namespace

void
registerComparison(const std::vector<std::string> &systems,
                   const std::vector<std::string> &algos)
{
    for (const auto &system : systems) {
        for (const auto &algo : algos) {
            for (const auto d : graph::allDatasets()) {
                const std::string key = system + "/" + algo + "/" +
                                        graph::datasetName(d);
                benchmark::RegisterBenchmark(
                    key.c_str(),
                    [system, algo, d, key](benchmark::State &state) {
                        metrics::RunReport r;
                        for (auto _ : state)
                            r = runSystem(system, d, algo, benchGpus());
                        state.counters["sim_cycles"] = r.sim_cycles;
                        state.counters["updates"] =
                            static_cast<double>(r.vertex_updates);
                        state.counters["traffic_bytes"] =
                            static_cast<double>(r.trafficVolume());
                        state.counters["utilization"] = r.utilization;
                        reportRegistry()[key] = std::move(r);
                    })
                    ->Iterations(1)
                    ->Unit(benchmark::kMillisecond);
            }
        }
    }
}

const metrics::RunReport &
report(const std::string &system, const std::string &algo,
       graph::Dataset d)
{
    return reportRegistry().at(system + "/" + algo + "/" +
                               graph::datasetName(d));
}

void
Table::addRow(std::vector<std::string> cells)
{
    rows_.push_back({std::move(cells)});
}

std::string
Table::num(double value)
{
    std::ostringstream oss;
    oss.precision(4);
    oss << value;
    return oss.str();
}

std::string
Table::ratio(double mine, double base)
{
    if (base == 0.0)
        return "-";
    return num(mine / base);
}

void
Table::print() const
{
    std::vector<std::size_t> width(header_.size());
    for (std::size_t c = 0; c < header_.size(); ++c)
        width[c] = header_[c].size();
    for (const Row &row : rows_) {
        for (std::size_t c = 0;
             c < row.cells.size() && c < width.size(); ++c) {
            width[c] = std::max(width[c], row.cells[c].size());
        }
    }
    std::printf("\n== %s ==\n", title_.c_str());
    for (std::size_t c = 0; c < header_.size(); ++c)
        std::printf("%-*s  ", static_cast<int>(width[c]),
                    header_[c].c_str());
    std::printf("\n");
    for (const Row &row : rows_) {
        for (std::size_t c = 0; c < row.cells.size(); ++c) {
            std::printf("%-*s  ",
                        static_cast<int>(c < width.size() ? width[c] : 8),
                        row.cells[c].c_str());
        }
        std::printf("\n");
    }
    std::fflush(stdout);
}

} // namespace digraph::bench
