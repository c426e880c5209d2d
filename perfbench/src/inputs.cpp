#include "inputs.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/scc.hpp"

namespace perfbench {

namespace {

using digraph::graph::Dataset;
using digraph::graph::DirectedGraph;

/** SplitMix64: the benchmark's own seeded stream. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : state_(seed) {}

    std::uint64_t
    next()
    {
        std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    std::uint64_t below(std::uint64_t bound) { return next() % bound; }

    double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

  private:
    std::uint64_t state_;
};

/** Fraction of a graph's edges in one update batch. */
constexpr double kBatchFraction = 0.001;

struct DatasetSpec
{
    Dataset dataset;
    /** Scale passed to graph::datasetConfig (normal size). */
    double scale;
};

/**
 * Traversal sources: the giant SCC's vertices. A source outside it may
 * reach almost nothing on the deep web stand-ins, which made query cost
 * swing with the seed's luck instead of with the system.
 */
std::vector<std::uint32_t>
sourcePool(const DirectedGraph &g)
{
    const auto scc = digraph::graph::computeScc(g);
    const auto giant = scc.giantComponent();
    std::vector<std::uint32_t> pool;
    for (std::uint32_t v = 0; v < g.numVertices(); ++v) {
        if (scc.component[v] == giant && g.outDegree(v) > 0)
            pool.push_back(v);
    }
    for (std::uint32_t v = 0; pool.empty() && v < g.numVertices(); ++v) {
        if (g.outDegree(v) > 0)
            pool.push_back(v);
    }
    return pool;
}

bool
writeBatch(const DirectedGraph &g, Rng &rng, const std::string &path)
{
    const auto n = g.numVertices();
    const auto count = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(g.numEdges() * kBatchFraction));
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    for (std::uint64_t i = 0; i < count; ++i) {
        const auto src = rng.below(n);
        auto dst = rng.below(n - 1);
        if (dst >= src)
            ++dst; // never a self-loop
        const double weight = 1.0 + 9.0 * rng.unit();
        std::fprintf(f, "%llu %llu %.17g\n",
                     static_cast<unsigned long long>(src),
                     static_cast<unsigned long long>(dst), weight);
    }
    return std::fclose(f) == 0;
}

} // namespace

bool
generateInputs(const std::string &workload, std::uint64_t seed, bool tiny,
               const std::string &dir)
{
    namespace fs = std::filesystem;
    std::error_code ec;
    fs::create_directories(dir, ec);
    if (ec) {
        std::cerr << "perfbench gen: cannot create " << dir << "\n";
        return false;
    }

    std::vector<DatasetSpec> datasets;
    std::size_t batches = 0;
    std::size_t queries = 0;
    if (workload == "analytics") {
        // Webbase is local and deep; twitter is hub-heavy. Twitter costs
        // ~4x more host time per edge, so it runs at half the scale.
        datasets = {{Dataset::webbase, 0.1}, {Dataset::twitter, 0.05}};
        batches = tiny ? 6 : 100;
        queries = tiny ? 8 : 100;
    } else if (workload == "ingest") {
        // 100 batches of 0.1% stay under the catalog's 25% full-rebuild
        // guard; the readers' 200 queries take about as long as the
        // writer's stream, so updates run beside queries throughout.
        datasets = {{Dataset::ljournal, 0.1}};
        batches = tiny ? 6 : 100;
        queries = tiny ? 12 : 200;
    } else {
        std::cerr << "perfbench gen: unknown workload '" << workload << "'\n";
        return false;
    }

    Rng rng(seed * 0x2545f4914f6cdd1dULL + 0x5851f42d4c957f2dULL);
    std::ostringstream plan;
    std::ostringstream info;
    plan << "workload " << workload << "\n";
    info << "{\"workload\": \"" << workload << "\", \"seed\": " << seed
         << ", \"tiny\": " << (tiny ? "true" : "false")
         << ", \"batch_fraction\": " << kBatchFraction << ", \"graphs\": [";

    // Queries and update batches target the first graph.
    std::vector<std::uint32_t> query_sources;
    for (std::size_t i = 0; i < datasets.size(); ++i) {
        const DatasetSpec &spec = datasets[i];
        const double scale = tiny ? spec.scale / 4 : spec.scale;
        auto config = digraph::graph::datasetConfig(spec.dataset, scale);
        config.seed = rng.next();
        const DirectedGraph g = digraph::graph::generate(config);
        const std::vector<std::uint32_t> pool = sourcePool(g);
        const std::string name = digraph::graph::datasetName(spec.dataset);
        const std::string file = name + ".bin";
        digraph::graph::saveBinary(g, dir + "/" + file);

        plan << "graph " << name << " " << file << "\n";
        if (workload == "analytics") {
            plan << "job pagerank\njob adsorption\n";
            plan << "job sssp:" << pool[rng.below(pool.size())] << "\n";
            plan << "job kcore\n";
        }
        for (std::size_t b = 0; b < batches; ++b) {
            char bf[64];
            std::snprintf(bf, sizeof bf, "%s.batch%03zu.txt", name.c_str(),
                          b);
            if (!writeBatch(g, rng, dir + "/" + bf)) {
                std::cerr << "perfbench gen: cannot write " << bf << "\n";
                return false;
            }
            plan << "batch " << bf << "\n";
        }
        info << (i ? ", " : "") << "{\"name\": \"" << name
             << "\", \"scale\": " << scale
             << ", \"vertices\": " << g.numVertices()
             << ", \"edges\": " << g.numEdges() << "}";
        if (i == 0) {
            for (std::size_t q = 0; q < queries; ++q)
                query_sources.push_back(pool[rng.below(pool.size())]);
        }
        batches = 0;
    }

    // sssp and bfs alternate.
    for (std::size_t q = 0; q < query_sources.size(); ++q)
        plan << "query " << (q % 2 ? "bfs:" : "sssp:") << query_sources[q]
             << "\n";
    info << "], \"queries\": " << queries << "}\n";

    std::ofstream pf(dir + "/plan.txt");
    pf << plan.str();
    std::ofstream jf(dir + "/inputs.json");
    jf << info.str();
    if (!pf || !jf) {
        std::cerr << "perfbench gen: cannot write the plan\n";
        return false;
    }
    return true;
}

bool
readPlan(const std::string &dir, Plan &plan)
{
    std::ifstream in(dir + "/plan.txt");
    if (!in)
        return false;
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream ls(line);
        std::string key, a, b;
        ls >> key >> a >> b;
        if (key == "workload") {
            plan.workload = a;
        } else if (key == "graph") {
            plan.graphs.push_back({a, dir + "/" + b, {}, {}});
        } else if (key == "job" && !plan.graphs.empty()) {
            plan.graphs.back().jobs.push_back(a);
        } else if (key == "batch" && !plan.graphs.empty()) {
            plan.graphs.back().batches.push_back(dir + "/" + a);
        } else if (key == "query") {
            plan.queries.push_back(a);
        } else if (!key.empty()) {
            return false;
        }
    }
    return !plan.workload.empty() && !plan.graphs.empty();
}

} // namespace perfbench
