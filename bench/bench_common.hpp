/**
 * @file
 * Shared infrastructure for the bench binaries: dataset and engine
 * caches, uniform system runners, and the paper-style table printer.
 * Each bench binary registers its experiment points as google-benchmark
 * benchmarks (one iteration each), then prints the rows of the paper
 * tables/figures it reproduces.
 *
 * Environment knobs:
 *   DIGRAPH_BENCH_SCALE  dataset scale factor (default 0.4)
 *   DIGRAPH_BENCH_GPUS   default simulated GPU count (default 4)
 */

#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "algorithms/factory.hpp"
#include "baselines/async_engine.hpp"
#include "baselines/bsp_engine.hpp"
#include "baselines/sequential.hpp"
#include "engine/digraph_engine.hpp"
#include "graph/generators.hpp"
#include "graph/properties.hpp"
#include "metrics/run_report.hpp"

namespace digraph::bench {

/** Dataset scale factor (env DIGRAPH_BENCH_SCALE, default 0.4). */
double benchScale();

/** Default simulated GPU count (env DIGRAPH_BENCH_GPUS, default 4). */
unsigned benchGpus();

/** Simulated platform with @p gpus devices (K80-like geometry). */
gpusim::PlatformConfig benchPlatform(unsigned gpus);

/** Cached dataset stand-in at benchScale(). */
const graph::DirectedGraph &dataset(graph::Dataset d);

/** Cached dataset at an explicit scale. */
const graph::DirectedGraph &dataset(graph::Dataset d, double scale);

/**
 * Cached DiGraph engine for (dataset, mode, gpus) at benchScale().
 * Reused across algorithms, and the modes of one (dataset, gpus) share
 * one substrate, so preprocessing happens once per pair.
 */
engine::DiGraphEngine &engineFor(graph::Dataset d,
                                 engine::ExecutionMode mode,
                                 unsigned gpus);

/** The comparison systems of the paper's evaluation. */
inline const std::vector<std::string> kSystems = {"gunrock", "groute",
                                                  "digraph"};

/**
 * Run @p system ("gunrock" = BSP baseline, "groute" = async baseline,
 * "digraph", "digraph-t", "digraph-w") on dataset @p d with @p algo_name.
 */
metrics::RunReport runSystem(const std::string &system, graph::Dataset d,
                             const std::string &algo_name, unsigned gpus);

/** Run a system on an explicit graph (no caching). */
metrics::RunReport runSystemOn(const std::string &system,
                               const graph::DirectedGraph &g,
                               const std::string &algo_name,
                               unsigned gpus);

/** One printable row of a result table. */
struct Row
{
    std::vector<std::string> cells;
};

/** Collected rows printed by printTable() at the end of main(). */
class Table
{
  public:
    explicit Table(std::string title, std::vector<std::string> header)
        : title_(std::move(title)), header_(std::move(header))
    {}

    /** Append a row (cells as strings). */
    void addRow(std::vector<std::string> cells);

    /** Convenience: format doubles with 4 significant digits. */
    static std::string num(double value);

    /** mine/base as a cell, "-" when the base is zero. */
    static std::string ratio(double mine, double base);

    /** Print the table to stdout, fixed-width columns. */
    void print() const;

  private:
    std::string title_;
    std::vector<std::string> header_;
    std::vector<Row> rows_;
};

/**
 * Register one google-benchmark "system/algorithm/dataset" per point of
 * the grid; each runs once and stores its RunReport for report().
 */
void registerComparison(const std::vector<std::string> &systems,
                        const std::vector<std::string> &algos);

/** Fetch a report stored by registerComparison(). */
const metrics::RunReport &report(const std::string &system,
                                 const std::string &algo,
                                 graph::Dataset d);

} // namespace digraph::bench

/** Standard main for a bench binary: run google-benchmark, then print the
 *  tables the figure reports via the provided callback. */
#define DIGRAPH_BENCH_MAIN(print_summary)                                  \
    int main(int argc, char **argv)                                       \
    {                                                                      \
        ::benchmark::Initialize(&argc, argv);                              \
        ::benchmark::RunSpecifiedBenchmarks();                             \
        print_summary();                                                   \
        return 0;                                                          \
    }
