/**
 * @file
 * The paper's shared comparison grid, run once: DiGraph, its DiGraph-t
 * and DiGraph-w ablations and the Gunrock-/Groute-like baselines, each
 * over the four benchmark algorithms on the six graphs (4 simulated
 * GPUs). Every figure that reads the grid is printed from the same
 * reports, in figure order:
 *
 *   Fig 6   DiGraph vs DiGraph-t processing time (paper: 0.35-0.7)
 *   Fig 7   DiGraph vs DiGraph-w processing time (paper: 0.65-0.95)
 *   Fig 9   execution breakdown of pagerank: communication vs
 *           computation cycles plus the CPU preprocessing wall-clock
 *   Fig 10  speedup over Gunrock (paper: DiGraph 2.25-7.39x over
 *           Gunrock, 1.59-3.54x over Groute)
 *   Fig 11  vertex updates to converge, normalized to Gunrock (paper:
 *           DiGraph ~0.35-0.6x of Groute's updates)
 *   Fig 12  pagerank traffic volume (host<->device, device<->device and
 *           global-memory streaming bytes) normalized to Gunrock
 *   Fig 13  utilization ratio of loaded data (useful vertex updates per
 *           vertex-value slot streamed into the cores), normalized to
 *           Gunrock
 *   Fig 15  mean GPU (SMX) utilization of pagerank
 *
 * Fig 11's evolving-graph ingestion study lives in evolving_graphs.
 */

#include <algorithm>

#include "bench_common.hpp"

using namespace digraph;
using namespace digraph::bench;

namespace {

const int registered = [] {
    registerComparison(
        {"gunrock", "groute", "digraph", "digraph-t", "digraph-w"},
        algorithms::benchmarkNames());
    return 0;
}();

double
cycles(const std::string &system, const std::string &algo,
       graph::Dataset d)
{
    return report(system, algo, d).sim_cycles;
}

/** Print a table with one row per label and one column per dataset;
 *  @p cell formats the (label, dataset) cell. */
template <typename Cell>
void
printDatasetTable(const std::string &title, const std::string &label,
                  const std::vector<std::string> &labels, Cell cell)
{
    std::vector<std::string> header{label};
    for (const auto d : graph::allDatasets())
        header.push_back(graph::datasetName(d));
    Table table(title, header);
    for (const auto &name : labels) {
        std::vector<std::string> row{name};
        for (const auto d : graph::allDatasets())
            row.push_back(cell(name, d));
        table.addRow(row);
    }
    table.print();
}

void
printBreakdown()
{
    Table table("Fig 9 — execution breakdown, pagerank on 4 GPUs",
                {"system", "dataset", "sim_cycles", "comm_cycles",
                 "comm%", "preprocess_s"});
    for (const auto &system : kSystems) {
        for (const auto d : graph::allDatasets()) {
            const auto &r = report(system, "pagerank", d);
            const double comm_pct =
                r.sim_cycles > 0
                    ? 100.0 * std::min(1.0, r.comm_cycles / r.sim_cycles)
                    : 0.0;
            table.addRow({system, graph::datasetName(d),
                          Table::num(r.sim_cycles),
                          Table::num(r.comm_cycles),
                          Table::num(comm_pct),
                          Table::num(r.preprocess_seconds)});
        }
    }
    table.print();
}

void
printSummary()
{
    const auto &algos = algorithms::benchmarkNames();
    printDatasetTable(
        "Fig 6 — processing time of DiGraph normalized to DiGraph-t "
        "(lower is better, paper: 0.35-0.7)",
        "algorithm", algos, [](const std::string &algo, graph::Dataset d) {
            return Table::ratio(cycles("digraph", algo, d),
                                cycles("digraph-t", algo, d));
        });
    printDatasetTable(
        "Fig 7 — processing time of DiGraph normalized to DiGraph-w "
        "(lower is better, paper: 0.65-0.95)",
        "algorithm", algos, [](const std::string &algo, graph::Dataset d) {
            return Table::ratio(cycles("digraph", algo, d),
                                cycles("digraph-w", algo, d));
        });
    printBreakdown();
    for (const auto &algo : algos) {
        printDatasetTable(
            "Fig 10 — " + algo + ": speedup over Gunrock (higher is better)",
            "system", kSystems,
            [&](const std::string &system, graph::Dataset d) {
                return Table::ratio(cycles("gunrock", algo, d),
                                    cycles(system, algo, d));
            });
    }
    for (const auto &algo : algos) {
        printDatasetTable(
            "Fig 11 — " + algo +
                ": vertex updates normalized to Gunrock (lower is better)",
            "system", kSystems,
            [&](const std::string &system, graph::Dataset d) {
                return Table::ratio(
                    static_cast<double>(report(system, algo, d)
                                            .vertex_updates),
                    static_cast<double>(report("gunrock", algo, d)
                                            .vertex_updates));
            });
    }
    printDatasetTable(
        "Fig 12 — pagerank traffic volume normalized to Gunrock (lower "
        "is better)",
        "system", kSystems, [](const std::string &system, graph::Dataset d) {
            return Table::ratio(
                static_cast<double>(
                    report(system, "pagerank", d).trafficVolume()),
                static_cast<double>(
                    report("gunrock", "pagerank", d).trafficVolume()));
        });
    printDatasetTable(
        "Fig 13 — loaded-data utilization normalized to Gunrock (higher "
        "is better)",
        "system", kSystems, [](const std::string &system, graph::Dataset d) {
            return Table::ratio(
                report(system, "pagerank", d).loadedDataUtilization(),
                report("gunrock", "pagerank", d).loadedDataUtilization());
        });
    printDatasetTable(
        "Fig 15 — GPU utilization of pagerank (%)", "system", kSystems,
        [](const std::string &system, graph::Dataset d) {
            return Table::num(report(system, "pagerank", d).utilization *
                              100.0);
        });
}

} // namespace

DIGRAPH_BENCH_MAIN(printSummary)
