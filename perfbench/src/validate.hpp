/**
 * @file
 * Result validators, independent of the engines under test. Each checks
 * the defining condition of an algorithm's fixed point:
 *
 *  - sssp/bfs: no edge relaxes, the source sits at 0, and every other
 *    reached vertex has a tight in-edge (with positive weights these
 *    conditions pin the exact distances);
 *  - pagerank/adsorption/kcore: match baselines::runSequential within
 *    the algorithm's result tolerance, scaled by the larger of the value
 *    and the in-degree. A k-core state counts surviving in-neighbours,
 *    where peeling in any order ends, so its tolerance of 1e-9 makes the
 *    match exact.
 */

#pragma once

#include <map>
#include <string>
#include <vector>

#include "graph/digraph.hpp"
#include "metrics/run_report.hpp"

namespace perfbench {

class Validator
{
  public:
    /**
     * Check @p report, the result of job @p spec on @p g.
     * @param graph_key names @p g for the sequential-oracle cache (the
     *        same key must always mean the same graph).
     * @return "" when valid, else a diagnostic.
     */
    std::string check(const std::string &spec,
                      const digraph::graph::DirectedGraph &g,
                      const digraph::metrics::RunReport &report,
                      const std::string &graph_key);

  private:
    /** Sequential fixed point of @p spec, cached per graph key. */
    const std::vector<digraph::Value> &
    oracle(const std::string &spec, const digraph::graph::DirectedGraph &g,
           const std::string &graph_key);

    std::map<std::string, std::vector<digraph::Value>> cache_;
};

} // namespace perfbench
