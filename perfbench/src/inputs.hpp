/**
 * @file
 * Seeded input generation and the plan file a run reads back.
 *
 * `perfbench gen` writes, into one directory, everything a run consumes:
 * the graphs (binary edge lists), the analytics job list, the service
 * query list, the update batches (text edge lists) and plan.txt naming
 * them. `perfbench run` receives only that directory.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/** One graph input of a workload. */
struct GraphInput
{
    /** Dataset stand-in name ("webbase", "twitter", "ljournal"). */
    std::string name;
    /** Binary graph file (graph::saveBinary format). */
    std::string file;
    /** Jobs the analytics sweep runs on this graph ("pagerank",
     *  "sssp:<s>", ...). */
    std::vector<std::string> jobs;
    /** Update batch files (text `src dst weight`), in stream order. */
    std::vector<std::string> batches;
};

/** Everything one run reads. */
struct Plan
{
    std::string workload;
    std::vector<GraphInput> graphs;
    /** Traversal queries on the first graph: the analytics point
     *  queries, or what the ingest readers submit in order. */
    std::vector<std::string> queries;
};

/**
 * Generate the inputs of @p workload from @p seed into @p dir (created).
 * @param tiny the short self-test size.
 * @return false (with a message on stderr) on an unknown workload or an
 *         I/O error.
 */
bool generateInputs(const std::string &workload, std::uint64_t seed,
                    bool tiny, const std::string &dir);

/** Read @p dir/plan.txt. @return false on a missing or malformed plan. */
bool readPlan(const std::string &dir, Plan &plan);

} // namespace perfbench
