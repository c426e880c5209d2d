/**
 * @file
 * Concurrent-job manager over one shared execution substrate
 * (DESIGN.md §12): N jobs — each an algorithm spec — run against a
 * single immutable EngineSubstrate (Preprocessed + PathLayout +
 * ReplicaSync + Dispatcher), each job owning only its private
 * ValuePlane and Transport. The substrate is built once; what an extra
 * job costs is DiGraphEngine::jobStateBytes(), not another copy of the
 * topology.
 *
 * Since the GraphService daemon (DESIGN.md §15) this is a thin batch
 * front-end: runAll() opens a service session in batch mode (no
 * preemption, no quotas), submits every queued spec, and drains. Up to
 * one job per hardware thread runs at once, each on its own thread.
 * Jobs are mutually isolated (no shared mutable state), so results stay
 * bit-identical to dedicated single-job runs, in any order.
 */

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "engine/graph_service.hpp"
#include "engine/options.hpp"
#include "engine/substrate.hpp"
#include "graph/digraph.hpp"

namespace digraph::engine {

/**
 * Runs N algorithm jobs concurrently on one shared substrate.
 */
class JobManager
{
  public:
    /** Preprocess @p g once and share the substrate across jobs. */
    JobManager(const graph::DirectedGraph &g, EngineOptions options);

    /** Adopt a prebuilt substrate (e.g. from another engine's
     *  substrate()). @pre sub was built for @p g (vertex AND edge
     *  totals checked). */
    JobManager(const graph::DirectedGraph &g,
               std::shared_ptr<const EngineSubstrate> sub,
               EngineOptions options);

    /** Queue one job from a "name[:param]" algorithm spec (validated at
     *  runAll() via makeAlgorithmSpec). */
    void addJob(const std::string &spec) { specs_.push_back(spec); }

    /** Queue jobs from a comma-separated spec list — the CLI --jobs
     *  syntax, e.g. "sssp:0,pagerank,wcc". Entries are trimmed of
     *  surrounding whitespace and empty entries (trailing/doubled
     *  commas) are skipped; fatal only when the list yields no jobs
     *  at all. */
    void addJobs(const std::string &comma_specs);

    std::size_t numJobs() const { return specs_.size(); }

    /**
     * Run every queued job to convergence over the shared substrate via
     * a batch-mode GraphService session. Results are in queue order and
     * independent of the interleaving.
     * @param with_traces Give each job a private TraceSink (returned in
     *        its JobResult).
     */
    std::vector<JobResult> runAll(bool with_traces = false);

    /** The shared immutable substrate. */
    const std::shared_ptr<const EngineSubstrate> &substrate() const
    {
        return sub_;
    }

    /** Host bytes of the shared substrate (paid once, not per job). */
    std::size_t sharedBytes() const { return sub_->memoryBytes(); }

  private:
    const graph::DirectedGraph &g_;
    EngineOptions options_;
    std::shared_ptr<const EngineSubstrate> sub_;
    std::vector<std::string> specs_;
};

} // namespace digraph::engine
