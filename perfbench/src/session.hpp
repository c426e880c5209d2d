/**
 * @file
 * Closed-loop clients over one GraphService, driven by a single thread.
 *
 * Each reader client keeps at most one query in flight and each writer
 * at most one update: a client submits its next job only after poll()
 * reported the previous one Done. Latency is timed here, from just before
 * the submit call until the first poll that sees Done, because a job's
 * own RunReport::wall_seconds includes the time it spent parked and omits
 * its queueing.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "engine/graph_service.hpp"
#include "harness.hpp"

namespace perfbench {

/** The fixed work of one session. */
struct SessionPlan
{
    /** Queries, taken in order by whichever reader is free. */
    const std::vector<std::string> *queries = nullptr;
    /** Closed-loop query clients. */
    std::size_t readers = 0;
    /** Update batch files the single writer submits in order (null =
     *  no writer). */
    const std::vector<std::string> *batches = nullptr;
};

/** What the polling thread observed of one job. */
struct JobSample
{
    bool update = false;
    /** Submit-to-Done latency, seconds. */
    double latency = 0.0;
};

struct SessionOutcome
{
    /** Wall from the first submit until every job was Done. */
    double wall = 0.0;
    /** Wall from the first submit until the last query was Done. */
    double reader_wall = 0.0;
    std::vector<JobSample> samples;
    /** Results from drain(), in admission order. */
    std::vector<digraph::engine::JobResult> results;
    digraph::engine::ServiceStats stats;
    /** Highest SubstrateCatalog::liveEpochs() seen between polls. */
    std::size_t live_epochs_peak = 0;
    /** Jobs the service refused. */
    std::uint64_t rejected = 0;
};

/** Run @p plan to completion against @p service. Job spans (submit to
 *  Done, request id = job id) are recorded under @p parent. */
SessionOutcome runSession(digraph::engine::GraphService &service,
                          const SessionPlan &plan, Tracer &tracer,
                          std::size_t parent);

} // namespace perfbench
