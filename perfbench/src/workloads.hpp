/**
 * @file
 * The workloads and the round loop that measures them.
 *
 * A run repeats *rounds* until its time budget is spent. Every round of
 * every workload has the same phases, so every end-to-end metric is
 * measured on every workload:
 *
 *  1. set-up: load each graph file, preprocess, build the substrate, and
 *     construct the workload's GraphService where it has one;
 *  2. body: the workload's fixed job list (the analytics sweep and point
 *     queries, or the update stream beside queries);
 *  3. durability: an update stream into a store-backed session (the
 *     ingest body already is one; analytics runs a writer alone), then
 *     several timed reopenings of that store;
 *  4. validation, outside every timed region.
 */

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness.hpp"
#include "inputs.hpp"

namespace perfbench {

struct RunOptions
{
    /** Scratch directory for stores and the span file. */
    std::string work_dir;
    double seconds = 10.0;
    bool trace = false;
};

struct RunResult
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint64_t rounds = 0;
    MetricTable metrics;
    /** Untraced per-round values behind the round-median end-to-end
     *  metrics (diagnostics of run-to-run spread). */
    std::map<std::string, std::vector<double>> rounds_series;
    /** First few failure diagnostics. */
    std::vector<std::string> errors;
};

/** Measure @p plan (see file header). */
RunResult runWorkload(const Plan &plan, const RunOptions &options);

} // namespace perfbench
