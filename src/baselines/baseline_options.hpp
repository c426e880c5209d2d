/**
 * @file
 * Shared configuration and helpers for the comparison systems (the
 * Gunrock-like BSP engine and the Groute-like asynchronous engine) and
 * the sequential oracle.
 *
 * Both baselines run on the same simulated platform and account the same
 * metrics as DiGraph, so every figure compares execution models rather
 * than substrates — mirroring the paper's same-hardware methodology.
 */

#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "gpusim/config.hpp"
#include "common/types.hpp"
#include "graph/digraph.hpp"

namespace digraph::algorithms {
class Algorithm;
} // namespace digraph::algorithms

namespace digraph::metrics {
class TraceSink;
} // namespace digraph::metrics

namespace digraph::baselines {

/** Options shared by both baseline engines. */
struct BaselineOptions
{
    /** Simulated platform. */
    gpusim::PlatformConfig platform;
    /** Edge budget per vertex partition (0 = derived from the platform,
     *  matching the DiGraph engine's default). */
    std::size_t edges_per_partition = 0;
    /** Activate every vertex initially (Fig 2 methodology). */
    bool force_all_active = false;
    /** Safety cap on rounds / dispatches. */
    std::size_t max_rounds = 1u << 20;
    /** Structured trace sink; nullptr disables tracing (same contract
     *  as EngineOptions::trace). */
    metrics::TraceSink *trace = nullptr;

    /**
     * Reject nonsensical knob combinations (zero devices/SMXs, negative
     * bandwidths, max_rounds == 0) before they divide by zero or spin
     * forever inside the engines.
     * @return a diagnostic, or "" when the options are usable.
     */
    std::string validate() const;
};

/**
 * Contiguous vertex-range partitions balanced by out-edge count.
 * @return partition boundaries (size = #partitions + 1).
 */
std::vector<VertexId> vertexRangePartitions(const graph::DirectedGraph &g,
                                            std::size_t edges_per_partition);

/** Flat run state of a vertex-centric engine: one value per vertex and
 *  one cached value per edge id, no path storage. */
struct FlatState
{
    std::vector<Value> vertex;
    std::vector<Value> edge;
};

/** @p algo's initial FlatState over @p g (initVertex / initEdge). */
FlatState initialState(const graph::DirectedGraph &g,
                       const algorithms::Algorithm &algo);

/** Derived edge budget matching the DiGraph engine's default. */
std::size_t defaultEdgeBudget(const graph::DirectedGraph &g,
                              const gpusim::PlatformConfig &platform);

} // namespace digraph::baselines
