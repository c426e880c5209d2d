/**
 * @file
 * Compile-time wave-kernel registry (DESIGN.md §14).
 *
 * The wave compute phase is a single body template (wave_body.hpp)
 * instantiated per (algorithm kernel policy x VertexAsync-or-path x
 * value lanes), and only along those axes: VertexAsync's snapshot
 * changes the edge loop, and a 1-lane body drops the stripe loops. The
 * two path modes differ only in which active paths a round runs, and a
 * trace sink only at two per-round sites, so both are tested at run
 * time.
 *
 * resolveWaveKernel() maps a concrete Algorithm plus the engine options
 * to one such instantiation ONCE per run: the hot loop then calls the
 * algorithm's per-edge math through an inlined policy copy — zero
 * virtual dispatch per edge, dead feature branches (unused
 * weight/out-degree loads, the VertexAsync snapshot machinery, the lane
 * dimension of 1-lane runs) compiled out.
 *
 * Resolution is gated on Algorithm::kernelTag(): a subclass that
 * overrides processing semantics must return "" (contract documented on
 * kernelTag()), which matches no registry row, so the engine rejects
 * it instead of running it.
 */

#pragma once

#include <memory>
#include <optional>
#include <string>

#include "common/types.hpp"
#include "engine/options.hpp"

namespace digraph::algorithms {
class Algorithm;
} // namespace digraph::algorithms

namespace digraph::engine {

class DiGraphEngine;
struct DispatchOutcome;

/**
 * One resolved wave kernel: the compute entry point of the selected
 * body instantiation plus the owned policy copy it runs on (the
 * entry point's `policy` argument).
 */
struct ResolvedKernel
{
    using ComputeFn = DispatchOutcome (*)(DiGraphEngine &, PartitionId,
                                          const void *policy);

    /** Registry row ("pagerank", ...; "<tag>:lanes" for lane rows). */
    std::string name;
    /** Compute phase of one partition dispatch. */
    ComputeFn compute = nullptr;
    /** Owned copy of the kernel policy. */
    std::shared_ptr<const void> policy;
};

/**
 * Resolve @p algo against the kernel registry under @p options.
 * A LanePolicyAlgorithm resolves against the lane rows ("<tag>:lanes";
 * path modes only): the 1-lane body at K = 1, else the run-time-K body.
 * Every other algorithm runs the 1-lane body of its mode.
 * @return std::nullopt when @p algo matches no registry row: its
 *         kernelTag() is empty or unknown, it is not the registered
 *         class (a LaneAlgorithm that is not a LanePolicyAlgorithm), or
 *         it is a lane algorithm under VertexAsync.
 */
std::optional<ResolvedKernel>
resolveWaveKernel(const algorithms::Algorithm &algo,
                  const EngineOptions &options);

} // namespace digraph::engine
