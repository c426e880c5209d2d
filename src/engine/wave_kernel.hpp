/**
 * @file
 * Compile-time wave-kernel registry (DESIGN.md §14).
 *
 * The wave compute phase is a single body template (wave_body.hpp)
 * instantiated per (algorithm kernel policy x execution mode x trace
 * on/off). resolveWaveKernel() maps a concrete Algorithm plus the
 * engine options to one such instantiation ONCE per run: the hot loop
 * then calls the algorithm's per-edge math through an
 * inlined policy copy — zero virtual dispatch per edge, dead feature
 * branches (tracing, unused weight/out-degree loads, the VertexAsync
 * snapshot machinery) compiled out.
 *
 * Resolution is gated on Algorithm::kernelTag(): a subclass that
 * overrides processing semantics must return "" (contract documented on
 * kernelTag()) and falls back to the generic instantiation, which keeps
 * the same body but calls through the virtual interface.
 */

#pragma once

#include <memory>
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
 * body instantiation plus the owned policy copy it runs on.
 *
 * The `ctx` argument of the entry point is the kernel policy copy for
 * specialized kernels (ResolvedKernel::policy) and the Algorithm itself
 * for the generic fallback — the engine passes whichever it stored at
 * resolution (DiGraphEngine::kernel_ctx_).
 */
struct ResolvedKernel
{
    using ComputeFn = DispatchOutcome (*)(DiGraphEngine &, PartitionId,
                                          const void *ctx);

    /** Kernel name ("pagerank", ...; "generic:<name>" = fallback). */
    std::string name = "generic";
    /** Policy-inlined compute loop (no virtual calls per edge). */
    bool specialized = false;
    /** Compute phase of one partition dispatch. */
    ComputeFn compute = nullptr;
    /** Owned copy of the kernel policy (null for the fallback). */
    std::shared_ptr<const void> policy;
};

/**
 * Resolve @p algo against the kernel registry under @p options.
 * @param trace_on Whether a trace sink is attached for this run (selects
 *        the TraceOn body so a disabled trace costs nothing at all).
 * @param lanes Value lanes K of the run (0 = scalar). Lane runs resolve
 *        against the lane-body rows (LanePolicyAlgorithm match) or the
 *        generic lane fallback; path modes only.
 * Never fails: unknown algorithms get the generic fallback kernel.
 */
ResolvedKernel resolveWaveKernel(const algorithms::Algorithm &algo,
                                 const EngineOptions &options,
                                 bool trace_on, unsigned lanes = 0);

} // namespace digraph::engine
