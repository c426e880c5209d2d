/**
 * @file
 * Wave-kernel registry: the only translation unit that instantiates the
 * shared wave body (wave_body.hpp), once per (kernel policy x execution
 * mode x trace x lanes) combination: 9 scalar policies x 3 modes x 2 at
 * LanesCT = 1, plus the 3 lane policies x 2 path modes x 2 at
 * LanesCT = 8 and 0 — 78 bodies.
 *
 * Resolution contract (see Algorithm::kernelTag()): an algorithm
 * resolves iff its kernelTag() matches a registry entry AND it IS-A
 * the registered class (dynamic_cast), in which case its kernel policy
 * is copied out — the hot loop then never touches the virtual
 * interface, which is what tests/test_wave_kernels.cpp proves with a
 * counting subclass. Anything else resolves to nothing and the engine
 * rejects the run.
 */

#include "engine/wave_kernel.hpp"

#include "engine/wave_body.hpp"

#include "algorithms/adsorption.hpp"
#include "algorithms/hits.hpp"
#include "algorithms/katz.hpp"
#include "algorithms/kcore.hpp"
#include "algorithms/multi_source.hpp"
#include "algorithms/pagerank.hpp"
#include "algorithms/reachability.hpp"
#include "algorithms/sssp.hpp"
#include "algorithms/wcc.hpp"

#include "common/logging.hpp"

namespace digraph::engine {

namespace {

template <class AlgoT, ExecutionMode M, bool TraceOn, unsigned LanesCT>
DispatchOutcome
computeThunk(DiGraphEngine &eng, PartitionId p, const void *policy)
{
    return WaveKernels::compute<AlgoT, M, TraceOn, LanesCT>(
        eng, p, *static_cast<const AlgoT *>(policy));
}

template <class AlgoT, ExecutionMode M, unsigned LanesCT>
ResolvedKernel::ComputeFn
pickTrace(bool trace_on)
{
    return trace_on ? &computeThunk<AlgoT, M, true, LanesCT>
                    : &computeThunk<AlgoT, M, false, LanesCT>;
}

/** The body for @p mode at LanesCT lanes; VertexAsync exists only at
 *  LanesCT = 1 (the engine rejects lane runs under it). */
template <class AlgoT, unsigned LanesCT>
ResolvedKernel::ComputeFn
pickCompute(ExecutionMode mode, bool trace_on)
{
    switch (mode) {
      case ExecutionMode::PathAsync:
        return pickTrace<AlgoT, ExecutionMode::PathAsync, LanesCT>(
            trace_on);
      case ExecutionMode::PathNoSched:
        return pickTrace<AlgoT, ExecutionMode::PathNoSched, LanesCT>(
            trace_on);
      case ExecutionMode::VertexAsync:
        if constexpr (LanesCT == 1) {
            return pickTrace<AlgoT, ExecutionMode::VertexAsync, 1>(
                trace_on);
        }
        break;
    }
    panic("resolveWaveKernel: lane runs require a path mode");
}

/** Try to resolve @p algo as a lane algorithm realizing @p Policy
 *  (registry row @p expected; mirrors tryResolve's tag + IS-A gate on
 *  the LanePolicyAlgorithm adapter). K = 1 shares the scalar row's
 *  1-lane body (same policy type), K = 8 has its own, and every other
 *  K runs the run-time-K body. */
template <class Policy>
bool
tryResolveLanes(const algorithms::Algorithm &algo, const std::string &tag,
                const char *expected, const EngineOptions &options,
                bool trace_on, ResolvedKernel &out)
{
    if (tag != expected)
        return false;
    const auto *typed =
        dynamic_cast<const algorithms::LanePolicyAlgorithm<Policy> *>(
            &algo);
    if (!typed)
        return false;
    const unsigned lanes = typed->lanes();
    out.name = std::string(expected) + ":lanes";
    out.compute =
        lanes == 1   ? pickCompute<Policy, 1>(options.mode, trace_on)
        : lanes == 8 ? pickCompute<Policy, 8>(options.mode, trace_on)
                     : pickCompute<Policy, 0>(options.mode, trace_on);
    out.policy = std::make_shared<const Policy>(typed->kernelPolicy());
    return true;
}

/** Try to resolve @p algo as @p AlgoClass (registry row @p expected). */
template <class AlgoClass>
bool
tryResolve(const algorithms::Algorithm &algo, const std::string &tag,
           const char *expected, const EngineOptions &options,
           bool trace_on, ResolvedKernel &out)
{
    if (tag != expected)
        return false;
    const auto *typed = dynamic_cast<const AlgoClass *>(&algo);
    if (!typed)
        return false;
    using Policy = typename AlgoClass::KernelPolicy;
    out.name = expected;
    out.compute = pickCompute<Policy, 1>(options.mode, trace_on);
    out.policy = std::make_shared<const Policy>(typed->kernelPolicy());
    return true;
}

} // namespace

std::optional<ResolvedKernel>
resolveWaveKernel(const algorithms::Algorithm &algo,
                  const EngineOptions &options, bool trace_on)
{
    ResolvedKernel k;
    const std::string tag = algo.kernelTag();
    if (tryResolveLanes<algorithms::PageRankPolicy>(algo, tag, "pagerank",
                                                    options, trace_on, k) ||
        tryResolveLanes<algorithms::BfsPolicy>(algo, tag, "bfs", options,
                                               trace_on, k) ||
        tryResolveLanes<algorithms::SsspPolicy>(algo, tag, "sssp", options,
                                                trace_on, k) ||
        tryResolve<algorithms::PageRank>(algo, tag, "pagerank", options,
                                         trace_on, k) ||
        tryResolve<algorithms::Katz>(algo, tag, "katz", options, trace_on,
                                     k) ||
        tryResolve<algorithms::Adsorption>(algo, tag, "adsorption",
                                           options, trace_on, k) ||
        tryResolve<algorithms::Sssp>(algo, tag, "sssp", options, trace_on,
                                     k) ||
        tryResolve<algorithms::Bfs>(algo, tag, "bfs", options, trace_on,
                                    k) ||
        tryResolve<algorithms::Wcc>(algo, tag, "wcc", options, trace_on,
                                    k) ||
        tryResolve<algorithms::KCore>(algo, tag, "kcore", options,
                                      trace_on, k) ||
        tryResolve<algorithms::Hits>(algo, tag, "hits", options, trace_on,
                                     k) ||
        tryResolve<algorithms::Reachability>(algo, tag, "reachability",
                                             options, trace_on, k)) {
        return k;
    }
    return std::nullopt;
}

} // namespace digraph::engine
