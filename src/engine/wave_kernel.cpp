/**
 * @file
 * Wave-kernel registry: the only translation unit that instantiates the
 * shared wave body (wave_body.hpp), once per
 * (kernel policy x execution mode x trace) combination, plus the
 * generic virtual-dispatch fallback instantiations.
 *
 * Resolution contract (see Algorithm::kernelTag()): an algorithm is
 * specialized iff its kernelTag() matches a registry entry AND it IS-A
 * the registered class (dynamic_cast), in which case its kernel policy
 * is copied out — the hot loop then never touches the virtual
 * interface, which is what tests/test_wave_kernels.cpp proves with a
 * counting subclass.
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

template <class AlgoT, ExecutionMode M, bool TraceOn>
DispatchOutcome
computeThunk(DiGraphEngine &eng, PartitionId p, const void *ctx)
{
    return WaveKernels::compute<AlgoT, M, TraceOn>(
        eng, p, *static_cast<const AlgoT *>(ctx));
}

template <class AlgoT>
ResolvedKernel::ComputeFn
pickCompute(ExecutionMode mode, bool trace_on)
{
    switch (mode) {
      case ExecutionMode::PathAsync:
        return trace_on
                   ? &computeThunk<AlgoT, ExecutionMode::PathAsync, true>
                   : &computeThunk<AlgoT, ExecutionMode::PathAsync, false>;
      case ExecutionMode::PathNoSched:
        return trace_on
                   ? &computeThunk<AlgoT, ExecutionMode::PathNoSched, true>
                   : &computeThunk<AlgoT, ExecutionMode::PathNoSched,
                                   false>;
      case ExecutionMode::VertexAsync:
        return trace_on
                   ? &computeThunk<AlgoT, ExecutionMode::VertexAsync, true>
                   : &computeThunk<AlgoT, ExecutionMode::VertexAsync,
                                   false>;
    }
    return nullptr; // unreachable
}

// --- lane (batched multi-source) rows ---

template <class AlgoT, ExecutionMode M, bool TraceOn, unsigned LanesCT>
DispatchOutcome
computeLanesThunk(DiGraphEngine &eng, PartitionId p, const void *ctx)
{
    return WaveKernels::computeLanes<AlgoT, M, TraceOn, LanesCT>(
        eng, p, *static_cast<const AlgoT *>(ctx));
}

template <class AlgoT, unsigned LanesCT>
ResolvedKernel::ComputeFn
pickLaneMode(ExecutionMode mode, bool trace_on)
{
    switch (mode) {
      case ExecutionMode::PathAsync:
        return trace_on
                   ? &computeLanesThunk<AlgoT, ExecutionMode::PathAsync,
                                        true, LanesCT>
                   : &computeLanesThunk<AlgoT, ExecutionMode::PathAsync,
                                        false, LanesCT>;
      case ExecutionMode::PathNoSched:
        return trace_on
                   ? &computeLanesThunk<AlgoT, ExecutionMode::PathNoSched,
                                        true, LanesCT>
                   : &computeLanesThunk<AlgoT, ExecutionMode::PathNoSched,
                                        false, LanesCT>;
      case ExecutionMode::VertexAsync:
        break; // engine rejects lane runs under VertexAsync
    }
    panic("resolveWaveKernel: lane runs require a path mode");
}

/** Lane bodies exist at LanesCT = 0 (run-time K) and 8 (the batched-PPR
 *  sweet spot the bench measures — the stripe loops unroll). */
template <class AlgoT>
ResolvedKernel::ComputeFn
pickLaneCompute(ExecutionMode mode, bool trace_on, unsigned lanes)
{
    return lanes == 8 ? pickLaneMode<AlgoT, 8>(mode, trace_on)
                      : pickLaneMode<AlgoT, 0>(mode, trace_on);
}

/** Try to resolve @p algo as a lane algorithm realizing @p Policy
 *  (registry row @p expected; mirrors tryResolve's tag + IS-A gate on
 *  the LanePolicyAlgorithm adapter). */
template <class Policy>
bool
tryResolveLanes(const algorithms::Algorithm &algo, const std::string &tag,
                const char *expected, const EngineOptions &options,
                bool trace_on, unsigned lanes, ResolvedKernel &out)
{
    if (tag != expected)
        return false;
    const auto *typed =
        dynamic_cast<const algorithms::LanePolicyAlgorithm<Policy> *>(
            &algo);
    if (!typed)
        return false;
    out.name = std::string(expected) + ":lanes";
    out.specialized = true;
    out.compute = pickLaneCompute<Policy>(options.mode, trace_on, lanes);
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
    out.specialized = true;
    out.compute = pickCompute<Policy>(options.mode, trace_on);
    out.policy = std::make_shared<const Policy>(typed->kernelPolicy());
    return true;
}

} // namespace

ResolvedKernel
resolveWaveKernel(const algorithms::Algorithm &algo,
                  const EngineOptions &options, bool trace_on,
                  unsigned lanes)
{
    ResolvedKernel k;
    const std::string tag = algo.kernelTag();
    if (lanes > 0) {
        if (!tag.empty() &&
            (tryResolveLanes<algorithms::PageRankPolicy>(
                 algo, tag, "pagerank", options, trace_on, lanes, k) ||
             tryResolveLanes<algorithms::BfsPolicy>(
                 algo, tag, "bfs", options, trace_on, lanes, k) ||
             tryResolveLanes<algorithms::SsspPolicy>(
                 algo, tag, "sssp", options, trace_on, lanes, k))) {
            return k;
        }
        k.name = "generic-lanes:" + algo.name();
        k.specialized = false;
        k.compute = pickLaneCompute<algorithms::Algorithm>(
            options.mode, trace_on, lanes);
        k.policy = nullptr;
        return k;
    }
    if (!tag.empty() &&
        (tryResolve<algorithms::PageRank>(algo, tag, "pagerank", options,
                                          trace_on, k) ||
         tryResolve<algorithms::Katz>(algo, tag, "katz", options,
                                      trace_on, k) ||
         tryResolve<algorithms::Adsorption>(algo, tag, "adsorption",
                                            options, trace_on, k) ||
         tryResolve<algorithms::Sssp>(algo, tag, "sssp", options,
                                      trace_on, k) ||
         tryResolve<algorithms::Bfs>(algo, tag, "bfs", options, trace_on,
                                     k) ||
         tryResolve<algorithms::Wcc>(algo, tag, "wcc", options, trace_on,
                                     k) ||
         tryResolve<algorithms::KCore>(algo, tag, "kcore", options,
                                       trace_on, k) ||
         tryResolve<algorithms::Hits>(algo, tag, "hits", options,
                                      trace_on, k) ||
         tryResolve<algorithms::Reachability>(
             algo, tag, "reachability", options, trace_on, k))) {
        return k;
    }
    k.name = "generic:" + algo.name();
    k.specialized = false;
    k.compute = pickCompute<algorithms::Algorithm>(options.mode, trace_on);
    k.policy = nullptr;
    return k;
}

} // namespace digraph::engine
