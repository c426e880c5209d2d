/**
 * @file
 * Wave-kernel registry: the only translation unit that instantiates the
 * shared wave body (wave_body.hpp), once per (kernel policy x
 * VertexAsync-or-path x lanes) combination: 9 scalar policies x 2 at
 * LanesCT = 1, plus the 3 lane policies in the path body at LanesCT = 0
 * — 21 bodies. A 1-lane lane algorithm shares its policy's scalar body.
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

namespace digraph::engine {

namespace {

template <class AlgoT, bool VertexAsync, unsigned LanesCT>
DispatchOutcome
computeThunk(DiGraphEngine &eng, PartitionId p, const void *policy)
{
    return WaveKernels::compute<AlgoT, VertexAsync, LanesCT>(
        eng, p, *static_cast<const AlgoT *>(policy));
}

/** Try to resolve @p algo as a lane algorithm realizing @p Policy
 *  (registry row @p expected; mirrors tryResolve's tag + IS-A gate on
 *  the LanePolicyAlgorithm adapter). Lane rows exist in the path modes
 *  only. K = 1 shares the scalar row's 1-lane body (same policy type);
 *  every other K runs the run-time-K body. */
template <class Policy>
bool
tryResolveLanes(const algorithms::Algorithm &algo, const std::string &tag,
                const char *expected, const EngineOptions &options,
                ResolvedKernel &out)
{
    if (tag != expected || options.mode == ExecutionMode::VertexAsync)
        return false;
    const auto *typed =
        dynamic_cast<const algorithms::LanePolicyAlgorithm<Policy> *>(
            &algo);
    if (!typed)
        return false;
    out.name = std::string(expected) + ":lanes";
    out.compute = typed->lanes() == 1 ? &computeThunk<Policy, false, 1>
                                      : &computeThunk<Policy, false, 0>;
    out.policy = std::make_shared<const Policy>(typed->kernelPolicy());
    return true;
}

/** Try to resolve @p algo as @p AlgoClass (registry row @p expected). */
template <class AlgoClass>
bool
tryResolve(const algorithms::Algorithm &algo, const std::string &tag,
           const char *expected, const EngineOptions &options,
           ResolvedKernel &out)
{
    if (tag != expected)
        return false;
    const auto *typed = dynamic_cast<const AlgoClass *>(&algo);
    if (!typed)
        return false;
    using Policy = typename AlgoClass::KernelPolicy;
    out.name = expected;
    out.compute = options.mode == ExecutionMode::VertexAsync
                      ? &computeThunk<Policy, true, 1>
                      : &computeThunk<Policy, false, 1>;
    out.policy = std::make_shared<const Policy>(typed->kernelPolicy());
    return true;
}

} // namespace

std::optional<ResolvedKernel>
resolveWaveKernel(const algorithms::Algorithm &algo,
                  const EngineOptions &options)
{
    ResolvedKernel k;
    const std::string tag = algo.kernelTag();
    if (tryResolveLanes<algorithms::PageRankPolicy>(algo, tag, "pagerank",
                                                    options, k) ||
        tryResolveLanes<algorithms::BfsPolicy>(algo, tag, "bfs", options,
                                               k) ||
        tryResolveLanes<algorithms::SsspPolicy>(algo, tag, "sssp", options,
                                                k) ||
        tryResolve<algorithms::PageRank>(algo, tag, "pagerank", options,
                                         k) ||
        tryResolve<algorithms::Katz>(algo, tag, "katz", options, k) ||
        tryResolve<algorithms::Adsorption>(algo, tag, "adsorption",
                                           options, k) ||
        tryResolve<algorithms::Sssp>(algo, tag, "sssp", options, k) ||
        tryResolve<algorithms::Bfs>(algo, tag, "bfs", options, k) ||
        tryResolve<algorithms::Wcc>(algo, tag, "wcc", options, k) ||
        tryResolve<algorithms::KCore>(algo, tag, "kcore", options, k) ||
        tryResolve<algorithms::Hits>(algo, tag, "hits", options, k) ||
        tryResolve<algorithms::Reachability>(algo, tag, "reachability",
                                             options, k)) {
        return k;
    }
    return std::nullopt;
}

} // namespace digraph::engine
