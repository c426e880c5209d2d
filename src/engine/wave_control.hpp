/**
 * @file
 * Cooperative wave-boundary control: the hook through which an
 * inter-job scheduler (GraphService) steers a running DiGraphEngine.
 *
 * DiGraphEngine::run() consults the hook once per dispatch wave, right
 * after the wave's last dispatch barrier — the only point where the
 * job's state is fully consistent and *nothing is in flight*. The hook
 * may block: the engine simply parks on its calling thread. No snapshot
 * is taken because none is needed — the job's ValuePlane IS its state,
 * so a parked run resumes bit-identical to an uninterrupted one.
 */

#pragma once

#include <cstdint>
#include <vector>

namespace digraph::engine {

/**
 * Wave-boundary scheduling hook (see EngineOptions::wave_control).
 * Implemented by GraphService; null disables the whole mechanism (the
 * engine runs to convergence uninterrupted, as before).
 */
class WaveControl
{
  public:
    virtual ~WaveControl() = default;

    /**
     * Called after wave @p wave's last dispatch barrier. May block (the
     * job is preempted until the scheduler grants it a new quantum).
     * @param partition_active The job's partition worklist flags at the
     *        boundary — the inter-job scheduler's co-scheduling signal
     *        (jobs with overlapping worklists share substrate cache
     *        residency when run in the same quantum).
     */
    virtual void
    onWaveBoundary(std::uint64_t wave,
                   const std::vector<std::uint8_t> &partition_active) = 0;
};

} // namespace digraph::engine
