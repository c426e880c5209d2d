/**
 * @file
 * Transport layer of the execution substrate (DESIGN.md §12): the
 * simulated multi-GPU platform plus everything that moves bytes —
 * estimated-start-time device selection, LRU residency with writeback
 * eviction, the prefetch distribution, ring master-refresh pulls,
 * kernel-round charging (with work-stealing SMX selection), activation
 * notifications, and the PR 3 transfer retry/fault path.
 *
 * A Transport instance is per-job (it owns the job's simulated clocks
 * and residency maps). The engine calls it from dispatch barriers and
 * wave boundaries, never from a dispatch's compute phase.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "engine/dispatcher.hpp"
#include "engine/options.hpp"
#include "gpusim/fault.hpp"
#include "gpusim/platform.hpp"
#include "metrics/counter_registry.hpp"
#include "metrics/run_report.hpp"
#include "metrics/trace.hpp"

namespace digraph::engine {

/** Bytes per mirror-sync message (vertex id + value). */
inline constexpr std::size_t kMessageBytes =
    sizeof(VertexId) + sizeof(Value);

class Transport
{
  public:
    // --- per-run state (reset by beginRun) ---
    std::vector<DeviceId> partition_device; // last residence
    std::vector<double> partition_done;      // last dispatch completion
    std::vector<double> partition_msg_ready; // last activation arrival
    /** Device that last wrote each vertex's master (buffered results stay
     *  in that device's global memory; other devices fetch via host). */
    std::vector<DeviceId> master_writer;
    std::vector<std::vector<PartitionId>> device_resident; // LRU order
    std::vector<std::size_t> device_resident_bytes;
    /** True when the run has an active FaultPlan. */
    bool ft_enabled = false;
    /** Value lanes K of the run. Refresh pulls at K > 1 are
     *  delta-encoded per stale vertex (id + changed-lane mask + one
     *  value per set bit); K = 1 keeps the scalar id + value wire
     *  format (kMessageBytes). */
    unsigned value_lanes = 1;
    gpusim::FaultInjector injector;
    /** Per (device, smx) kernel-cycle multiplier (armed stalls). */
    std::vector<double> smx_stall_factor;

    explicit Transport(const gpusim::PlatformConfig &config)
        : platform_(config)
    {
    }

    gpusim::Platform &platform() { return platform_; }
    const gpusim::Platform &platform() const { return platform_; }

    /** Reset the platform and every per-run structure. @p counters may
     *  be null only if no method charging counters is called. */
    void beginRun(const EngineOptions &options, PartitionId nparts,
                  VertexId num_vertices,
                  metrics::CounterRegistry *counters);

    /** Wave context for trace events (set at each wave start). */
    void
    setTraceContext(metrics::TraceSink *trace, std::uint64_t wave,
                    double wave_sim)
    {
        trace_ = trace;
        trace_wave_ = wave;
        trace_wave_sim_ = wave_sim;
    }

    /**
     * Estimated-start-time dispatch: a device already holding the
     * partition (or many of its precursors' buffered results) skips the
     * host transfer, but a busy device must not hoard work — pick the
     * device minimizing (least-loaded SMX clock + required transfer
     * cost). This realizes both the paper's precursor affinity and the
     * multi-GPU spreading of the giant SCC-vertex.
     */
    DeviceId chooseDevice(PartitionId p, const Dispatcher &sched) const;

    /** Make partition @p p resident on @p dev (LRU touch, or evict +
     *  host-link upload); returns the completion time. */
    double ensureResident(PartitionId p, DeviceId dev, double issue_time,
                          const Dispatcher &sched,
                          metrics::RunReport &report);

    /** Distribute all partitions over the devices up front, streamed
     *  via the copy queues so kernels start without waiting on host
     *  memory (Section 3.2.2's advance transfer). Contiguous
     *  byte-balanced blocks keep SCC-affine neighbors together. */
    void prefetchAll(PartitionId nparts, const Dispatcher &sched,
                     metrics::RunReport &report);

    /** Ring master-refresh pulls for @p stale_vertices at dispatch
     *  replay: masters written on another device are pulled over the
     *  ring, one batch per source device; locally-written masters are
     *  free. At K > 1 @p stale_lanes holds each stale vertex's
     *  changed-lane mask (parallel; empty at K = 1) and the pull is
     *  delta-encoded — id + mask + one value per set bit — instead of
     *  the full K-value stripe. Returns the updated ready time. */
    double masterRefreshPulls(DeviceId dev,
                              const std::vector<VertexId> &stale_vertices,
                              const std::vector<std::uint64_t> &stale_lanes,
                              double ready, metrics::RunReport &report);

    /** Charge recorded kernel rounds to the device clocks, exactly as
     *  the interleaved execution would have: group 0 chains on
     *  @p home_smx, surplus groups steal the momentarily least-loaded
     *  SMX (Steal trace per stolen group). Returns the completion
     *  time. */
    double chargeKernelRounds(
        PartitionId p, DeviceId dev, SmxId home_smx,
        const std::vector<std::vector<double>> &round_group_cycles,
        double ready, metrics::RunReport &report);

    /** Ring notification transfers to the partitions in
     *  @p activated_parts (each listed once, in any order: bytes are
     *  summed per device) woken by partition @p p's barrier; advances
     *  their partition_msg_ready. */
    void notifyActivations(DeviceId dev,
                           const std::vector<PartitionId> &activated_parts,
                           double ready, metrics::RunReport &report);

    /** Dropped-transfer retries before the run hard-aborts. */
    static constexpr unsigned kMaxTransferRetries = 6;
    /** Backoff after the first dropped attempt, simulated cycles; each
     *  further retry doubles it. */
    static constexpr double kTransferBackoffCycles = 200.0;

    /** Issue-time penalty of the transfer-drop coin for one transfer of
     *  @p bytes: 0 when delivered first try, the accumulated exponential
     *  backoff otherwise; hard-aborts when kMaxTransferRetries is
     *  exhausted. Every simulated transfer issue passes through this. */
    double transferFaultPenalty(std::uint64_t bytes,
                                metrics::RunReport &report);

    /** Kernel-cycle multiplier of (device, smx) under active stalls. */
    double
    smxStallFactor(DeviceId d, SmxId s) const
    {
        return ft_enabled
                   ? smx_stall_factor[static_cast<std::size_t>(d) *
                                          options_->platform
                                              .smx_per_device +
                                      s]
                   : 1.0;
    }

    /** Drop every partition's device residency (device-loss recovery:
     *  the next dispatch re-uploads from the host checkpoint). */
    void dropResidency();

  private:
    gpusim::Platform platform_;
    const EngineOptions *options_ = nullptr;
    metrics::CounterRegistry *counters_ = nullptr;
    metrics::TraceSink *trace_ = nullptr;
    std::uint64_t trace_wave_ = 0;
    double trace_wave_sim_ = 0.0;
};

} // namespace digraph::engine
