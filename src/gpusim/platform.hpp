/**
 * @file
 * The simulated multi-GPU platform: devices, SMXs, host links, and the
 * ring interconnect — with deterministic cycle clocks and byte-exact
 * traffic accounting.
 *
 * Execution is modeled as greedy list scheduling: engines ask a device for
 * its least-loaded SMX, run kernels on it (advancing its clock), and issue
 * transfers whose completion times gate kernel starts. The makespan is the
 * maximum clock over all components; utilization is busy/makespan.
 */

#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "gpusim/config.hpp"

namespace digraph::gpusim {

/**
 * One streaming multiprocessor: a cycle clock plus busy accounting.
 */
class Smx
{
  public:
    /** Current clock, cycles. */
    double clock() const { return clock_; }

    /** Cycles spent computing (excludes waiting). */
    double busyCycles() const { return busy_; }

    /**
     * Run a kernel of @p cycles cycles that cannot start before
     * @p ready_time (data dependency / transfer completion).
     * @return the completion time.
     */
    double
    run(double ready_time, double cycles)
    {
        clock_ = std::max(clock_, ready_time) + cycles;
        busy_ += cycles;
        return clock_;
    }

    /** Reset clock and accounting. */
    void reset() { clock_ = busy_ = 0.0; }

  private:
    double clock_ = 0.0;
    double busy_ = 0.0;
};

/**
 * A serialized transfer channel (PCIe host link or one ring hop):
 * transfers queue behind each other; each costs latency + bytes/bandwidth.
 */
class LinkModel
{
  public:
    LinkModel() = default;

    /** @param bytes_per_cycle Bandwidth. @param latency Setup cycles.
     *  @param streams Concurrent copy streams (Hyper-Q lanes). */
    LinkModel(double bytes_per_cycle, double latency, unsigned streams)
        : bandwidth_(bytes_per_cycle), latency_(latency),
          stream_clock_(std::max(1u, streams), 0.0)
    {}

    /**
     * Issue a transfer of @p bytes at @p issue_time.
     * @return completion time (the earliest-free stream is used).
     */
    double
    transfer(double issue_time, std::uint64_t bytes)
    {
        auto it = std::min_element(stream_clock_.begin(),
                                   stream_clock_.end());
        const double start = std::max(*it, issue_time);
        *it = start + latency_ +
              static_cast<double>(bytes) / bandwidth_;
        total_bytes_ += bytes;
        ++total_transfers_;
        return *it;
    }

    /** Intrinsic cost of moving @p bytes (latency + serialization),
     *  ignoring queueing. */
    double
    cost(std::uint64_t bytes) const
    {
        return latency_ + static_cast<double>(bytes) / bandwidth_;
    }

    /** Total bytes moved. */
    std::uint64_t totalBytes() const { return total_bytes_; }

    /** Number of transfers issued. */
    std::uint64_t totalTransfers() const { return total_transfers_; }

    /** Latest stream completion time. */
    double
    clock() const
    {
        return stream_clock_.empty()
                   ? 0.0
                   : *std::max_element(stream_clock_.begin(),
                                       stream_clock_.end());
    }

    /** Reset clocks and accounting. */
    void
    reset()
    {
        std::fill(stream_clock_.begin(), stream_clock_.end(), 0.0);
        total_bytes_ = 0;
        total_transfers_ = 0;
    }

  private:
    double bandwidth_ = 8.0;
    double latency_ = 0.0;
    std::vector<double> stream_clock_{0.0};
    std::uint64_t total_bytes_ = 0;
    std::uint64_t total_transfers_ = 0;
};

/**
 * One simulated GPU: SMXs plus a host link and global-memory accounting.
 *
 * Threading contract: a Device belongs to one run's Platform and is
 * mutated only by the thread executing that run.
 */
class Device
{
  public:
    Device(DeviceId id, const PlatformConfig &cfg)
        : id_(id), smxs_(cfg.smx_per_device),
          host_link_(cfg.host_link_bytes_per_cycle,
                     cfg.transfer_latency_cycles, cfg.num_streams)
    {}

    DeviceId id() const { return id_; }

    /** Number of SMXs. */
    unsigned numSmxs() const { return static_cast<unsigned>(smxs_.size()); }

    /** SMX accessor. */
    Smx &smx(SmxId s) { return smxs_[s]; }
    const Smx &smx(SmxId s) const { return smxs_[s]; }

    /** Index of the SMX with the smallest clock (greedy dispatch). */
    SmxId
    leastLoadedSmx() const
    {
        SmxId best = 0;
        for (SmxId s = 1; s < smxs_.size(); ++s) {
            if (smxs_[s].clock() < smxs_[best].clock())
                best = s;
        }
        return best;
    }

    /** Host link of this device. */
    LinkModel &hostLink() { return host_link_; }
    const LinkModel &hostLink() const { return host_link_; }

    /** Max clock over SMXs and the host link. */
    double
    clock() const
    {
        double t = host_link_.clock();
        for (const Smx &s : smxs_)
            t = std::max(t, s.clock());
        return t;
    }

    /** Sum of busy cycles over SMXs. */
    double
    totalBusy() const
    {
        double b = 0.0;
        for (const Smx &s : smxs_)
            b += s.busyCycles();
        return b;
    }

    /** Record @p bytes loaded from global memory into cores. */
    void addGlobalLoad(std::uint64_t bytes) { global_load_bytes_ += bytes; }

    /** Bytes loaded from global memory into cores. */
    std::uint64_t globalLoadBytes() const { return global_load_bytes_; }

    /** Mark the device as permanently lost (fault injection). Clocks
     *  and accounting are kept — work done before the loss happened. */
    void markFailed() { failed_ = true; }

    /** True when the device was lost to an injected fault. */
    bool failed() const { return failed_; }

    /** Reset clocks and accounting; a failed device is resurrected
     *  (reset() starts a fresh simulated run). */
    void
    reset()
    {
        for (Smx &s : smxs_)
            s.reset();
        host_link_.reset();
        failed_ = false;
        global_load_bytes_ = 0;
    }

  private:
    DeviceId id_;
    std::vector<Smx> smxs_;
    LinkModel host_link_;
    bool failed_ = false;
    std::uint64_t global_load_bytes_ = 0;
};

/**
 * NCCL-style ring over the devices, routed through host memory: a
 * transfer from device a to device b crosses min ring distance hops.
 */
class RingInterconnect
{
  public:
    RingInterconnect() = default;

    RingInterconnect(unsigned num_devices, const PlatformConfig &cfg)
        : num_devices_(num_devices)
    {
        hops_.reserve(num_devices);
        for (unsigned i = 0; i < num_devices; ++i) {
            hops_.emplace_back(cfg.ring_bytes_per_cycle,
                               cfg.transfer_latency_cycles,
                               cfg.num_streams);
        }
    }

    /** Ring distance between two devices. */
    unsigned
    distance(DeviceId a, DeviceId b) const
    {
        const unsigned d =
            (b + num_devices_ - a) % num_devices_;
        return std::min(d, num_devices_ - d);
    }

    /**
     * Send @p bytes from @p src to @p dst starting at @p issue_time,
     * hop by hop. @return delivery time.
     */
    double
    transfer(DeviceId src, DeviceId dst, double issue_time,
             std::uint64_t bytes)
    {
        if (src == dst || num_devices_ < 2)
            return issue_time;
        double t = issue_time;
        const unsigned fwd = (dst + num_devices_ - src) % num_devices_;
        const bool forward = fwd <= num_devices_ - fwd;
        DeviceId cur = src;
        while (cur != dst) {
            t = hops_[cur].transfer(t, bytes);
            cur = forward ? (cur + 1) % num_devices_
                          : (cur + num_devices_ - 1) % num_devices_;
        }
        return t;
    }

    /** Total bytes moved across all hops (multi-hop counts each hop). */
    std::uint64_t
    totalBytes() const
    {
        std::uint64_t total = 0;
        for (const LinkModel &hop : hops_)
            total += hop.totalBytes();
        return total;
    }

    /** Reset all hop links. */
    void
    reset()
    {
        for (LinkModel &hop : hops_)
            hop.reset();
    }

  private:
    unsigned num_devices_ = 0;
    std::vector<LinkModel> hops_;
};

/**
 * The whole simulated machine: devices + ring + a stats registry.
 */
class Platform
{
  public:
    explicit Platform(const PlatformConfig &cfg = {});

    const PlatformConfig &config() const { return cfg_; }

    unsigned numDevices() const
    {
        return static_cast<unsigned>(devices_.size());
    }

    Device &device(DeviceId d) { return devices_[d]; }
    const Device &device(DeviceId d) const { return devices_[d]; }

    RingInterconnect &ring() { return ring_; }
    const RingInterconnect &ring() const { return ring_; }

    /** Device with the smallest clock. */
    DeviceId leastLoadedDevice() const;

    /** Mark @p d as permanently lost (fault injection). */
    void markFailed(DeviceId d) { devices_[d].markFailed(); }

    /** Number of devices that have not failed. */
    unsigned
    numAlive() const
    {
        unsigned alive = 0;
        for (const Device &d : devices_)
            alive += d.failed() ? 0 : 1;
        return alive;
    }

    /** Simulated makespan: max clock over every component. */
    double makespan() const;

    /** Mean SMX utilization: busy cycles / makespan, averaged. */
    double utilization() const;

    /** Total traffic: host links + ring, bytes. */
    std::uint64_t transferBytes() const;

    /** Total bytes loaded from global memory into GPU cores. */
    std::uint64_t globalLoadBytes() const;

    /** Named counters for engine-specific metrics. */
    StatsRegistry &stats() { return stats_; }
    const StatsRegistry &stats() const { return stats_; }

    /** Reset every clock and counter. */
    void reset();

  private:
    PlatformConfig cfg_;
    std::vector<Device> devices_;
    RingInterconnect ring_;
    StatsRegistry stats_;
};

/**
 * Lock-step warp cost: lanes execute in SIMT fashion, so each instruction
 * costs the maximum lane trip count. @p lane_work holds per-lane work
 * units (e.g. edges); the result is max * cycles_per_unit.
 */
double warpCost(const std::vector<std::uint64_t> &lane_work,
                double cycles_per_unit);

} // namespace digraph::gpusim
