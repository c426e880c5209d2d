/**
 * @file
 * Structured execution tracing for the engines.
 *
 * A TraceSink records typed events (wave start/end, partition dispatch,
 * merge barrier, mirror-push batches, path-schedule decisions, work
 * steals) carrying both a simulated-cycle timestamp and a wall-clock
 * timestamp relative to the sink's epoch. Engines hold a `TraceSink *`
 * that defaults to nullptr; every instrumentation point is guarded by a
 * null check, so a disabled trace costs one predictable branch and no
 * allocation — the hot loop is unchanged.
 *
 * A job's dispatches run one at a time, so the event sequence of a
 * run (types, waves, partitions, simulated timestamps, payloads) is a
 * function of its input alone; only the wall-clock timestamps vary.
 *
 * Exporters: writeChromeJson() emits chrome://tracing "Trace Event
 * Format" JSON (open in chrome://tracing or https://ui.perfetto.dev),
 * writeCsv() a flat table for scripting. Both embed the final
 * CounterRegistry totals so traces are self-describing.
 */

#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/timer.hpp"
#include "metrics/counter_registry.hpp"

namespace digraph::metrics {

/** Event taxonomy (see DESIGN.md "Observability layer"). */
enum class TraceEventType : std::uint8_t {
    /** A dispatch wave's schedule was frozen (arg0 = batch size,
     *  arg1 = first partition of the batch). */
    WaveStart,
    /** Every dispatch of the wave committed (arg0 = partitions
     *  run). */
    WaveEnd,
    /** One partition dispatch's simulated kernel span (arg0 = local
     *  rounds, arg1 = edges processed). */
    Dispatch,
    /** Barrier of one dispatch (arg0 = mirror pushes merged into
     *  masters, arg1 = masters changed). */
    MergeBarrier,
    /** One local round's mirror->master push batch (arg0 = pushes,
     *  arg1 = local round index). */
    MirrorPush,
    /** Pri(p) path-schedule decision for one local round (arg0 = active
     *  paths, arg1 = highest-priority path id). */
    PathSchedule,
    /** A surplus work-stealing group ran on a stolen SMX (arg0 = group
     *  index, arg1 = stolen SMX id). */
    Steal,
    /** An injected fault became visible (arg0 = device, arg1 = 0 for a
     *  device loss, 1 for an SMX stall). */
    FaultInjected,
    /** One dropped transfer attempt was retried after backoff (arg0 =
     *  retry index within the transfer, arg1 = transfer bytes). */
    TransferRetry,
    /** A merge-barrier checkpoint epoch advanced (arg0 = dirty vertices
     *  flushed, arg1 = dirty partitions flushed). */
    Checkpoint,
    /** Device-loss recovery: checkpoint restore + redistribution
     *  (arg0 = dead device, arg1 = recovery ordinal). */
    Recovery,
    /** GraphService admitted a job (arg0 = job id, arg1 = priority).
     *  Service-level sinks only (ServiceConfig::trace). */
    JobAdmit,
    /** The inter-job scheduler granted a job an execution slot
     *  (arg0 = job id, arg1 = 1 when the grant was placed by worklist
     *  overlap instead of plain rank order, else 0). */
    JobGrant,
    /** A job parked at a wave boundary — preempted until its next
     *  grant (arg0 = job id, arg1 = waves run in the quantum). */
    JobPark,
    /** A job ran to convergence and left the session
     *  (arg0 = job id, arg1 = times it was parked). */
    JobDone,
    /** The durable store committed a version (arg0 = version id,
     *  arg1 = shards written; reused parent shards not included). */
    StoreCommit,
    /** The durable store recovered a version (arg0 = version id,
     *  arg1 = corrupt newer versions skipped on the way down). */
    StoreRecover,
    /** A substrate epoch was derived from its parent — built in memory,
     *  not yet visible to new jobs (arg0 = epoch id, arg1 = batch edges
     *  accepted). Catalog-level sinks only. */
    EpochCreate,
    /** A substrate epoch became the newest committed epoch — new jobs
     *  pin it from here on (arg0 = epoch id, arg1 = durable-store
     *  version, 0 when the session has no store). */
    EpochCommit,
    /** A superseded epoch drained its last pinned job and its substrate
     *  was released (arg0 = epoch id, arg1 = jobs that ever pinned
     *  it). */
    EpochRetire,
};

/** Stable name of an event type (trace/CSV/JSON key). */
constexpr const char *
traceEventName(TraceEventType t)
{
    switch (t) {
      case TraceEventType::WaveStart:    return "wave_start";
      case TraceEventType::WaveEnd:      return "wave_end";
      case TraceEventType::Dispatch:     return "dispatch";
      case TraceEventType::MergeBarrier: return "merge_barrier";
      case TraceEventType::MirrorPush:   return "mirror_push";
      case TraceEventType::PathSchedule: return "path_schedule";
      case TraceEventType::Steal:        return "steal";
      case TraceEventType::FaultInjected: return "fault_injected";
      case TraceEventType::TransferRetry: return "transfer_retry";
      case TraceEventType::Checkpoint:    return "checkpoint";
      case TraceEventType::Recovery:      return "recovery";
      case TraceEventType::JobAdmit:      return "job_admit";
      case TraceEventType::JobGrant:      return "job_grant";
      case TraceEventType::JobPark:       return "job_park";
      case TraceEventType::JobDone:       return "job_done";
      case TraceEventType::StoreCommit:   return "store_commit";
      case TraceEventType::StoreRecover:  return "store_recover";
      case TraceEventType::EpochCreate:   return "epoch_create";
      case TraceEventType::EpochCommit:   return "epoch_commit";
      case TraceEventType::EpochRetire:   return "epoch_retire";
    }
    return "?";
}

/** Sentinel for "no partition" in TraceEvent::partition. */
inline constexpr std::uint64_t kTraceNoPartition = ~0ull;

/** One recorded event. */
struct TraceEvent
{
    TraceEventType type = TraceEventType::WaveStart;
    /** Recording thread's dense per-process id, in first-record order
     *  (each GraphService job records on its own thread). */
    std::uint32_t tid = 0;
    /** Dispatch wave the event belongs to. */
    std::uint64_t wave = 0;
    /** Partition, or kTraceNoPartition for wave-level events. */
    std::uint64_t partition = kTraceNoPartition;
    /** Simulated-cycle timestamp (start). */
    double sim_begin = 0.0;
    /** Simulated duration in cycles (0 for instantaneous events). */
    double sim_dur = 0.0;
    /** Wall-clock seconds since the sink's epoch. */
    double wall_seconds = 0.0;
    /** Event-type-specific payload (see TraceEventType docs). */
    std::uint64_t arg0 = 0;
    std::uint64_t arg1 = 0;
};

/**
 * Thread-safe event collector plus exporter.
 *
 * One sink may observe several runs; clear() between runs (or use one
 * sink per run) to keep traces separable.
 */
class TraceSink
{
  public:
    TraceSink() = default;

    /** Append @p event, stamping wall_seconds and tid. Thread-safe. */
    void record(TraceEvent event);

    /** Convenience wrapper building the TraceEvent in place. */
    void
    event(TraceEventType type, std::uint64_t wave, std::uint64_t partition,
          double sim_begin, double sim_dur = 0.0, std::uint64_t arg0 = 0,
          std::uint64_t arg1 = 0)
    {
        TraceEvent e;
        e.type = type;
        e.wave = wave;
        e.partition = partition;
        e.sim_begin = sim_begin;
        e.sim_dur = sim_dur;
        e.arg0 = arg0;
        e.arg1 = arg1;
        record(e);
    }

    /** Snapshot of the recorded events. Thread-safe. */
    std::vector<TraceEvent> events() const;

    /** Number of recorded events. Thread-safe. */
    std::size_t size() const;

    /** Count events of one type. Thread-safe. */
    std::size_t count(TraceEventType type) const;

    /** Drop all events and counters, restart the wall epoch. */
    void clear();

    /** Attach the final per-run counter totals (exported alongside the
     *  events; must equal the RunReport aggregates). */
    void setCounters(const CounterRegistry &counters);

    /** The attached counter totals. */
    CounterRegistry counters() const;

    /** Write chrome://tracing JSON ("ts"/"dur" are simulated cycles,
     *  wall timestamps travel in args). Fatal on I/O errors. */
    void writeChromeJson(const std::string &path) const;

    /** Write a flat CSV (one row per event, header included). */
    void writeCsv(const std::string &path) const;

  private:
    mutable std::mutex mutex_;
    std::vector<TraceEvent> events_;
    CounterRegistry counters_;
    WallTimer epoch_;
};

} // namespace digraph::metrics
