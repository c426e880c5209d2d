/**
 * @file
 * Typed counter registry shared by every engine family.
 *
 * The registry subsumes the ad-hoc work/traffic counters the engines used
 * to accumulate directly on RunReport fields: each engine owns one
 * CounterRegistry per run, increments it at the instrumentation points,
 * and exports the totals into the report at the end. Exporters (the trace
 * sinks, the CI schema check) read the same registry, so "the trace says
 * X" and "the report says X" can never drift apart.
 *
 * Not thread-safe by design: every run owns its registry and mutates it
 * from the run's thread only (the DiGraph engine from each dispatch's
 * barrier).
 */

#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "metrics/run_report.hpp"

namespace digraph::metrics {

/** Every engine-level counter with a RunReport aggregate. */
enum class Counter : unsigned {
    EdgeProcessings,
    VertexUpdates,
    Rounds,
    Waves,
    PartitionProcessings,
    NumPartitions,
    HostTransferBytes,
    RingTransferBytes,
    GlobalLoadBytes,
    LoadedVertices,
    UsedVertices,
    FaultsInjected,
    TransferRetries,
    Checkpoints,
    Recoveries,
    StoreCommits,
    StoreCommitFails,
    StoreRecovers,
    EpochCreates,
    EpochCommits,
    EpochRetires,
    Count_ // sentinel, keep last
};

/** Number of counters in the registry. */
inline constexpr std::size_t kNumCounters =
    static_cast<std::size_t>(Counter::Count_);

/** Stable snake_case name of a counter (trace/CSV/JSON key). */
constexpr const char *
counterName(Counter c)
{
    switch (c) {
      case Counter::EdgeProcessings:      return "edge_processings";
      case Counter::VertexUpdates:        return "vertex_updates";
      case Counter::Rounds:               return "rounds";
      case Counter::Waves:                return "waves";
      case Counter::PartitionProcessings: return "partition_processings";
      case Counter::NumPartitions:        return "num_partitions";
      case Counter::HostTransferBytes:    return "host_transfer_bytes";
      case Counter::RingTransferBytes:    return "ring_transfer_bytes";
      case Counter::GlobalLoadBytes:      return "global_load_bytes";
      case Counter::LoadedVertices:       return "loaded_vertices";
      case Counter::UsedVertices:         return "used_vertices";
      case Counter::FaultsInjected:       return "faults_injected";
      case Counter::TransferRetries:      return "transfer_retries";
      case Counter::Checkpoints:          return "checkpoints";
      case Counter::Recoveries:           return "recoveries";
      case Counter::StoreCommits:         return "store_commits";
      case Counter::StoreCommitFails:     return "store_commit_fails";
      case Counter::StoreRecovers:        return "store_recovers";
      case Counter::EpochCreates:         return "epoch_creates";
      case Counter::EpochCommits:         return "epoch_commits";
      case Counter::EpochRetires:         return "epoch_retires";
      case Counter::Count_:               break;
    }
    return "?";
}

/** Fixed-slot registry of the Counter enum (no hashing on the hot path). */
class CounterRegistry
{
  public:
    /** Add @p delta to counter @p c. */
    void
    add(Counter c, std::uint64_t delta = 1)
    {
        values_[static_cast<std::size_t>(c)] += delta;
    }

    /** Overwrite counter @p c with @p value (end-of-run platform sums). */
    void
    set(Counter c, std::uint64_t value)
    {
        values_[static_cast<std::size_t>(c)] = value;
    }

    /** Current value of counter @p c. */
    std::uint64_t
    get(Counter c) const
    {
        return values_[static_cast<std::size_t>(c)];
    }

    /** Zero every counter. */
    void reset() { values_.fill(0); }

    /** Add every counter of @p other into this registry. */
    void
    merge(const CounterRegistry &other)
    {
        for (std::size_t i = 0; i < kNumCounters; ++i)
            values_[i] += other.values_[i];
    }

    /** Invoke @p fn(Counter, value) for every counter in enum order. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (std::size_t i = 0; i < kNumCounters; ++i)
            fn(static_cast<Counter>(i), values_[i]);
    }

    /** Write the totals into the matching RunReport aggregate fields. */
    void
    exportTo(RunReport &report) const
    {
        report.edge_processings = get(Counter::EdgeProcessings);
        report.vertex_updates = get(Counter::VertexUpdates);
        report.rounds = get(Counter::Rounds);
        report.waves = get(Counter::Waves);
        report.partition_processings = get(Counter::PartitionProcessings);
        report.num_partitions = get(Counter::NumPartitions);
        report.host_transfer_bytes = get(Counter::HostTransferBytes);
        report.ring_transfer_bytes = get(Counter::RingTransferBytes);
        report.global_load_bytes = get(Counter::GlobalLoadBytes);
        report.loaded_vertices = get(Counter::LoadedVertices);
        report.used_vertices = get(Counter::UsedVertices);
        report.faults_injected = get(Counter::FaultsInjected);
        report.transfer_retries = get(Counter::TransferRetries);
        report.checkpoints = get(Counter::Checkpoints);
        report.recoveries = get(Counter::Recoveries);
        report.store_commits = get(Counter::StoreCommits);
        report.store_commit_fails = get(Counter::StoreCommitFails);
        report.store_recovers = get(Counter::StoreRecovers);
        report.epoch_creates = get(Counter::EpochCreates);
        report.epoch_commits = get(Counter::EpochCommits);
        report.epoch_retires = get(Counter::EpochRetires);
    }

    /** Registry holding the aggregates of @p report (test cross-checks). */
    static CounterRegistry
    fromReport(const RunReport &report)
    {
        CounterRegistry reg;
        reg.set(Counter::EdgeProcessings, report.edge_processings);
        reg.set(Counter::VertexUpdates, report.vertex_updates);
        reg.set(Counter::Rounds, report.rounds);
        reg.set(Counter::Waves, report.waves);
        reg.set(Counter::PartitionProcessings,
                report.partition_processings);
        reg.set(Counter::NumPartitions, report.num_partitions);
        reg.set(Counter::HostTransferBytes, report.host_transfer_bytes);
        reg.set(Counter::RingTransferBytes, report.ring_transfer_bytes);
        reg.set(Counter::GlobalLoadBytes, report.global_load_bytes);
        reg.set(Counter::LoadedVertices, report.loaded_vertices);
        reg.set(Counter::UsedVertices, report.used_vertices);
        reg.set(Counter::FaultsInjected, report.faults_injected);
        reg.set(Counter::TransferRetries, report.transfer_retries);
        reg.set(Counter::Checkpoints, report.checkpoints);
        reg.set(Counter::Recoveries, report.recoveries);
        reg.set(Counter::StoreCommits, report.store_commits);
        reg.set(Counter::StoreCommitFails, report.store_commit_fails);
        reg.set(Counter::StoreRecovers, report.store_recovers);
        reg.set(Counter::EpochCreates, report.epoch_creates);
        reg.set(Counter::EpochCommits, report.epoch_commits);
        reg.set(Counter::EpochRetires, report.epoch_retires);
        return reg;
    }

    friend bool
    operator==(const CounterRegistry &a, const CounterRegistry &b)
    {
        return a.values_ == b.values_;
    }

  private:
    std::array<std::uint64_t, kNumCounters> values_{};
};

} // namespace digraph::metrics
