/**
 * @file
 * Fault tolerance for the DiGraph engine (DESIGN.md "Fault model and
 * recovery"): barrier checkpointing with copy-on-write dirty journals,
 * SMX-stall kernel multipliers, degrade-and-redistribute recovery from
 * device loss, and the post-run invariant checker. (The transfer
 * retry/backoff path lives in the Transport layer.)
 *
 * Every method here runs between dispatches (wave start, a dispatch
 * barrier, or wave end), never inside a dispatch's local rounds, so
 * the injector's coin stream follows the dispatch order.
 */

#include "engine/digraph_engine.hpp"

#include <algorithm>
#include <cmath>

#include "common/logging.hpp"
#include "storage/durable_store.hpp"

namespace digraph::engine {

void
DiGraphEngine::initFaultTolerance()
{
    // The injector and stall multipliers were armed by
    // Transport::beginRun; only the checkpoint shadows remain.
    plane_.initCheckpoint(g_, pre_);
    recoveries_ = 0;
    // Epoch-0 flush-through: with a store attached, the initial full
    // checkpoint immediately becomes a durable version, so a process
    // crash at any point of the run has a restartable parent.
    store_version_ = options_.store_parent;
    store_synced_ = false;
    store_values_committed_ = false;
    store_backlog_.clear();
    store_backlog_flag_.assign(pre_.numPartitions(), 0);
    if (options_.store && store_version_ != 0) {
        const std::uint64_t v = options_.store->commitValues(
            g_, pre_, plane_.ckpt_v, plane_.ckpt_e, {}, store_version_,
            nullptr);
        if (v != 0) {
            store_version_ = v;
            store_synced_ = true;
            store_values_committed_ = true;
            counters_.add(metrics::Counter::StoreCommits);
        } else {
            counters_.add(metrics::Counter::StoreCommitFails);
            logWarn("DiGraphEngine: initial checkpoint flush to the "
                    "durable store failed; running with the in-memory "
                    "shadow only until a flush lands");
        }
    }
}

void
DiGraphEngine::pollFaults(std::uint64_t wave, metrics::RunReport &report)
{
    const double now = transport_.platform().makespan();

    due_stalls_.clear();
    transport_.injector.drainDueSmxStalls(now, due_stalls_);
    for (const auto &stall : due_stalls_) {
        transport_.smx_stall_factor[static_cast<std::size_t>(
                                        stall.device) *
                                        options_.platform.smx_per_device +
                                    stall.smx] = stall.factor;
        counters_.add(metrics::Counter::FaultsInjected);
        if (trace_) {
            trace_->event(metrics::TraceEventType::FaultInjected, wave,
                          metrics::kTraceNoPartition, now, 0.0,
                          stall.device, 1);
        }
    }

    due_loss_.clear();
    transport_.injector.drainDueDeviceLoss(now, due_loss_);
    for (const DeviceId dead : due_loss_) {
        counters_.add(metrics::Counter::FaultsInjected);
        if (trace_) {
            trace_->event(metrics::TraceEventType::FaultInjected, wave,
                          metrics::kTraceNoPartition, now, 0.0, dead, 0);
        }
        if (transport_.platform().device(dead).failed())
            continue; // duplicate plan entry: the device is already gone
        recoverFromDeviceLoss(dead, wave, report);
    }
}

void
DiGraphEngine::maybeCheckpoint(std::uint64_t wave,
                               metrics::RunReport &report)
{
    if (wave - plane_.ckpt_wave < options_.checkpoint_interval)
        return;

    auto &platform = transport_.platform();
    // Simulated flush cost: each dirty master travels over its writer
    // device's host link, each dirty partition writes back its E_val
    // slice from its resident device. Entries without a live producer
    // (never written, or evicted) are already host-side and free.
    std::vector<std::uint64_t> flush_bytes(platform.numDevices(), 0);
    for (const VertexId v : plane_.ckpt_v_dirty_list) {
        const DeviceId writer = transport_.master_writer[v];
        if (writer != kInvalidVertex)
            flush_bytes[writer] += kMessageBytes;
    }
    for (const PartitionId q : plane_.ckpt_part_dirty_list) {
        const DeviceId dev = transport_.partition_device[q];
        if (dev == kInvalidVertex)
            continue;
        const std::uint32_t path_lo = pre_.partition_offsets[q];
        const std::uint32_t path_hi = pre_.partition_offsets[q + 1];
        const std::uint64_t edges =
            (plane_.storage.pathOffset(path_hi) - path_hi) -
            (plane_.storage.pathOffset(path_lo) - path_lo);
        flush_bytes[dev] += edges * sizeof(Value);
    }
    const double issue = platform.makespan();
    for (DeviceId d = 0; d < platform.numDevices(); ++d) {
        if (flush_bytes[d] == 0 || platform.device(d).failed())
            continue;
        auto &device = platform.device(d);
        device.hostLink().transfer(
            issue +
                transport_.transferFaultPenalty(flush_bytes[d], report),
            flush_bytes[d]);
        report.comm_cycles += device.hostLink().cost(flush_bytes[d]);
        counters_.add(metrics::Counter::HostTransferBytes,
                      flush_bytes[d]);
    }

    // Advance the epoch: copy journalled-dirty entries live -> shadow.
    const std::uint64_t dirty_vertices = plane_.ckpt_v_dirty_list.size();
    const std::uint64_t dirty_partitions =
        plane_.ckpt_part_dirty_list.size();
    // Merge this epoch's dirty partitions into the un-flushed backlog
    // BEFORE the journals are cleared: the store flush below writes the
    // E_val shards of every epoch since the last *successful* commit,
    // so a failed flush can never silently mark a partition clean.
    if (options_.store && store_version_ != 0) {
        for (const PartitionId q : plane_.ckpt_part_dirty_list) {
            if (!store_backlog_flag_[q]) {
                store_backlog_flag_[q] = 1;
                store_backlog_.push_back(q);
            }
        }
    }
    for (const VertexId v : plane_.ckpt_v_dirty_list) {
        plane_.ckpt_v[v] = plane_.storage.vVal(v);
        plane_.ckpt_v_dirty[v] = 0;
    }
    plane_.ckpt_v_dirty_list.clear();
    for (const PartitionId q : plane_.ckpt_part_dirty_list) {
        plane_.copyPartitionEval(pre_, q, /*to_checkpoint=*/true);
        plane_.ckpt_part_dirty[q] = 0;
    }
    plane_.ckpt_part_dirty_list.clear();
    plane_.ckpt_wave = wave;

    // Flush-through: the advanced shadow (a consistent barrier-state
    // snapshot) becomes a durable incremental version — only the E_val
    // shards dirtied since the last successful flush (the backlog) are
    // written, clean partitions reference the parent version's files.
    // Until a flush of this run has committed, everything is written:
    // a dirty-list flush may only chain on a parent holding this run's
    // values.
    if (options_.store && store_version_ != 0) {
        const std::vector<PartitionId> *dirty =
            store_values_committed_ ? &store_backlog_ : nullptr;
        const std::uint64_t v = options_.store->commitValues(
            g_, pre_, plane_.ckpt_v, plane_.ckpt_e, {}, store_version_,
            dirty);
        if (v != 0) {
            store_version_ = v;
            store_synced_ = true;
            store_values_committed_ = true;
            for (const PartitionId q : store_backlog_)
                store_backlog_flag_[q] = 0;
            store_backlog_.clear();
            counters_.add(metrics::Counter::StoreCommits);
        } else {
            // The disk now lags the shadow: recovery must ignore it,
            // and the backlog (including this epoch) rides into the
            // next flush.
            store_synced_ = false;
            counters_.add(metrics::Counter::StoreCommitFails);
            logWarn("DiGraphEngine: checkpoint flush to the durable "
                    "store failed at wave ", wave, "; ",
                    store_backlog_.size(),
                    " dirty partition(s) carried to the next flush");
        }
    }

    counters_.add(metrics::Counter::Checkpoints);
    if (trace_) {
        trace_->event(metrics::TraceEventType::Checkpoint, wave,
                      metrics::kTraceNoPartition, platform.makespan(),
                      0.0, dirty_vertices, dirty_partitions);
    }
}

void
DiGraphEngine::recoverFromDeviceLoss(DeviceId dead, std::uint64_t wave,
                                     metrics::RunReport &report)
{
    ++recoveries_;
    if (recoveries_ > options_.max_recoveries) {
        fatal("DiGraphEngine: device ", dead,
              " lost but the recovery budget is exhausted "
              "(max_recoveries=",
              options_.max_recoveries, ")");
    }
    auto &platform = transport_.platform();
    platform.markFailed(dead);
    if (platform.numAlive() == 0) {
        fatal("DiGraphEngine: no device survives the loss of device ",
              dead);
    }

    // Restart from disk when the checkpoints were flushed through a
    // durable store: reload the shadow arrays from the last committed
    // version before rolling back. Only when the store is in sync —
    // after a failed or pending flush the disk holds an OLDER epoch
    // than the shadow, and substituting it would mix rolled-back and
    // live entries (the dirty journals only cover the last epoch).
    // When synced, the disk copy is byte-identical to the in-memory
    // shadow (same barrier snapshot), so results are unchanged — this
    // exercises the exact path a restarted process takes, and survives
    // shadow corruption the in-memory path cannot.
    if (options_.store && store_synced_ &&
        store_version_ != options_.store_parent) {
        auto loaded = options_.store->loadValues(store_version_);
        if (loaded && loaded->v_val.size() == plane_.ckpt_v.size() &&
            loaded->e_val.size() == plane_.ckpt_e.size()) {
            plane_.ckpt_v = std::move(loaded->v_val);
            plane_.ckpt_e = std::move(loaded->e_val);
            counters_.add(metrics::Counter::StoreRecovers);
        }
    }

    // Roll journalled-dirty masters and E_val slices back to the last
    // checkpoint epoch (entries never dirtied already equal the shadow).
    for (const VertexId v : plane_.ckpt_v_dirty_list) {
        plane_.storage.vVal(v) = plane_.ckpt_v[v];
        plane_.ckpt_v_dirty[v] = 0;
    }
    plane_.ckpt_v_dirty_list.clear();
    for (const PartitionId q : plane_.ckpt_part_dirty_list) {
        plane_.copyPartitionEval(pre_, q, /*to_checkpoint=*/false);
        plane_.ckpt_part_dirty[q] = 0;
    }
    plane_.ckpt_part_dirty_list.clear();
    plane_.ckpt_wave = wave; // live state equals the shadow again

    // Clear the volatile run state the rollback invalidated. Mirrors
    // need no restore: every path is re-activated below, so the next
    // dispatch of its partition re-pulls it from the restored masters
    // before touching it. Master and entry versions restart together,
    // so no mirror entry is stale (lane runs exclude fault tolerance,
    // so there are no lane versions).
    std::fill(plane_.master_version.begin(), plane_.master_version.end(),
              0u);
    std::fill(plane_.entry_seen.begin(), plane_.entry_seen.end(), 0u);
    std::fill(transport_.master_writer.begin(),
              transport_.master_writer.end(), kInvalidVertex);
    std::fill(plane_.slot_active.begin(), plane_.slot_active.end(),
              static_cast<std::uint8_t>(0));
    std::fill(plane_.path_active_count.begin(),
              plane_.path_active_count.end(), 0u);
    for (auto &dirty : plane_.partition_dirty)
        dirty.reset();
    std::fill(plane_.partition_active.begin(),
              plane_.partition_active.end(),
              static_cast<std::uint8_t>(0));

    // Drop all device residency: the recovery restores from the host
    // checkpoint, so every partition re-uploads on its next dispatch —
    // and chooseDevice() skips failed devices, so the DAG dispatcher
    // restripes the dead device's share over the survivors.
    transport_.dropResidency();

    // Degrade: re-activate every source slot. Restarting the whole
    // iteration from the checkpoint state re-converges to the same
    // fixed point (the Maiter-style self-correction argument — the
    // per-edge caches rolled back consistently with the masters).
    for (std::uint64_t slot = 0; slot < sync_.numSlots(); ++slot) {
        if (!sync_.isSrcSlot(slot))
            continue;
        plane_.activateSlot<1>(slot, 1);
        plane_.partition_active[sync_.partitionOfSlot(slot)] = 1;
    }

    counters_.add(metrics::Counter::Recoveries);
    if (trace_) {
        trace_->event(metrics::TraceEventType::Recovery, wave,
                      metrics::kTraceNoPartition, platform.makespan(),
                      0.0, dead, recoveries_);
    }
    logInfo("DiGraphEngine: lost device ", dead, " at wave ", wave,
            "; rolled back to the wave-", plane_.ckpt_wave,
            " checkpoint and redistributed over ", platform.numAlive(),
            " surviving device(s)");
    (void)report;
}

DiGraphEngine::InvariantReport
DiGraphEngine::postRunInvariants(const algorithms::Algorithm &algo,
                                 double residual_slack)
{
    InvariantReport rep;
    const double slack =
        residual_slack * std::max(algo.epsilon(), 1e-300);

    auto &storage = plane_.storage;
    const unsigned k = storage.lanes();
    // Name the lane only when there is more than one.
    const auto lane_note = [k](unsigned l) {
        return k > 1 ? detail::formatConcat(" lane ", l) : std::string();
    };
    // (a) Convergence residual: at a fixed point, re-running processEdge
    // against the committed masters must not move any destination enough
    // to re-activate it, in any lane (a batched run solves K problems,
    // not one). Accumulative algorithms legitimately carry sub-epsilon
    // drift per edge (merges below the activation threshold do mutate
    // the master without a version bump), hence the slack multiple.
    for (PathId q = 0; q < storage.numPaths(); ++q) {
        const std::uint64_t lo = storage.pathOffset(q);
        const std::uint64_t hi = storage.pathOffset(q + 1);
        for (std::uint64_t s = lo; s + 1 < hi; ++s) {
            const VertexId src_v = storage.vertexAt(s);
            const VertexId dst_v = storage.vertexAt(s + 1);
            // Path q's edge at slot s sits at E_val index s - q.
            const EdgeId eid = storage.edgeIdAt(s - q);
            const Value weight = g_.edgeWeight(eid);
            const auto out_deg =
                static_cast<std::uint32_t>(g_.outDegree(src_v));
            for (unsigned l = 0; l < k; ++l) {
                Value edge_copy = storage.eVals()[(s - q) * k + l];
                Value dst_copy = storage.vVal(dst_v, l);
                const Value dst_before = dst_copy;
                const bool would_activate =
                    algo.processEdge(storage.vVal(src_v, l), edge_copy,
                                     eid, weight, out_deg, dst_copy);
                if (!would_activate)
                    continue;
                const double residual =
                    (std::isinf(dst_copy) && std::isinf(dst_before))
                        ? 0.0
                        : std::abs(static_cast<double>(dst_copy) -
                                   static_cast<double>(dst_before));
                rep.max_residual = std::max(rep.max_residual, residual);
                if (residual > slack) {
                    ++rep.residual_violations;
                    if (rep.detail.empty()) {
                        rep.detail = detail::formatConcat(
                            "residual: edge ", eid, " (", src_v, " -> ",
                            dst_v, ")", lane_note(l),
                            " would still move its destination by ",
                            residual, " (> ", slack, ")");
                    }
                }
            }
        }
    }
    rep.residual_ok = rep.residual_violations == 0;

    // (b) Master/mirror coherence: no mirror slot may hold an un-pushed
    // value in any lane (the batched sync always leaves loaded ==
    // pushed state).
    for (PathId q = 0; q < storage.numPaths() && rep.coherence_ok;
         ++q) {
        const std::uint64_t lo = storage.pathOffset(q);
        const std::uint64_t hi = storage.pathOffset(q + 1);
        for (std::uint64_t s = lo; s < hi && rep.coherence_ok; ++s) {
            for (unsigned l = 0; l < k; ++l) {
                if (algo.hasPush(storage.sVal(s, l),
                                 storage.loadedVal(s, l))) {
                    rep.coherence_ok = false;
                    if (rep.detail.empty()) {
                        rep.detail = detail::formatConcat(
                            "coherence: slot ", s, " (vertex ",
                            storage.vertexAt(s), ", path ", q, ")",
                            lane_note(l),
                            " holds an un-pushed mirror value");
                    }
                    break;
                }
            }
        }
    }

    // (c) Activation: the incremental bookkeeping must recount cleanly
    // (lane masks and counters included) and the engine must be
    // quiescent — run() only returns when the dispatch loop drained
    // every activation.
    rep.activation_ok = activationBookkeepingConsistent();
    if (rep.activation_ok) {
        const bool slots_quiet = plane_.activeLanes() == 0;
        const bool parts_quiet = std::none_of(
            plane_.partition_active.begin(),
            plane_.partition_active.end(),
            [](std::uint8_t f) { return f != 0; });
        rep.activation_ok = slots_quiet && parts_quiet;
        if (!rep.activation_ok && rep.detail.empty())
            rep.detail = "activation: engine not quiescent after run()";
    } else if (rep.detail.empty()) {
        rep.detail = "activation: bookkeeping recount mismatch";
    }
    return rep;
}

} // namespace digraph::engine
