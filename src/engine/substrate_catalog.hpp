/**
 * @file
 * Versioned substrate epochs (DESIGN.md §18): the live-graph refactor
 * that lets updates and queries interleave on one graph.
 *
 * A SubstrateCatalog manages a chain of *epochs*. Each epoch is an
 * immutable snapshot — a graph plus the EngineSubstrate built for it —
 * linked to its parent and derived from it incrementally via
 * GraphBuilder::append + partition::appendPreprocess (falling back to a
 * full pipeline rebuild when the appended fraction crosses the
 * structure-quality guard). Epochs are refcounted by in-flight jobs:
 *
 *  - pin() hands out an RAII Pin on the newest *committed* epoch; the
 *    pinned graph and substrate stay alive (and bit-identical to a cold
 *    run over that snapshot) for the Pin's whole lifetime, no matter
 *    how many epochs commit behind it;
 *  - append() derives the next epoch — concurrently with pinned
 *    queries, since it only reads the current graph and the catalog's
 *    private master preprocessing copy — and commits it as the newest;
 *  - a superseded epoch whose last Pin drops is *retired*: the catalog
 *    releases its graph and substrate memory and emits epoch_retire.
 *
 * With a DurableStore attached every committed epoch also lands on disk
 * as a topology version carrying a parent pointer and a delta shard
 * (the accepted batch edges), so the on-disk versions chain exactly
 * like the in-memory epochs; openFrom() replays that lineage after a
 * crash and restarts on the deepest fully committed epoch.
 *
 * Thread safety: pin/unpin and the epoch list are mutex-guarded, so any
 * number of jobs may pin/release concurrently with one append(). Two
 * concurrent append() calls are serialized by an internal mutex (the
 * master preprocessing copy is single-writer).
 */

#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "engine/options.hpp"
#include "engine/substrate.hpp"
#include "graph/builder.hpp"
#include "graph/digraph.hpp"

namespace digraph::metrics {
class TraceSink;
} // namespace digraph::metrics

namespace digraph::storage {
class DurableStore;
} // namespace digraph::storage

namespace digraph::engine {

/** Internal per-epoch bookkeeping (defined in the .cpp). */
struct EpochState;

/** Ingestion-policy knobs of the epoch chain. */
struct CatalogOptions
{
    /** Derive epochs via appendPreprocess (false = full per-batch
     *  rebuild, the pre-incremental baseline). */
    bool incremental = true;
    /** Structure-quality guard: once the edges appended since the last
     *  full pipeline run exceed this fraction of the graph, the next
     *  batch triggers a full re-decomposition. <= 0 disables. */
    double full_rebuild_fraction = 0.25;
};

/** Cumulative epoch-lifecycle activity (tests, CLI reporting). */
struct CatalogStats
{
    std::uint64_t epochs_created = 0;
    std::uint64_t epochs_committed = 0;
    std::uint64_t epochs_retired = 0;
    /** Store commits that failed (the epoch still committed in memory;
     *  its edges stay in the pending delta for the next commit). */
    std::uint64_t store_commit_fails = 0;
};

class SubstrateCatalog
{
  public:
    /** What one append() did (feeds EvolvingStepReport / update-job
     *  RunReports / the live-ingest bench). */
    struct AppendResult
    {
        /** Epoch that is current after the call (== the previous one
         *  when the whole batch was deduplicated away). */
        std::uint64_t epoch = 0;
        /** Whether a new epoch was created (accepted_edges > 0). */
        bool created = false;
        /** Whether it came from appendPreprocess (false = full
         *  rebuild). */
        bool incremental = false;
        /** Batch edges accepted after normalization. */
        std::size_t accepted_edges = 0;
        /** Durable-store version of the new epoch (0 = no store or
         *  commit failed). */
        std::uint64_t store_version = 0;
        /** A store was attached but the commit failed. */
        bool store_failed = false;
        double graph_seconds = 0.0;
        double preprocess_seconds = 0.0;
        double substrate_seconds = 0.0;
        PathId reused_paths = 0;
        PathId new_paths = 0;
        /** The append's delta journal — what a warm start needs. */
        std::vector<graph::Edge> fresh;
        std::vector<EdgeId> fresh_ids;
        VertexId old_num_vertices = 0;
    };

    /**
     * RAII pin on one epoch: graph and substrate are guaranteed alive
     * and immutable until release. Movable, not copyable.
     */
    class Pin
    {
      public:
        Pin() = default;
        Pin(Pin &&other) noexcept;
        Pin &operator=(Pin &&other) noexcept;
        Pin(const Pin &) = delete;
        Pin &operator=(const Pin &) = delete;
        ~Pin();

        bool valid() const { return state_ != nullptr; }
        /** Epoch id (1-based). */
        std::uint64_t epoch() const;
        /** Durable-store version of the epoch (0 = not stored). */
        std::uint64_t storeVersion() const;
        const graph::DirectedGraph &graph() const;
        const std::shared_ptr<const EngineSubstrate> &substrate() const;
        /** Unpin early (idempotent). */
        void release();

      private:
        friend class SubstrateCatalog;
        SubstrateCatalog *catalog_ = nullptr;
        std::shared_ptr<EpochState> state_;
    };

    /**
     * Root the chain on an owned graph: runs the full preprocessing
     * pipeline and commits epoch 1. @p store (optional) receives the
     * root topology version and every later epoch.
     */
    SubstrateCatalog(graph::DirectedGraph initial, EngineOptions options,
                     CatalogOptions policy = {},
                     storage::DurableStore *store = nullptr);

    /**
     * Root the chain on an externally owned graph and a prebuilt
     * substrate (the GraphService constructor path). @p g must outlive
     * the catalog; epochs appended later own their graphs. The master
     * preprocessing copy is deep-copied from @p sub, so later appends
     * never mutate state @p sub shares with the caller.
     * @param store_version the durable-store topology version @p sub is
     *        already committed as (the next epoch chains from it); 0
     *        commits the root version here when @p store is set.
     * @pre sub was built for @p g.
     */
    SubstrateCatalog(const graph::DirectedGraph &g,
                     std::shared_ptr<const EngineSubstrate> sub,
                     EngineOptions options, CatalogOptions policy = {},
                     storage::DurableStore *store = nullptr,
                     std::uint64_t store_version = 0);

    /**
     * Crash restart: recover the deepest fully committed topology epoch
     * from @p store (root fingerprint + delta-replay lineage, see
     * DurableStore::recoverTopologyChain), load its topology, and root
     * the chain there. @p base is the graph the *root* version was
     * committed for. The next epoch committed chains from the recovered
     * version. @return nullptr when the store holds nothing recoverable.
     */
    static std::unique_ptr<SubstrateCatalog>
    openFrom(storage::DurableStore &store, graph::DirectedGraph base,
             EngineOptions options, CatalogOptions policy = {});

    /** Attach (or detach) the sink receiving epoch_create /
     *  epoch_commit / epoch_retire events. */
    void setTrace(metrics::TraceSink *trace) { trace_ = trace; }

    /** Pin the newest committed epoch. */
    Pin pin();

    /** Newest committed epoch id (1-based; epochs never disappear from
     *  this view — retirement only frees superseded snapshots). */
    std::uint64_t currentEpoch() const;

    /** Durable-store version of the newest committed epoch. */
    std::uint64_t currentStoreVersion() const;

    /** The newest committed epoch's graph. The reference is only
     *  guaranteed stable until the next append(); concurrent readers
     *  use pin(). */
    const graph::DirectedGraph &currentGraph() const;

    /** The newest committed epoch's substrate (shared; safe to hold —
     *  but holding it does NOT pin the epoch's graph: jobs use pin()). */
    std::shared_ptr<const EngineSubstrate> currentSubstrate() const;

    /**
     * Derive and commit the next epoch from @p batch (normalized by
     * GraphBuilder::append: self-loops, duplicates and already-present
     * pairs dropped). A fully deduplicated batch is a no-op that keeps
     * the current epoch. Safe to call while queries hold Pins; calls
     * are serialized against each other.
     */
    AppendResult append(const std::vector<graph::Edge> &batch);

    /** Master preprocessing copy (single-threaded introspection only —
     *  do not call concurrently with append()). */
    const partition::Preprocessed &masterPreprocessed() const
    {
        return master_pre_;
    }

    /** Engine options the catalog derives epochs with. */
    const EngineOptions &options() const { return options_; }

    /** Ingestion policy in effect. */
    const CatalogOptions &policy() const { return policy_; }

    /** Lifecycle counters. */
    CatalogStats stats() const;

    /** Epochs currently holding memory (committed minus retired). */
    std::size_t liveEpochs() const;

  private:
    /** openFrom() assembles a catalog field by field. */
    SubstrateCatalog() = default;

    void commitEpoch(std::shared_ptr<EpochState> state,
                     std::size_t batch_edges);
    void unpin(const std::shared_ptr<EpochState> &state);
    void retireDrainedLocked();
    /** Epoch substrates get a copy of the master preprocessing result
     *  without the mutable adjacency cache (master-only scratch). */
    partition::Preprocessed epochPre() const;

    EngineOptions options_;
    CatalogOptions policy_;
    storage::DurableStore *store_ = nullptr;
    metrics::TraceSink *trace_ = nullptr;

    /** Serializes append() callers (master_pre_ / graph chain writer). */
    std::mutex append_mutex_;
    /** Guards epochs_ / pins / stats against concurrent pin/release. */
    mutable std::mutex mutex_;

    /** Master preprocessing structures; appendPreprocess extends them in
     *  place, epoch substrates get cache-stripped copies. */
    partition::Preprocessed master_pre_;
    /** All epochs ever committed (retired ones keep only their id and
     *  counters; graph/substrate refs are dropped on retire). */
    std::vector<std::shared_ptr<struct EpochState>> epochs_;
    /** Edges appended since the last full pipeline run. */
    std::size_t appended_since_full_ = 0;
    /** Durable-store version the next epoch commit chains from. */
    std::uint64_t store_parent_ = 0;
    /** Accepted edges since the last *successful* store commit (a
     *  failed commit keeps them queued so the on-disk lineage never
     *  skips an epoch's edges). */
    std::vector<graph::Edge> pending_delta_;
    CatalogStats stats_;
};

} // namespace digraph::engine
