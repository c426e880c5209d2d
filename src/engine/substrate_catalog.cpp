#include "engine/substrate_catalog.hpp"

#include <algorithm>
#include <thread>

#include "common/timer.hpp"
#include "metrics/trace.hpp"
#include "storage/durable_store.hpp"

namespace digraph::engine {

/**
 * One epoch of the chain. Shared between the catalog's list and every
 * Pin on the epoch; `pins`/`retired` are guarded by the catalog's
 * mutex_, the snapshot fields (graph/substrate/ids) are immutable after
 * commit — Pins read them lock-free.
 */
struct EpochState
{
    std::uint64_t id = 0;
    std::uint64_t parent = 0;      ///< parent epoch id (0 = root)
    std::uint64_t store_version = 0;
    std::shared_ptr<const graph::DirectedGraph> graph;
    std::shared_ptr<const EngineSubstrate> substrate;
    std::size_t pins = 0;          ///< in-flight jobs pinning this epoch
    std::uint64_t total_pins = 0;  ///< jobs that ever pinned it
    bool retired = false;
};

// --- Pin -----------------------------------------------------------------

SubstrateCatalog::Pin::Pin(Pin &&other) noexcept
    : catalog_(other.catalog_), state_(std::move(other.state_))
{
    other.catalog_ = nullptr;
}

SubstrateCatalog::Pin &
SubstrateCatalog::Pin::operator=(Pin &&other) noexcept
{
    if (this != &other) {
        release();
        catalog_ = other.catalog_;
        state_ = std::move(other.state_);
        other.catalog_ = nullptr;
    }
    return *this;
}

SubstrateCatalog::Pin::~Pin() { release(); }

std::uint64_t
SubstrateCatalog::Pin::epoch() const
{
    return state_ ? state_->id : 0;
}

std::uint64_t
SubstrateCatalog::Pin::storeVersion() const
{
    return state_ ? state_->store_version : 0;
}

const graph::DirectedGraph &
SubstrateCatalog::Pin::graph() const
{
    return *state_->graph;
}

const std::shared_ptr<const EngineSubstrate> &
SubstrateCatalog::Pin::substrate() const
{
    return state_->substrate;
}

void
SubstrateCatalog::Pin::release()
{
    if (catalog_ && state_)
        catalog_->unpin(state_);
    catalog_ = nullptr;
    state_.reset();
}

// --- construction --------------------------------------------------------

SubstrateCatalog::SubstrateCatalog(graph::DirectedGraph initial,
                                   EngineOptions options,
                                   CatalogOptions policy,
                                   storage::DurableStore *store)
    : options_(std::move(options)), policy_(policy), store_(store)
{
    EngineOptions opts = options_;
    opts.resolvePartitionBudget(initial.numEdges());
    master_pre_ = partition::preprocess(initial, opts.preprocess);

    auto g = std::make_shared<const graph::DirectedGraph>(
        std::move(initial));
    auto state = std::make_shared<EpochState>();
    state->id = 1;
    state->graph = g;
    state->substrate = EngineSubstrate::build(*g, epochPre());
    if (store_) {
        state->store_version = state->substrate->saveTo(*store_, *g);
        if (state->store_version) {
            store_parent_ = state->store_version;
        } else {
            // An unrecoverable chain root: later delta commits could
            // never be replayed, so durability is off for this catalog
            // (restarts fall back to a cold preprocess).
            ++stats_.store_commit_fails;
            store_ = nullptr;
        }
    }
    epochs_.push_back(std::move(state));
    ++stats_.epochs_created;
    ++stats_.epochs_committed;
}

SubstrateCatalog::SubstrateCatalog(
    const graph::DirectedGraph &g,
    std::shared_ptr<const EngineSubstrate> sub, EngineOptions options,
    CatalogOptions policy, storage::DurableStore *store,
    std::uint64_t store_version)
    : options_(std::move(options)), policy_(policy), store_(store)
{
    master_pre_ = sub->pre;
    if (master_pre_.sorted_adjacency) {
        // appendPreprocess mutates the adjacency cache in place; the
        // caller keeps using its substrate, so the master copy must own
        // a private one.
        master_pre_.sorted_adjacency =
            std::make_shared<partition::SortedAdjacency>(
                *master_pre_.sorted_adjacency);
    }

    auto state = std::make_shared<EpochState>();
    state->id = 1;
    state->graph = std::shared_ptr<const graph::DirectedGraph>(
        &g, [](const graph::DirectedGraph *) {});
    state->substrate = std::move(sub);
    if (store_) {
        state->store_version =
            store_version ? store_version
                          : state->substrate->saveTo(*store_, g);
        if (state->store_version) {
            store_parent_ = state->store_version;
        } else {
            ++stats_.store_commit_fails;
            store_ = nullptr;
        }
    }
    epochs_.push_back(std::move(state));
    ++stats_.epochs_created;
    ++stats_.epochs_committed;
}

std::unique_ptr<SubstrateCatalog>
SubstrateCatalog::openFrom(storage::DurableStore &store,
                           graph::DirectedGraph base,
                           EngineOptions options, CatalogOptions policy)
{
    storage::RecoveredChain chain = store.recoverTopologyChain(base);
    if (chain.version == 0)
        return nullptr;

    // The recovered epoch's graph: the base for a root version, the
    // delta-replay result otherwise.
    std::shared_ptr<const graph::DirectedGraph> g =
        chain.graph
            ? std::shared_ptr<const graph::DirectedGraph>(chain.graph)
            : std::make_shared<const graph::DirectedGraph>(
                  std::move(base));
    auto pre = store.loadTopology(chain.version, *g);
    if (!pre)
        return nullptr;

    std::unique_ptr<SubstrateCatalog> cat(new SubstrateCatalog());
    cat->options_ = std::move(options);
    cat->policy_ = policy;
    cat->store_ = &store;
    cat->store_parent_ = chain.version;
    cat->master_pre_ = std::move(*pre);

    auto state = std::make_shared<EpochState>();
    state->id = 1;
    state->store_version = chain.version;
    state->graph = g;
    state->substrate = EngineSubstrate::build(*g, cat->epochPre());
    cat->epochs_.push_back(std::move(state));
    ++cat->stats_.epochs_created;
    ++cat->stats_.epochs_committed;
    return cat;
}

// --- queries -------------------------------------------------------------

SubstrateCatalog::Pin
SubstrateCatalog::pin()
{
    std::lock_guard<std::mutex> lock(mutex_);
    const std::shared_ptr<EpochState> &e = epochs_.back();
    ++e->pins;
    ++e->total_pins;
    Pin p;
    p.catalog_ = this;
    p.state_ = e;
    return p;
}

std::uint64_t
SubstrateCatalog::currentEpoch() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return epochs_.back()->id;
}

std::uint64_t
SubstrateCatalog::currentStoreVersion() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return epochs_.back()->store_version;
}

const graph::DirectedGraph &
SubstrateCatalog::currentGraph() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return *epochs_.back()->graph;
}

std::shared_ptr<const EngineSubstrate>
SubstrateCatalog::currentSubstrate() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return epochs_.back()->substrate;
}

CatalogStats
SubstrateCatalog::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

std::size_t
SubstrateCatalog::liveEpochs() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::size_t live = 0;
    for (const auto &e : epochs_)
        if (!e->retired)
            ++live;
    return live;
}

// --- appends -------------------------------------------------------------

partition::Preprocessed
SubstrateCatalog::epochPre() const
{
    partition::Preprocessed copy = master_pre_;
    // The adjacency cache is the master copy's mutable scratch; sharing
    // it would let a later append() race with readers of the published
    // substrate (memoryBytes() walks the rows). Epochs don't need it.
    copy.sorted_adjacency = nullptr;
    return copy;
}

SubstrateCatalog::AppendResult
SubstrateCatalog::append(const std::vector<graph::Edge> &batch)
{
    std::lock_guard<std::mutex> alock(append_mutex_);

    std::shared_ptr<const graph::DirectedGraph> cur;
    std::uint64_t cur_epoch = 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        cur = epochs_.back()->graph;
        cur_epoch = epochs_.back()->id;
    }

    AppendResult out;
    out.epoch = cur_epoch;

    WallTimer timer;
    graph::GraphDelta delta = graph::GraphBuilder::append(*cur, batch);
    out.graph_seconds = timer.seconds();
    out.accepted_edges = delta.fresh.size();
    if (delta.fresh.empty())
        return out; // fully deduplicated batch: the epoch stands

    auto g =
        std::make_shared<const graph::DirectedGraph>(std::move(delta.graph));
    out.fresh = delta.fresh;
    out.fresh_ids = delta.fresh_ids;
    out.old_num_vertices = delta.old_num_vertices;

    appended_since_full_ += delta.fresh.size();
    const bool too_dirty =
        policy_.full_rebuild_fraction > 0.0 &&
        static_cast<double>(appended_since_full_) >
            policy_.full_rebuild_fraction *
                static_cast<double>(g->numEdges());

    EngineOptions opts = options_;
    opts.resolvePartitionBudget(g->numEdges());

    timer.reset();
    if (policy_.incremental && !too_dirty) {
        partition::PreprocessOptions popts = opts.preprocess;
        if (popts.decompose.num_threads <= 1) {
            // Decompose the batch on every hardware thread
            // (bit-identical across counts: the split is fixed at
            // kAppendSubgraphs, only the workers scale).
            popts.decompose.num_threads =
                std::max(1u, std::thread::hardware_concurrency());
        }
        master_pre_ = partition::appendPreprocess(std::move(master_pre_),
                                                  *g, delta, popts);
        out.incremental = true;
        out.reused_paths = master_pre_.incremental_stats.reused_paths;
        out.new_paths = master_pre_.incremental_stats.new_paths;
    } else {
        // Full pipeline. Inside incremental mode the adjacency cache is
        // patched through the journal and reused; plain full mode is the
        // pre-incremental baseline and reuses nothing.
        std::shared_ptr<partition::SortedAdjacency> cache;
        if (policy_.incremental && master_pre_.sorted_adjacency) {
            master_pre_.sorted_adjacency->applyDelta(*g, delta);
            cache = master_pre_.sorted_adjacency;
        }
        master_pre_ =
            partition::preprocess(*g, opts.preprocess, std::move(cache));
        appended_since_full_ = 0;
    }
    out.preprocess_seconds = timer.seconds();

    timer.reset();
    auto state = std::make_shared<EpochState>();
    state->parent = cur_epoch;
    state->graph = g;
    state->substrate = EngineSubstrate::build(*g, epochPre());
    out.substrate_seconds = timer.seconds();

    if (store_) {
        // The pending delta spans every accepted edge since the last
        // *successful* commit, so the on-disk chain replays correctly
        // even across a failed intermediate commit.
        pending_delta_.insert(pending_delta_.end(), out.fresh.begin(),
                              out.fresh.end());
        const std::uint64_t v = state->substrate->saveTo(
            *store_, *g, store_parent_, &pending_delta_);
        if (v) {
            store_parent_ = v;
            state->store_version = v;
            pending_delta_.clear();
        } else {
            std::lock_guard<std::mutex> lock(mutex_);
            ++stats_.store_commit_fails;
            out.store_failed = true;
        }
        out.store_version = state->store_version;
    }

    out.created = true;
    commitEpoch(state, delta.fresh.size());
    out.epoch = currentEpoch();
    return out;
}

void
SubstrateCatalog::commitEpoch(std::shared_ptr<EpochState> state,
                              std::size_t batch_edges)
{
    std::lock_guard<std::mutex> lock(mutex_);
    state->id = epochs_.back()->id + 1;
    ++stats_.epochs_created;
    if (trace_)
        trace_->event(metrics::TraceEventType::EpochCreate, 0,
                      metrics::kTraceNoPartition, 0.0, 0.0, state->id,
                      batch_edges);
    epochs_.push_back(std::move(state));
    ++stats_.epochs_committed;
    if (trace_)
        trace_->event(metrics::TraceEventType::EpochCommit, 0,
                      metrics::kTraceNoPartition, 0.0, 0.0,
                      epochs_.back()->id, epochs_.back()->store_version);
    retireDrainedLocked();
}

void
SubstrateCatalog::unpin(const std::shared_ptr<EpochState> &state)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (state->pins > 0)
        --state->pins;
    retireDrainedLocked();
}

void
SubstrateCatalog::retireDrainedLocked()
{
    // Every epoch but the newest is superseded; once its last Pin drops
    // the snapshot memory goes. The newest never retires — it is what
    // pin() hands out.
    for (std::size_t i = 0; i + 1 < epochs_.size(); ++i) {
        EpochState &e = *epochs_[i];
        if (e.retired || e.pins > 0)
            continue;
        e.retired = true;
        e.substrate.reset();
        e.graph.reset();
        ++stats_.epochs_retired;
        if (trace_)
            trace_->event(metrics::TraceEventType::EpochRetire, 0,
                          metrics::kTraceNoPartition, 0.0, 0.0, e.id,
                          e.total_pins);
    }
}

} // namespace digraph::engine
