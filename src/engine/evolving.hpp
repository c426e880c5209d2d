/**
 * @file
 * Evolving directed graphs — the extension the paper lists as future
 * work ("extend our approach to efficiently support the analysis of
 * evolving directed graph on GPUs", Section 6).
 *
 * Since the live-graph refactor (DESIGN.md §18) the ingestion machinery
 * lives in SubstrateCatalog; EvolvingEngine is a thin single-tenant
 * client: it owns a catalog, keeps one Pin on the newest epoch, runs
 * algorithms over that epoch's shared substrate, and remembers converged
 * states for warm re-runs. A batch of edge insertions triggers an
 * incremental re-run on two levels:
 *
 *  - *Ingestion* is incremental (the catalog's append): the CSR is
 *    extended by a delta-aware GraphBuilder::append (no O(m log m)
 *    re-sort of existing edges) and the path pipeline is extended by
 *    appendPreprocess() — previous paths, DAG-sketch layers and
 *    partition assignments are reused verbatim, only the batch edges
 *    are decomposed, and the degree-sorted adjacency cache is patched
 *    rather than rebuilt. CatalogOptions::incremental = false restores
 *    the pre-incremental full per-batch rebuild (the benchmark
 *    baseline).
 *
 *  - The *algorithm* resumes from the previous fixed point: existing
 *    edges get warm-consistent caches (Algorithm::warmEdgeState) so no
 *    mass is double-counted, and only the insertion endpoints start
 *    active. Edge classification (inserted vs. existing) comes straight
 *    from the append's delta journal — O(|batch|), no O(m) hasEdge
 *    probes, and the pre-append graph is never kept alive. On monotone
 *    and delta-accumulative algorithms this converges to the same fixed
 *    point as a cold run while touching only the affected region.
 *
 * Algorithms whose states can move against the propagation direction
 * under insertions (KCore) report supportsIncremental() == false and
 * fall back to a cold run automatically.
 */

#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/digraph_engine.hpp"
#include "engine/substrate_catalog.hpp"
#include "graph/builder.hpp"

namespace digraph::engine {

/** Report of one evolving-graph step. */
struct EvolvingStepReport
{
    /** The algorithm run report. */
    metrics::RunReport run;
    /** Whether the warm start was used (false = cold fallback). */
    bool warm = false;
    /** Whether this step's structures came from the incremental append
     *  pipeline (false = full pipeline run). */
    bool incremental = false;
    /** Batch edges actually inserted (after dedupe/self-loop/
     *  already-present normalization). */
    std::size_t inserted_edges = 0;
    /** Seconds extending (or rebuilding) the CSR graph. */
    double graph_seconds = 0.0;
    /** Seconds in the preprocessing pipeline (appendPreprocess or full
     *  preprocess). */
    double preprocess_seconds = 0.0;
    /** Seconds materializing the engine over the preprocessed result
     *  (storage arrays + dispatch indexes). */
    double engine_seconds = 0.0;
    /** Paths reused verbatim / freshly decomposed (incremental steps). */
    PathId reused_paths = 0;
    PathId new_paths = 0;

    /** Total ingestion seconds of this step (everything but the run). */
    double
    ingestSeconds() const
    {
        return graph_seconds + preprocess_seconds + engine_seconds;
    }
};

/**
 * Engine wrapper for insert-only evolving directed graphs.
 */
class EvolvingEngine
{
  public:
    /** Take ownership of the initial graph snapshot. @p evolve is the
     *  ingestion policy of the engine's epoch chain. */
    explicit EvolvingEngine(graph::DirectedGraph initial,
                            EngineOptions options = {},
                            CatalogOptions evolve = {});

    /** Current graph snapshot (the pinned epoch's graph). */
    const graph::DirectedGraph &graph() const { return pin_.graph(); }

    /** Run @p algo on the current snapshot (cold), remembering its
     *  result for later warm re-runs. */
    EvolvingStepReport run(const algorithms::Algorithm &algo);

    /**
     * Insert @p new_edges (first-occurrence deduplicated, self-loops and
     * already-existing (src, dst) pairs dropped) and re-run @p algo,
     * warm-started from its previous fixed point when the algorithm
     * supports it.
     */
    EvolvingStepReport insertAndRun(
        const algorithms::Algorithm &algo,
        const std::vector<graph::Edge> &new_edges);

    /** Number of insertion batches applied so far. */
    std::size_t batchesApplied() const { return batches_; }

    /** The current preprocessing structures (introspection / tests). */
    const partition::Preprocessed &preprocessed() const
    {
        return catalog_->masterPreprocessed();
    }

    /** The current inner engine (introspection / tests). */
    const DiGraphEngine &engine() const { return *engine_; }

    /** The epoch chain behind this engine (introspection / tests). */
    const SubstrateCatalog &catalog() const { return *catalog_; }

    /** Ingestion policy in effect. */
    const CatalogOptions &evolvingOptions() const
    {
        return catalog_->policy();
    }

  private:
    /** Re-pin the newest epoch and build a fresh engine over it. */
    double repinEngine();

    EngineOptions options_;
    std::unique_ptr<SubstrateCatalog> catalog_;
    /** Pin on the epoch engine_ runs over (always the newest — this
     *  client is single-tenant, so epochs retire as soon as they are
     *  superseded). */
    SubstrateCatalog::Pin pin_;
    std::unique_ptr<DiGraphEngine> engine_;
    /** Last converged state per algorithm name. */
    std::unordered_map<std::string, std::vector<Value>> last_state_;
    std::size_t batches_ = 0;
};

} // namespace digraph::engine
