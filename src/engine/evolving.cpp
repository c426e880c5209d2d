#include "engine/evolving.hpp"

#include <algorithm>

#include "common/timer.hpp"

namespace digraph::engine {

EvolvingEngine::EvolvingEngine(graph::DirectedGraph initial,
                               EngineOptions options,
                               CatalogOptions evolve)
    : options_(std::move(options)),
      catalog_(std::make_unique<SubstrateCatalog>(std::move(initial),
                                                  options_, evolve))
{
    repinEngine();
}

double
EvolvingEngine::repinEngine()
{
    pin_.release();
    pin_ = catalog_->pin();
    EngineOptions opts = options_;
    opts.resolvePartitionBudget(pin_.graph().numEdges());
    WallTimer timer;
    engine_ = std::make_unique<DiGraphEngine>(pin_.graph(),
                                              pin_.substrate(), opts);
    return timer.seconds();
}

EvolvingStepReport
EvolvingEngine::run(const algorithms::Algorithm &algo)
{
    EvolvingStepReport step;
    step.run = engine_->run(algo);
    step.preprocess_seconds =
        catalog_->masterPreprocessed().timings.total();
    last_state_[algo.name()] = step.run.final_state;
    return step;
}

EvolvingStepReport
EvolvingEngine::insertAndRun(const algorithms::Algorithm &algo,
                             const std::vector<graph::Edge> &new_edges)
{
    EvolvingStepReport step;

    SubstrateCatalog::AppendResult res = catalog_->append(new_edges);
    ++batches_;
    step.inserted_edges = res.accepted_edges;
    step.graph_seconds = res.graph_seconds;
    step.preprocess_seconds = res.preprocess_seconds;
    step.incremental = res.incremental;
    step.reused_paths = res.reused_paths;
    step.new_paths = res.new_paths;
    if (res.created) {
        // The substrate indexes were built inside the append; this
        // engine only adds its own value plane and transport on top.
        step.engine_seconds = res.substrate_seconds + repinEngine();
    }
    // An empty accepted batch left the epoch (and the engine) standing.

    const graph::DirectedGraph &g = pin_.graph();
    auto it = last_state_.find(algo.name());
    const bool can_warm = algo.supportsIncremental() &&
                          it != last_state_.end() &&
                          it->second.size() <= g.numVertices();
    if (can_warm) {
        // Extend the previous fixed point to any newly appearing
        // vertices and activate the insertion endpoints.
        std::vector<Value> state = it->second;
        for (VertexId v = static_cast<VertexId>(state.size());
             v < g.numVertices(); ++v) {
            state.push_back(algo.initVertex(g, v));
        }
        std::vector<VertexId> seeds;
        seeds.reserve(res.fresh.size() * 2);
        for (const graph::Edge &e : res.fresh) {
            seeds.push_back(e.src);
            if (e.dst < res.old_num_vertices)
                seeds.push_back(e.dst);
        }
        std::sort(seeds.begin(), seeds.end());
        seeds.erase(std::unique(seeds.begin(), seeds.end()),
                    seeds.end());

        // Existing edges resume with warm-consistent caches; inserted
        // edges start fresh so their contribution is pushed. Which is
        // which comes straight from the delta journal — O(|batch|)
        // marking instead of per-edge hasEdge probes against a retained
        // copy of the old graph.
        std::vector<std::uint8_t> inserted(g.numEdges(), 0);
        for (const EdgeId e : res.fresh_ids)
            inserted[e] = 1;
        std::vector<Value> edge_state(g.numEdges());
        for (EdgeId e = 0; e < g.numEdges(); ++e) {
            edge_state[e] =
                inserted[e]
                    ? algo.initEdge(g, e)
                    : algo.warmEdgeState(g, e,
                                         state[g.edgeSource(e)]);
        }

        WarmStart warm;
        warm.vertex_state = &state;
        warm.edge_state = &edge_state;
        warm.active_vertices = &seeds;
        step.run = engine_->run(algo, &warm);
        step.warm = true;
    } else {
        step.run = engine_->run(algo);
        step.warm = false;
    }
    last_state_[algo.name()] = step.run.final_state;
    return step;
}

} // namespace digraph::engine
