#include "baselines/sequential.hpp"

#include <algorithm>
#include <deque>
#include <numeric>

#include "baselines/baseline_options.hpp"
#include "common/timer.hpp"
#include "engine/convergence.hpp"
#include "graph/scc.hpp"
#include "graph/traversal.hpp"
#include "metrics/counter_registry.hpp"

namespace digraph::baselines {

double
SequentialResult::singleUpdateFraction() const
{
    if (updates_per_vertex.empty())
        return 0.0;
    const auto once = std::count(updates_per_vertex.begin(),
                                 updates_per_vertex.end(), 1u);
    return static_cast<double>(once) /
           static_cast<double>(updates_per_vertex.size());
}

namespace {

/** Export counters and final state into the result's RunReport, the
 *  same way the simulated engines end a run. */
void
finishReport(SequentialResult &result, const std::string &system,
             const algorithms::Algorithm &algo,
             metrics::CounterRegistry &counters, double wall_seconds,
             metrics::TraceSink *trace)
{
    result.edge_processings =
        counters.get(metrics::Counter::EdgeProcessings);
    result.vertex_updates = counters.get(metrics::Counter::VertexUpdates);
    result.rounds = counters.get(metrics::Counter::Rounds);
    counters.set(metrics::Counter::UsedVertices,
                 counters.get(metrics::Counter::VertexUpdates));
    result.report.system = system;
    result.report.algorithm = algo.name();
    counters.exportTo(result.report);
    result.report.final_state = result.state;
    result.report.wall_seconds = wall_seconds;
    if (trace)
        trace->setCounters(counters);
}

/** Process all out-edges of @p v; activate changed targets via @p sink. */
template <typename Activate>
std::uint64_t
processVertex(const graph::DirectedGraph &g,
              const algorithms::Algorithm &algo, VertexId v,
              std::vector<Value> &state, std::vector<Value> &edge_state,
              Activate &&activate)
{
    const auto nbrs = g.outNeighbors(v);
    const auto out_deg = static_cast<std::uint32_t>(nbrs.size());
    for (std::size_t k = 0; k < nbrs.size(); ++k) {
        const EdgeId e = g.outEdgeId(v, k);
        const VertexId w = nbrs[k];
        if (algo.processEdge(state[v], edge_state[e], e, g.edgeWeight(e),
                             out_deg, state[w])) {
            activate(w);
        }
    }
    return nbrs.size();
}

} // namespace

SequentialResult
runSequential(const graph::DirectedGraph &g,
              const algorithms::Algorithm &algo, metrics::TraceSink *trace)
{
    WallTimer wall;
    SequentialResult result;
    FlatState state = initialState(g, algo);
    result.updates_per_vertex.assign(g.numVertices(), 0);

    std::deque<VertexId> worklist;
    std::vector<std::uint8_t> queued(g.numVertices(), 0);
    for (VertexId v = 0; v < g.numVertices(); ++v) {
        if (algo.initActive(g, v)) {
            worklist.push_back(v);
            queued[v] = 1;
        }
    }

    metrics::CounterRegistry counters;
    while (!worklist.empty()) {
        const VertexId v = worklist.front();
        worklist.pop_front();
        queued[v] = 0;
        counters.add(metrics::Counter::VertexUpdates);
        ++result.updates_per_vertex[v];
        counters.add(
            metrics::Counter::EdgeProcessings,
            processVertex(g, algo, v, state.vertex, state.edge,
                          [&](VertexId w) {
                              if (!queued[w]) {
                                  queued[w] = 1;
                                  worklist.push_back(w);
                              }
                          }));
    }
    result.state = std::move(state.vertex);
    finishReport(result, "sequential", algo, counters, wall.seconds(),
                 trace);
    return result;
}

SequentialResult
runTopological(const graph::DirectedGraph &g,
               const algorithms::Algorithm &algo, metrics::TraceSink *trace)
{
    WallTimer wall;
    SequentialResult result;
    FlatState state = initialState(g, algo);
    result.updates_per_vertex.assign(g.numVertices(), 0);

    // Vertex order: topological over the SCC condensation, vertices of one
    // SCC kept adjacent (Tarjan emits components in reverse topological
    // order, so sort descending by component id... then re-rank by the
    // condensation's layer for robustness).
    const auto scc = graph::computeScc(g);
    const auto condensed = graph::condense(g, scc);
    const auto order_of_scc = graph::topologicalOrder(condensed);
    std::vector<std::uint32_t> rank(scc.num_components, 0);
    for (std::size_t i = 0; i < order_of_scc.size(); ++i)
        rank[order_of_scc[i]] = static_cast<std::uint32_t>(i);

    std::vector<VertexId> order(g.numVertices());
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(),
                     [&](VertexId a, VertexId b) {
                         return rank[scc.component[a]] <
                                rank[scc.component[b]];
                     });

    // Process SCC by SCC along the condensation's topological order,
    // iterating each SCC to convergence before moving on (Observation 2:
    // a vertex is handled only after all its precursors converged).
    // Vertices outside any cycle are then updated exactly once.
    std::vector<std::uint8_t> active(g.numVertices(), 1);
    metrics::CounterRegistry counters;
    std::size_t begin = 0;
    while (begin < order.size()) {
        std::size_t end = begin;
        const SccId comp = scc.component[order[begin]];
        while (end < order.size() &&
               scc.component[order[end]] == comp) {
            ++end;
        }
        bool any = true;
        while (any) {
            any = false;
            counters.add(metrics::Counter::Rounds);
            for (std::size_t i = begin; i < end; ++i) {
                const VertexId v = order[i];
                if (!active[v])
                    continue;
                active[v] = 0;
                counters.add(metrics::Counter::VertexUpdates);
                ++result.updates_per_vertex[v];
                counters.add(
                    metrics::Counter::EdgeProcessings,
                    processVertex(g, algo, v, state.vertex, state.edge,
                                  [&](VertexId w) { active[w] = 1; }));
            }
            any = engine::anyActiveAmong(active, order, begin, end);
        }
        begin = end;
    }
    result.state = std::move(state.vertex);
    finishReport(result, "sequential-topo", algo, counters,
                 wall.seconds(), trace);
    return result;
}

} // namespace digraph::baselines
