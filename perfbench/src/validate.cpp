#include "validate.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "algorithms/factory.hpp"
#include "baselines/sequential.hpp"

namespace perfbench {

namespace {

using digraph::Value;
using digraph::VertexId;
using digraph::graph::DirectedGraph;

/** Slack for comparing sums of the same doubles taken in another order. */
bool
nearlyLe(Value a, Value b)
{
    return a <= b + 1e-9 * std::max<Value>(1.0, std::fabs(b));
}

bool
nearlyEq(Value a, Value b)
{
    return nearlyLe(a, b) && nearlyLe(b, a);
}

std::string
checkShortestPaths(const DirectedGraph &g, VertexId source,
                   const std::vector<Value> &dist, bool unit_weights)
{
    if (dist.size() != g.numVertices())
        return "state has the wrong size";
    if (dist[source] != 0.0)
        return "source " + std::to_string(source) + " is not at 0";
    const Value inf = std::numeric_limits<Value>::infinity();
    for (VertexId u = 0; u < g.numVertices(); ++u) {
        if (dist[u] == inf)
            continue;
        const auto out = g.outNeighbors(u);
        for (std::size_t k = 0; k < out.size(); ++k) {
            const Value w =
                unit_weights ? 1.0 : g.edgeWeight(g.outEdgeId(u, k));
            if (!nearlyLe(dist[out[k]], dist[u] + w)) {
                return "edge " + std::to_string(u) + "->" +
                       std::to_string(out[k]) + " still relaxes";
            }
        }
    }
    for (VertexId v = 0; v < g.numVertices(); ++v) {
        if (v == source || dist[v] == inf)
            continue;
        const auto in = g.inNeighbors(v);
        bool tight = false;
        for (std::size_t k = 0; k < in.size() && !tight; ++k) {
            const Value w =
                unit_weights ? 1.0 : g.edgeWeight(g.inEdgeId(v, k));
            tight = nearlyEq(dist[in[k]] + w, dist[v]);
        }
        if (!tight)
            return "vertex " + std::to_string(v) + " has no tight in-edge";
    }
    return "";
}

std::string
checkClose(const DirectedGraph &g, const std::vector<Value> &got,
           const std::vector<Value> &want, Value tolerance)
{
    if (got.size() != want.size())
        return "state has the wrong size";
    // Engines drop pushes below epsilon, and every in-edge of a vertex can
    // hold one such dropped push: the tolerance scales with the in-degree,
    // and is relative for values above 1.
    for (VertexId v = 0; v < got.size(); ++v) {
        const Value scale = std::max<Value>(
            {1.0, std::fabs(want[v]), static_cast<Value>(g.inDegree(v))});
        if (!(std::fabs(got[v] - want[v]) <= tolerance * scale)) {
            std::ostringstream msg;
            msg << "vertex " << v << " is " << got[v] << ", sequential "
                << want[v] << " (tolerance " << tolerance << ")";
            return msg.str();
        }
    }
    return "";
}

} // namespace

const std::vector<Value> &
Validator::oracle(const std::string &spec, const DirectedGraph &g,
                  const std::string &graph_key)
{
    const std::string key = graph_key + "|" + spec;
    if (const auto it = cache_.find(key); it != cache_.end())
        return it->second;
    const auto algo = digraph::algorithms::makeAlgorithmSpec(spec, g);
    return cache_[key] = digraph::baselines::runSequential(g, *algo).state;
}

std::string
Validator::check(const std::string &spec, const DirectedGraph &g,
                 const digraph::metrics::RunReport &report,
                 const std::string &graph_key)
{
    const auto colon = spec.find(':');
    const std::string name = spec.substr(0, colon);
    const std::string param =
        colon == std::string::npos ? "" : spec.substr(colon + 1);
    const auto &state = report.final_state;

    if (name == "sssp" || name == "bfs") {
        const VertexId src =
            param.empty() ? 0 : static_cast<VertexId>(std::stoul(param));
        return checkShortestPaths(g, src, state, name == "bfs");
    }
    // A k-core state is the count of surviving in-neighbours, which
    // peeling in any order ends at: the match is exact, and a fixed point
    // that peeled too much does not pass.
    if (name == "pagerank" || name == "adsorption" || name == "kcore") {
        const auto algo = digraph::algorithms::makeAlgorithmSpec(spec, g);
        return checkClose(g, state, oracle(spec, g, graph_key),
                          algo->resultTolerance());
    }
    return "no validator for '" + name + "'";
}

} // namespace perfbench
