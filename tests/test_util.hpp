/**
 * @file
 * Shared helpers for the test suites: state comparison against the
 * sequential oracle and a small collection of interesting test graphs.
 */

#pragma once

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "algorithms/algorithm.hpp"
#include "graph/builder.hpp"
#include "graph/digraph.hpp"
#include "graph/generators.hpp"

namespace digraph::test {

/** Assert two state vectors agree within @p tol (inf == inf allowed). */
inline void
expectStatesNear(const std::vector<Value> &got,
                 const std::vector<Value> &want, double tol,
                 const std::string &label)
{
    ASSERT_EQ(got.size(), want.size()) << label;
    for (std::size_t v = 0; v < got.size(); ++v) {
        if (std::isinf(want[v])) {
            EXPECT_TRUE(std::isinf(got[v]))
                << label << ": vertex " << v << " got " << got[v];
        } else {
            // Relative tolerance: threshold-truncated algorithms (e.g.
            // delta PageRank) accumulate error proportional to the state
            // magnitude on hub vertices.
            const double bound = tol * std::max(1.0, std::abs(want[v]));
            EXPECT_NEAR(got[v], want[v], bound)
                << label << ": vertex " << v;
        }
    }
}

/** @p k lane seeds spread over [0, n) in steps of 149 (distinct for
 *  k <= n when n is coprime to 149). */
inline std::vector<VertexId>
laneSeeds(VertexId n, unsigned k)
{
    std::vector<VertexId> seeds;
    for (unsigned l = 0; l < k; ++l)
        seeds.push_back(static_cast<VertexId>(
            (std::uint64_t{l} * 149 + 7) % n));
    return seeds;
}

/** A named test graph. */
struct NamedGraph
{
    std::string name;
    graph::DirectedGraph graph;
};

/** Small but structurally diverse graphs for cross-engine checks. */
inline std::vector<NamedGraph>
testGraphs()
{
    using namespace digraph::graph;
    std::vector<NamedGraph> out;
    out.push_back({"chain64", makeChain(64, 2.0)});
    out.push_back({"cycle50", makeCycle(50, 1.5)});
    out.push_back({"star33", makeStar(33)});
    out.push_back({"tree63", makeBinaryTree(63)});
    out.push_back({"dag", makeRandomDag(200, 900, 7)});
    out.push_back({"grid", makeGrid(12, 12)});

    GeneratorConfig c;
    c.num_vertices = 400;
    c.num_edges = 2400;
    c.seed = 11;
    out.push_back({"random", generate(c)});

    c.forward_bias = 0.9; // DAG-ish
    c.seed = 13;
    out.push_back({"dagish", generate(c)});

    c.forward_bias = 0.5;
    c.locality = 0.9;
    c.locality_window = 6;
    c.seed = 17;
    out.push_back({"longdist", generate(c)});
    return out;
}

} // namespace digraph::test
