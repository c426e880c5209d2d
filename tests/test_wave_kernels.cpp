/**
 * @file
 * Wave-kernel registry tests (DESIGN.md §14):
 *
 *  1. every factory algorithm resolves to a SPECIALIZED kernel for every
 *     (execution mode x trace) combination — no virtual fallback;
 *  2. the specialized hot loop provably never enters the virtual
 *     processing interface: a PageRank subclass that counts its virtual
 *     calls sees ZERO of them, while the same subclass opting out via
 *     kernelTag() == "" routes through the generic kernel and sees many
 *     — with bit-identical results either way.
 */

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "algorithms/factory.hpp"
#include "algorithms/pagerank.hpp"
#include "engine/digraph_engine.hpp"
#include "engine/wave_kernel.hpp"
#include "graph/generators.hpp"

namespace digraph {
namespace {

gpusim::PlatformConfig
smallPlatform()
{
    gpusim::PlatformConfig pc;
    pc.num_devices = 2;
    pc.smx_per_device = 4;
    return pc;
}

graph::DirectedGraph
testGraph()
{
    graph::GeneratorConfig c;
    c.num_vertices = 300;
    c.num_edges = 1800;
    c.seed = 91;
    return graph::generate(c);
}

std::uint64_t
bits(double v)
{
    std::uint64_t u = 0;
    std::memcpy(&u, &v, sizeof(u));
    return u;
}

// ------------------------------------------------- registry coverage

TEST(WaveKernels, EveryAlgorithmResolvesSpecializedEverywhere)
{
    const auto g = testGraph();
    const engine::ExecutionMode modes[] = {
        engine::ExecutionMode::PathAsync,
        engine::ExecutionMode::PathNoSched,
        engine::ExecutionMode::VertexAsync,
    };
    for (const std::string &name : algorithms::allAlgorithmNames()) {
        const auto algo = algorithms::makeAlgorithm(name, g);
        for (const engine::ExecutionMode mode : modes) {
            for (const bool trace_on : {false, true}) {
                engine::EngineOptions opts;
                opts.mode = mode;
                const auto k =
                    engine::resolveWaveKernel(*algo, opts, trace_on);
                const std::string label =
                    name + " mode=" +
                    std::to_string(static_cast<int>(mode)) +
                    " trace=" + std::to_string(trace_on);
                EXPECT_TRUE(k.specialized) << label;
                EXPECT_EQ(k.name, name) << label;
                ASSERT_NE(k.compute, nullptr) << label;
                ASSERT_NE(k.policy, nullptr) << label;
            }
        }
    }
}

/** An algorithm the registry has never heard of (default kernelTag). */
class UnregisteredAlgo : public algorithms::Algorithm
{
  public:
    std::string name() const override { return "unregistered"; }
    Value
    initVertex(const graph::DirectedGraph &, VertexId) const override
    {
        return 0.0;
    }
    bool
    processEdge(Value src, Value &, EdgeId, Value, std::uint32_t,
                Value &dst) const override
    {
        if (src + 1.0 >= dst)
            return false;
        dst = src + 1.0;
        return true;
    }
    bool
    mergeMaster(Value &master, Value pushed) const override
    {
        if (pushed >= master)
            return false;
        master = pushed;
        return true;
    }
    Value pushValue(Value current, Value) const override
    {
        return current;
    }
    bool hasPush(Value current, Value at_load) const override
    {
        return current != at_load;
    }
};

TEST(WaveKernels, UnknownTagFallsBackToGeneric)
{
    const UnregisteredAlgo algo;
    engine::EngineOptions opts;
    const auto k = engine::resolveWaveKernel(algo, opts, false);
    EXPECT_FALSE(k.specialized);
    EXPECT_EQ(k.name, "generic:unregistered");
    ASSERT_NE(k.compute, nullptr);
    EXPECT_EQ(k.policy, nullptr);
}

// ---------------------------------------------- zero-virtual-call proof

struct CallCounters
{
    std::uint64_t process_edge = 0;
    std::uint64_t merge_master = 0;
    std::uint64_t push_value = 0;
    std::uint64_t has_push = 0;
    std::uint64_t pull = 0;

    std::uint64_t
    total() const
    {
        return process_edge + merge_master + push_value + has_push +
               pull;
    }
};

/**
 * Bookkeeping-only subclass: counts every virtual processing call, same
 * semantics as PageRank. Keeps the inherited kernelTag ("pagerank"), so
 * per the registry contract the engine must route around these overrides
 * entirely.
 */
class CountingPageRank : public algorithms::PageRank
{
  public:
    explicit CountingPageRank(CallCounters &c) : counters_(&c) {}

    bool
    processEdge(Value src, Value &edge_state, EdgeId edge_id,
                Value weight, std::uint32_t src_out_degree,
                Value &dst) const override
    {
        ++counters_->process_edge;
        return PageRank::processEdge(src, edge_state, edge_id, weight,
                                     src_out_degree, dst);
    }

    bool
    mergeMaster(Value &master, Value pushed) const override
    {
        ++counters_->merge_master;
        return PageRank::mergeMaster(master, pushed);
    }

    Value
    pushValue(Value current, Value at_load) const override
    {
        ++counters_->push_value;
        return PageRank::pushValue(current, at_load);
    }

    bool
    hasPush(Value current, Value at_load) const override
    {
        ++counters_->has_push;
        return PageRank::hasPush(current, at_load);
    }

    Value
    pull(Value master, Value mirror) const override
    {
        ++counters_->pull;
        return PageRank::pull(master, mirror);
    }

  private:
    CallCounters *counters_;
};

/** Semantics-changing-by-declaration subclass: opts out of the registry,
 *  forcing the generic virtual-dispatch kernel. */
class OptOutPageRank : public CountingPageRank
{
  public:
    using CountingPageRank::CountingPageRank;
    std::string kernelTag() const override { return ""; }
};

metrics::RunReport
runCounting(const graph::DirectedGraph &g,
            const algorithms::Algorithm &algo)
{
    engine::EngineOptions opts;
    opts.platform = smallPlatform();
    engine::DiGraphEngine eng(g, opts);
    return eng.run(algo);
}

TEST(WaveKernels, SpecializedKernelMakesZeroVirtualCalls)
{
    const auto g = testGraph();

    CallCounters specialized_calls;
    const CountingPageRank counting(specialized_calls);
    const auto specialized = runCounting(g, counting);
    EXPECT_TRUE(specialized.kernel_specialized);
    EXPECT_EQ(specialized.kernel, "pagerank");
    EXPECT_EQ(specialized_calls.total(), 0u)
        << "specialized hot loop entered the virtual interface: "
        << "processEdge=" << specialized_calls.process_edge
        << " mergeMaster=" << specialized_calls.merge_master
        << " pushValue=" << specialized_calls.push_value
        << " hasPush=" << specialized_calls.has_push
        << " pull=" << specialized_calls.pull;

    CallCounters generic_calls;
    const OptOutPageRank opted_out(generic_calls);
    const auto generic = runCounting(g, opted_out);
    EXPECT_FALSE(generic.kernel_specialized);
    EXPECT_EQ(generic.kernel, "generic:pagerank");
    EXPECT_GT(generic_calls.process_edge, 0u);
    EXPECT_GT(generic_calls.merge_master, 0u);
    EXPECT_GT(generic_calls.has_push, 0u);

    // Specialization is a pure execution detail: both runs must agree
    // bit for bit, counters included.
    EXPECT_EQ(specialized.waves, generic.waves);
    EXPECT_EQ(specialized.edge_processings, generic.edge_processings);
    EXPECT_EQ(specialized.vertex_updates, generic.vertex_updates);
    EXPECT_EQ(bits(specialized.sim_cycles), bits(generic.sim_cycles));
    ASSERT_EQ(specialized.final_state.size(), generic.final_state.size());
    for (std::size_t v = 0; v < specialized.final_state.size(); ++v) {
        ASSERT_EQ(bits(specialized.final_state[v]),
                  bits(generic.final_state[v]))
            << "vertex " << v;
    }
}

} // namespace
} // namespace digraph
