/**
 * @file
 * Wave-kernel registry tests (DESIGN.md §14):
 *
 *  1. every factory algorithm resolves to its registry kernel in every
 *     execution mode, and the registry has its shape: one body per
 *     (policy x VertexAsync-or-path x 1-or-K lanes), so the two path
 *     modes, and every K > 1, share an entry point;
 *  2. the hot loop provably never enters the virtual processing
 *     interface: a PageRank subclass that counts its virtual calls sees
 *     ZERO of them;
 *  3. an algorithm no registry row realizes — an unknown tag, a
 *     subclass opting out via kernelTag() == "", a lane run of a scalar
 *     class — resolves to nothing, and the engine rejects it by name.
 */

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "algorithms/factory.hpp"
#include "algorithms/multi_source.hpp"
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
            engine::EngineOptions opts;
            opts.mode = mode;
            const auto k = engine::resolveWaveKernel(*algo, opts);
            const std::string label =
                name + " mode=" + engine::modeName(mode);
            ASSERT_TRUE(k.has_value()) << label;
            EXPECT_EQ(k->name, name) << label;
            ASSERT_NE(k->compute, nullptr) << label;
            ASSERT_NE(k->policy, nullptr) << label;
        }
    }
}

/** The compute entry point @p algo resolves to under @p mode (nullptr
 *  when it resolves to no row). */
engine::ResolvedKernel::ComputeFn
entryPoint(const algorithms::Algorithm &algo, engine::ExecutionMode mode)
{
    engine::EngineOptions opts;
    opts.mode = mode;
    const auto k = engine::resolveWaveKernel(algo, opts);
    return k ? k->compute : nullptr;
}

TEST(WaveKernels, RegistryShape)
{
    using engine::ExecutionMode;
    const algorithms::PageRank pagerank;
    const algorithms::Ppr ppr1({0});
    const algorithms::Ppr ppr8({0, 1, 2, 3, 4, 5, 6, 7});
    const algorithms::Ppr ppr12({0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11});
    const algorithms::MsBfs msbfs8({0, 1, 2, 3, 4, 5, 6, 7});

    // digraph and digraph-w run one body; digraph-t its own.
    const auto path = entryPoint(pagerank, ExecutionMode::PathAsync);
    ASSERT_NE(path, nullptr);
    EXPECT_EQ(entryPoint(pagerank, ExecutionMode::PathNoSched), path);
    EXPECT_NE(entryPoint(pagerank, ExecutionMode::VertexAsync), path);
    EXPECT_NE(entryPoint(pagerank, ExecutionMode::VertexAsync), nullptr);

    // Every K > 1 runs the one run-time-K body of its policy, in both
    // path modes.
    const auto lanes = entryPoint(ppr8, ExecutionMode::PathAsync);
    ASSERT_NE(lanes, nullptr);
    EXPECT_NE(lanes, path);
    EXPECT_EQ(entryPoint(ppr12, ExecutionMode::PathAsync), lanes);
    EXPECT_EQ(entryPoint(ppr8, ExecutionMode::PathNoSched), lanes);
    EXPECT_EQ(entryPoint(ppr12, ExecutionMode::PathNoSched), lanes);
    EXPECT_NE(entryPoint(msbfs8, ExecutionMode::PathAsync), lanes);

    // A 1-lane lane algorithm shares its policy's scalar body.
    EXPECT_EQ(entryPoint(ppr1, ExecutionMode::PathAsync), path);
    EXPECT_EQ(entryPoint(ppr1, ExecutionMode::PathNoSched), path);

    // Lane rows exist in the path modes only.
    EXPECT_EQ(entryPoint(ppr1, ExecutionMode::VertexAsync), nullptr);
    EXPECT_EQ(entryPoint(ppr8, ExecutionMode::VertexAsync), nullptr);
    EXPECT_EQ(entryPoint(msbfs8, ExecutionMode::VertexAsync), nullptr);
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

/** Semantics-changing-by-declaration subclass: opts out of the
 *  registry, so the engine must refuse to run it. */
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

    CallCounters calls;
    const CountingPageRank counting(calls);
    const auto report = runCounting(g, counting);
    EXPECT_EQ(report.kernel, "pagerank");
    EXPECT_GT(report.edge_processings, 0u);
    EXPECT_EQ(calls.total(), 0u)
        << "specialized hot loop entered the virtual interface: "
        << "processEdge=" << calls.process_edge
        << " mergeMaster=" << calls.merge_master
        << " pushValue=" << calls.push_value
        << " hasPush=" << calls.has_push << " pull=" << calls.pull;
}

TEST(WaveKernelsDeathTest, UnregisteredAlgorithmsAreRejected)
{
    const auto g = testGraph();
    const engine::EngineOptions opts;

    const UnregisteredAlgo unregistered;
    CallCounters calls;
    const OptOutPageRank opted_out(calls);
    EXPECT_FALSE(
        engine::resolveWaveKernel(unregistered, opts).has_value());
    EXPECT_FALSE(
        engine::resolveWaveKernel(opted_out, opts).has_value());
    // Rows are picked by class: a scalar class runs its scalar row and
    // a lane class with the same tag its lane row.
    const algorithms::PageRank scalar;
    const algorithms::Ppr lanes({0, 1, 2, 3});
    const auto scalar_row = engine::resolveWaveKernel(scalar, opts);
    const auto lane_row = engine::resolveWaveKernel(lanes, opts);
    ASSERT_TRUE(scalar_row.has_value());
    ASSERT_TRUE(lane_row.has_value());
    EXPECT_EQ(scalar_row->name, "pagerank");
    EXPECT_EQ(lane_row->name, "pagerank:lanes");

    EXPECT_EXIT((void)runCounting(g, unregistered),
                ::testing::ExitedWithCode(1),
                "algorithm 'unregistered'.*no registered wave kernel");
    EXPECT_EXIT((void)runCounting(g, opted_out),
                ::testing::ExitedWithCode(1),
                "algorithm 'pagerank' \\(kernel tag ''\\)");
}

} // namespace
} // namespace digraph
