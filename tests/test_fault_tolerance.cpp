/**
 * @file
 * Fault-tolerant execution: deterministic fault injection, barrier
 * checkpointing, and degrade-and-redistribute recovery.
 *
 * The headline property: a run that loses a device mid-flight must
 * converge to the same fixed point as the fault-free run — bit-identical
 * for monotone algorithms, within the algorithm's result tolerance for
 * accumulative ones — and reproducible bit for bit, and its
 * fault/retry/checkpoint/recovery counters must equal the trace event
 * counts.
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "algorithms/factory.hpp"
#include "engine/digraph_engine.hpp"
#include "gpusim/fault.hpp"
#include "graph/generators.hpp"
#include "metrics/trace.hpp"
#include "test_util.hpp"

namespace digraph {
namespace {

engine::EngineOptions
faultOptions(const std::string &spec, unsigned gpus = 2)
{
    engine::EngineOptions opts;
    opts.platform.num_devices = gpus;
    if (!spec.empty()) {
        std::string err;
        opts.faults = gpusim::FaultPlan::parse(spec, err);
        EXPECT_EQ(err, "") << spec;
    }
    return opts;
}

/** Bitwise report equality (the determinism contract under faults). */
void
expectIdenticalReports(const metrics::RunReport &a,
                       const metrics::RunReport &b,
                       const std::string &label)
{
    ASSERT_EQ(a.final_state.size(), b.final_state.size()) << label;
    for (std::size_t v = 0; v < a.final_state.size(); ++v) {
        EXPECT_EQ(a.final_state[v], b.final_state[v])
            << label << ": vertex " << v;
    }
    EXPECT_EQ(a.edge_processings, b.edge_processings) << label;
    EXPECT_EQ(a.vertex_updates, b.vertex_updates) << label;
    EXPECT_EQ(a.rounds, b.rounds) << label;
    EXPECT_EQ(a.waves, b.waves) << label;
    EXPECT_EQ(a.partition_processings, b.partition_processings) << label;
    EXPECT_EQ(a.host_transfer_bytes, b.host_transfer_bytes) << label;
    EXPECT_EQ(a.ring_transfer_bytes, b.ring_transfer_bytes) << label;
    EXPECT_EQ(a.sim_cycles, b.sim_cycles) << label;
    EXPECT_EQ(a.faults_injected, b.faults_injected) << label;
    EXPECT_EQ(a.transfer_retries, b.transfer_retries) << label;
    EXPECT_EQ(a.checkpoints, b.checkpoints) << label;
    EXPECT_EQ(a.recoveries, b.recoveries) << label;
}

// --- FaultPlan parsing ---

TEST(FaultPlan, ParsesFullSpec)
{
    std::string err;
    const auto plan = gpusim::FaultPlan::parse(
        "seed=7,device=1@50000,xfer=0.01,smx=0.3@20000x16", err);
    ASSERT_EQ(err, "");
    EXPECT_EQ(plan.seed, 7u);
    EXPECT_DOUBLE_EQ(plan.transfer_drop_p, 0.01);
    ASSERT_EQ(plan.device_loss.size(), 1u);
    EXPECT_EQ(plan.device_loss[0].device, 1u);
    EXPECT_DOUBLE_EQ(plan.device_loss[0].at_cycle, 50000.0);
    ASSERT_EQ(plan.smx_stalls.size(), 1u);
    EXPECT_EQ(plan.smx_stalls[0].device, 0u);
    EXPECT_EQ(plan.smx_stalls[0].smx, 3u);
    EXPECT_DOUBLE_EQ(plan.smx_stalls[0].at_cycle, 20000.0);
    EXPECT_DOUBLE_EQ(plan.smx_stalls[0].factor, 16.0);
    EXPECT_FALSE(plan.empty());
}

TEST(FaultPlan, StallFactorDefaultsToEight)
{
    std::string err;
    const auto plan = gpusim::FaultPlan::parse("smx=1.2@100", err);
    ASSERT_EQ(err, "");
    ASSERT_EQ(plan.smx_stalls.size(), 1u);
    EXPECT_DOUBLE_EQ(plan.smx_stalls[0].factor, 8.0);
}

TEST(FaultPlan, RejectsMalformedSpecs)
{
    for (const char *bad :
         {"device", "device=zzz", "device=1", "xfer=lots", "smx=3@5",
          "smx=0.1@2xhuge", "seed=abc", "turbo=1", "device=1@-"}) {
        std::string err;
        (void)gpusim::FaultPlan::parse(bad, err);
        EXPECT_NE(err, "") << "spec '" << bad << "' should be rejected";
    }
}

TEST(FaultPlan, ValidateChecksPlatformRanges)
{
    gpusim::PlatformConfig pc;
    pc.num_devices = 2;

    std::string err;
    auto plan = gpusim::FaultPlan::parse("device=5@100", err);
    ASSERT_EQ(err, "");
    EXPECT_NE(plan.validate(pc), "");

    plan = gpusim::FaultPlan::parse("device=1@100", err);
    ASSERT_EQ(err, "");
    EXPECT_EQ(plan.validate(pc), "");

    plan = gpusim::FaultPlan::parse(
        "smx=0." + std::to_string(pc.smx_per_device) + "@5", err);
    ASSERT_EQ(err, "");
    EXPECT_NE(plan.validate(pc), "");

    plan.smx_stalls.clear();
    plan.transfer_drop_p = 1.5;
    EXPECT_NE(plan.validate(pc), "");
}

// --- FaultInjector determinism ---

TEST(FaultInjector, CoinStreamIsDeterministicAndResettable)
{
    gpusim::FaultPlan plan;
    plan.seed = 42;
    plan.transfer_drop_p = 0.5;

    const auto sequence = [](gpusim::FaultInjector &inj) {
        std::vector<unsigned> attempts;
        for (int i = 0; i < 64; ++i)
            attempts.push_back(inj.attemptTransfer(8, 100.0).attempts);
        return attempts;
    };

    gpusim::FaultInjector a(plan);
    gpusim::FaultInjector b(plan);
    const auto seq_a = sequence(a);
    EXPECT_EQ(seq_a, sequence(b));
    a.reset();
    EXPECT_EQ(seq_a, sequence(a));

    plan.seed = 43;
    gpusim::FaultInjector c(plan);
    EXPECT_NE(seq_a, sequence(c)); // different stream, same plan shape
}

TEST(FaultInjector, DiscreteFaultsFireExactlyOnce)
{
    gpusim::FaultPlan plan;
    plan.device_loss.push_back({1, 500.0});
    gpusim::FaultInjector inj(plan);

    std::vector<DeviceId> due;
    inj.drainDueDeviceLoss(100.0, due);
    EXPECT_TRUE(due.empty()); // not due yet
    inj.drainDueDeviceLoss(600.0, due);
    ASSERT_EQ(due.size(), 1u);
    EXPECT_EQ(due[0], 1u);
    inj.drainDueDeviceLoss(700.0, due);
    EXPECT_EQ(due.size(), 1u); // fired once, stays fired
    inj.reset();
    inj.drainDueDeviceLoss(700.0, due);
    EXPECT_EQ(due.size(), 2u); // reset re-arms
}

TEST(FaultInjector, ExhaustedRetryBudgetIsReportedNotSilent)
{
    gpusim::FaultPlan plan;
    plan.transfer_drop_p = 1.0;
    gpusim::FaultInjector inj(plan);
    const auto outcome = inj.attemptTransfer(3, 100.0);
    EXPECT_FALSE(outcome.delivered);
    EXPECT_EQ(outcome.attempts, 4u);
}

// --- device loss: recovery converges to the fault-free fixed point ---

TEST(FaultTolerance, DeviceLossConvergesToFaultFreeResult)
{
    const auto g = graph::makeDataset(graph::Dataset::dblp, 0.2);
    // Monotone algorithms restart to a bit-identical fixed point;
    // accumulative ones re-converge within their result tolerance.
    const std::vector<std::pair<std::string, bool>> algos = {
        {"sssp", true},     {"wcc", true},        {"kcore", true},
        {"pagerank", false}, {"adsorption", false}};

    for (const auto &[name, bitwise] : algos) {
        const auto algo = algorithms::makeAlgorithm(name, g);

        engine::DiGraphEngine clean(g, faultOptions(""));
        const auto want = clean.run(*algo);
        ASSERT_GT(want.sim_cycles, 0.0) << name;

        // Kill device 1 at ~40% of the fault-free makespan — far enough
        // in that checkpoints and real work exist, early enough that
        // plenty of work remains.
        const double kill_at = 0.4 * want.sim_cycles;
        auto opts = faultOptions("seed=3,device=1@" +
                                 std::to_string(kill_at));
        opts.verify_invariants = true; // panic inside run() on violation
        engine::DiGraphEngine faulted(g, opts);
        const auto got = faulted.run(*algo);

        EXPECT_GE(got.faults_injected, 1u) << name;
        EXPECT_EQ(got.recoveries, 1u) << name;
        EXPECT_GE(got.checkpoints, 1u) << name;

        if (bitwise) {
            for (std::size_t v = 0; v < want.final_state.size(); ++v) {
                ASSERT_EQ(got.final_state[v], want.final_state[v])
                    << name << ": vertex " << v;
            }
        } else {
            test::expectStatesNear(got.final_state, want.final_state,
                                   algo->resultTolerance(),
                                   name + "/device-loss");
        }

        const auto inv = faulted.postRunInvariants(*algo);
        EXPECT_TRUE(inv.ok())
            << name << ": " << inv.detail
            << " (max residual " << inv.max_residual << ")";
    }
}

TEST(FaultTolerance, FaultedRunsAgreeAcrossFreshEngines)
{
    const auto g = graph::makeDataset(graph::Dataset::dblp, 0.2);
    for (const char *name : {"sssp", "pagerank"}) {
        const auto algo = algorithms::makeAlgorithm(name, g);
        const std::string spec = "seed=11,device=1@1000,xfer=0.02";

        engine::DiGraphEngine first(g, faultOptions(spec));
        const auto base = first.run(*algo);
        EXPECT_GE(base.recoveries, 1u) << name;

        engine::DiGraphEngine second(g, faultOptions(spec));
        expectIdenticalReports(base, second.run(*algo), name);
    }
}

TEST(FaultTolerance, DeviceLossRerunIsReproducible)
{
    const auto g = graph::makeDataset(graph::Dataset::dblp, 0.2);
    const auto algo = algorithms::makeAlgorithm("sssp", g);
    const std::string spec = "seed=5,device=0@2000,xfer=0.01";

    engine::DiGraphEngine eng(g, faultOptions(spec));
    const auto first = eng.run(*algo);
    EXPECT_GE(first.recoveries, 1u);
    // Same engine, rerun: the injector and the platform rewind.
    const auto second = eng.run(*algo);
    expectIdenticalReports(first, second, "rerun");
}

// --- transfer drops and SMX stalls perturb time, never results ---

TEST(FaultTolerance, TransferRetriesDelayButDoNotChangeResults)
{
    const auto g = graph::makeDataset(graph::Dataset::dblp, 0.2);
    const auto algo = algorithms::makeAlgorithm("sssp", g);

    engine::DiGraphEngine clean(g, faultOptions(""));
    const auto want = clean.run(*algo);

    auto opts = faultOptions("seed=9,xfer=0.2");
    opts.verify_invariants = true;
    engine::DiGraphEngine dropped(g, opts);
    const auto got = dropped.run(*algo);

    EXPECT_GT(got.transfer_retries, 0u);
    EXPECT_EQ(got.recoveries, 0u);
    EXPECT_GE(got.sim_cycles, want.sim_cycles); // backoff only adds time
    for (std::size_t v = 0; v < want.final_state.size(); ++v) {
        ASSERT_EQ(got.final_state[v], want.final_state[v])
            << "vertex " << v;
    }
}

TEST(FaultTolerance, SmxStallSlowsTheClockButNotTheAnswer)
{
    const auto g = graph::makeDataset(graph::Dataset::dblp, 0.2);
    for (const char *name : {"sssp", "pagerank"}) {
        const auto algo = algorithms::makeAlgorithm(name, g);

        engine::DiGraphEngine clean(g, faultOptions(""));
        const auto want = clean.run(*algo);

        engine::DiGraphEngine stalled(
            g, faultOptions("smx=0.0@500x16"));
        const auto got = stalled.run(*algo);

        EXPECT_EQ(got.faults_injected, 1u) << name;
        EXPECT_GT(got.sim_cycles, want.sim_cycles) << name;
        // Dispatch decisions never read the clocks, so a throttled SMX
        // cannot change what is computed — only when.
        for (std::size_t v = 0; v < want.final_state.size(); ++v) {
            ASSERT_EQ(got.final_state[v], want.final_state[v])
                << name << ": vertex " << v;
        }
    }
}

// --- observability: counters must equal trace event counts ---

TEST(FaultTolerance, CountersMatchTraceEventCounts)
{
    const auto g = graph::makeDataset(graph::Dataset::dblp, 0.2);
    const auto algo = algorithms::makeAlgorithm("sssp", g);

    metrics::TraceSink sink;
    auto opts = faultOptions("seed=3,device=1@1000,xfer=0.05");
    opts.trace = &sink;
    engine::DiGraphEngine eng(g, opts);
    const auto report = eng.run(*algo);

    std::uint64_t injected = 0, retries = 0, checkpoints = 0,
                  recoveries = 0;
    for (const auto &ev : sink.events()) {
        switch (ev.type) {
          case metrics::TraceEventType::FaultInjected: ++injected; break;
          case metrics::TraceEventType::TransferRetry: ++retries; break;
          case metrics::TraceEventType::Checkpoint: ++checkpoints; break;
          case metrics::TraceEventType::Recovery: ++recoveries; break;
          default: break;
        }
    }
    EXPECT_GE(report.recoveries, 1u);
    EXPECT_GT(report.transfer_retries, 0u);
    EXPECT_EQ(report.faults_injected, injected);
    EXPECT_EQ(report.transfer_retries, retries);
    EXPECT_EQ(report.checkpoints, checkpoints);
    EXPECT_EQ(report.recoveries, recoveries);
}

TEST(FaultTolerance, FaultFreeRunsPayNoFaultCost)
{
    const auto g = graph::makeChain(64, 2.0);
    const auto algo = algorithms::makeAlgorithm("sssp", g);
    engine::DiGraphEngine eng(g, faultOptions(""));
    const auto report = eng.run(*algo);
    EXPECT_EQ(report.faults_injected, 0u);
    EXPECT_EQ(report.transfer_retries, 0u);
    EXPECT_EQ(report.checkpoints, 0u);
    EXPECT_EQ(report.recoveries, 0u);
}

// --- the post-run invariant checker itself ---

TEST(FaultTolerance, InvariantCheckerAcceptsFaultFreeRuns)
{
    for (auto &ng : test::testGraphs()) {
        for (const char *name : {"sssp", "wcc", "pagerank"}) {
            const auto algo = algorithms::makeAlgorithm(name, ng.graph);
            engine::DiGraphEngine eng(ng.graph, faultOptions(""));
            (void)eng.run(*algo);
            const auto inv = eng.postRunInvariants(*algo);
            EXPECT_TRUE(inv.ok())
                << ng.name << "/" << name << ": " << inv.detail;
        }
    }
}

// --- hard aborts ---

TEST(FaultToleranceDeath, ExhaustedRecoveryBudgetAborts)
{
    const auto g = graph::makeDataset(graph::Dataset::dblp, 0.2);
    const auto algo = algorithms::makeAlgorithm("sssp", g);
    auto opts = faultOptions("device=1@500");
    opts.max_recoveries = 0;
    EXPECT_EXIT(
        {
            engine::DiGraphEngine eng(g, opts);
            eng.run(*algo);
        },
        ::testing::ExitedWithCode(1), "recovery budget");
}

TEST(FaultToleranceDeath, LosingTheLastDeviceAborts)
{
    const auto g = graph::makeDataset(graph::Dataset::dblp, 0.2);
    const auto algo = algorithms::makeAlgorithm("sssp", g);
    const auto opts = faultOptions("device=0@500", /*gpus=*/1);
    EXPECT_EXIT(
        {
            engine::DiGraphEngine eng(g, opts);
            eng.run(*algo);
        },
        ::testing::ExitedWithCode(1), "no device survives");
}

TEST(FaultToleranceDeath, PermanentTransferFailureAborts)
{
    const auto g = graph::makeDataset(graph::Dataset::dblp, 0.2);
    const auto algo = algorithms::makeAlgorithm("sssp", g);
    const auto opts = faultOptions("xfer=1.0");
    EXPECT_EXIT(
        {
            engine::DiGraphEngine eng(g, opts);
            eng.run(*algo);
        },
        ::testing::ExitedWithCode(1), "permanently failed");
}

} // namespace
} // namespace digraph
