/**
 * @file
 * GraphService: the long-lived session with two-level job scheduling
 * (DESIGN.md §15). Under test: the pure inter-job policy (priority /
 * quota / budget / co-scheduling decisions of scheduleJobs),
 * service-level priority ordering, per-tenant quota enforcement,
 * admission rejection (byte budget, queue limit, and lane jobs the
 * engine cannot run under the session's options), the core preemption
 * contract — a job parked at wave boundaries converges bit-identical to
 * an uninterrupted dedicated run, per algorithm family — and batch
 * mode: jobs over one
 * shared substrate match dedicated engines bitwise in any submission
 * order, per-job traces exist exactly when requested, and an adopted
 * substrate must match the graph.
 *
 * Timing note: integration tests that need jobs to queue submit a
 * long-running pagerank first; the competing submissions land within
 * microseconds, hundreds of waves before it can finish.
 */

#include <algorithm>
#include <filesystem>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>
#include <unistd.h>

#include "algorithms/factory.hpp"
#include "engine/digraph_engine.hpp"
#include "engine/graph_service.hpp"
#include "engine/job_scheduler.hpp"
#include "gpusim/fault.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "metrics/counter_registry.hpp"
#include "metrics/run_report.hpp"
#include "storage/durable_store.hpp"

namespace digraph {
namespace {

graph::DirectedGraph
testGraph(std::uint64_t seed = 77)
{
    graph::GeneratorConfig c;
    c.num_vertices = 400;
    c.num_edges = 2400;
    c.seed = seed;
    return graph::generate(c);
}

engine::EngineOptions
testOptions()
{
    engine::EngineOptions opts;
    opts.platform.num_devices = 2;
    opts.platform.smx_per_device = 4;
    return opts;
}

void
expectSameReport(const metrics::RunReport &a, const metrics::RunReport &b,
                 const std::string &label)
{
    EXPECT_EQ(a.waves, b.waves) << label;
    EXPECT_EQ(a.edge_processings, b.edge_processings) << label;
    EXPECT_EQ(a.vertex_updates, b.vertex_updates) << label;
    EXPECT_EQ(a.sim_cycles, b.sim_cycles) << label;
    EXPECT_EQ(a.final_state, b.final_state) << label;
}

// ---------------------------------------------------------------------
// Pure policy: scheduleJobs is a deterministic function of an explicit
// snapshot.
// ---------------------------------------------------------------------

engine::SchedJob
waiting(std::uint64_t id, int priority, std::uint64_t seq,
        std::uint32_t tenant = 0)
{
    engine::SchedJob j;
    j.id = id;
    j.priority = priority;
    j.queue_seq = seq;
    j.tenant = tenant;
    return j;
}

TEST(JobScheduler, PriorityThenFifoThenId)
{
    engine::SchedulerPolicy policy;
    policy.session_threads = 2; // two slots
    engine::SchedSnapshot snap;
    snap.waiting = {waiting(0, 0, 0), waiting(1, 5, 2),
                    waiting(2, 5, 1), waiting(3, 1, 3)};
    snap.tenant_started = {0};

    const auto grants = engine::scheduleJobs(policy, snap);
    ASSERT_EQ(grants.size(), 2u);
    EXPECT_EQ(grants[0].id, 2u); // priority 5, older seq
    EXPECT_EQ(grants[1].id, 1u); // priority 5, younger seq
}

TEST(JobScheduler, TenantQuotaSkipsButDoesNotBlockOthers)
{
    engine::SchedulerPolicy policy;
    policy.session_threads = 4;
    policy.tenant_quota = 1;
    engine::SchedSnapshot snap;
    // Tenant 0 already has one started job; its queued job must be
    // passed over in favor of tenant 1 despite lower priority.
    snap.waiting = {waiting(1, 5, 0, /*tenant=*/0),
                    waiting(2, 1, 1, /*tenant=*/1)};
    snap.running_jobs = 1;
    snap.tenant_started = {1, 0};

    const auto grants = engine::scheduleJobs(policy, snap);
    ASSERT_EQ(grants.size(), 1u);
    EXPECT_EQ(grants[0].id, 2u);
}

TEST(JobScheduler, StartedJobsAlwaysReadmissible)
{
    engine::SchedulerPolicy policy;
    policy.session_threads = 1;
    policy.state_budget_bytes = 100;
    policy.tenant_quota = 1;
    engine::SchedSnapshot snap;
    // A parked job: bytes charged, tenant counted — quota and budget
    // are both "exhausted" by the job itself, yet it must re-enter
    // (otherwise parking would deadlock).
    auto parked = waiting(0, 0, 0);
    parked.started = true;
    parked.state_bytes = 100;
    snap.waiting = {parked};
    snap.charged_bytes = 100;
    snap.tenant_started = {1};

    const auto grants = engine::scheduleJobs(policy, snap);
    ASSERT_EQ(grants.size(), 1u);
    EXPECT_EQ(grants[0].id, 0u);
}

TEST(JobScheduler, ByteBudgetBlocksUnstartedJobs)
{
    engine::SchedulerPolicy policy;
    policy.session_threads = 2;
    policy.state_budget_bytes = 150;
    engine::SchedSnapshot snap;
    auto a = waiting(0, 0, 0);
    a.state_bytes = 100;
    auto b = waiting(1, 0, 1);
    b.state_bytes = 100;
    snap.waiting = {a, b};
    snap.tenant_started = {0};

    // Only one fits: 100 + 100 > 150.
    const auto grants = engine::scheduleJobs(policy, snap);
    ASSERT_EQ(grants.size(), 1u);
    EXPECT_EQ(grants[0].id, 0u);
}

TEST(JobScheduler, CoSchedulePrefersOverlappingWorklist)
{
    engine::SchedulerPolicy policy;
    policy.session_threads = 4;
    engine::SchedSnapshot snap;
    const std::vector<std::uint8_t> running_wl = {1, 1, 0, 0};
    const std::vector<std::uint8_t> disjoint = {0, 0, 1, 1};
    const std::vector<std::uint8_t> overlapping = {1, 1, 0, 0};
    auto a = waiting(0, 0, 0);
    a.started = true;
    a.worklist = &disjoint;
    auto b = waiting(1, 0, 1);
    b.started = true;
    b.worklist = &overlapping;
    snap.waiting = {a, b};
    snap.running_worklists = {&running_wl};
    snap.running_jobs = 1;
    snap.tenant_started = {0};

    auto grants = engine::scheduleJobs(policy, snap);
    ASSERT_EQ(grants.size(), 2u);
    EXPECT_EQ(grants[0].id, 1u); // overlap beats FIFO rank
    EXPECT_TRUE(grants[0].co_scheduled);

    // Same snapshot with co-scheduling off: plain rank order.
    policy.co_schedule = false;
    grants = engine::scheduleJobs(policy, snap);
    ASSERT_EQ(grants.size(), 2u);
    EXPECT_EQ(grants[0].id, 0u);
}

// ---------------------------------------------------------------------
// Service integration.
// ---------------------------------------------------------------------

TEST(GraphService, PriorityOrderUnderPreemption)
{
    const auto g = testGraph();
    engine::ServiceConfig config;
    config.session_threads = 1; // one slot: total order of grants
    config.quantum_waves = 1;   // park at every wave boundary
    engine::GraphService service(g, testOptions(), config);

    // The lowest-priority job goes first and occupies the slot; with a
    // 1-wave quantum it parks as soon as competitors queue, and the
    // scheduler then drives completions in strict priority order. The
    // others are submitted in descending priority, so each is queued
    // after every job that outranks it: none can be granted (and so
    // finish) before a higher-priority job it should wait for exists,
    // however fast the jobs run.
    const auto a = service.addJobAsync({"pagerank", "default", 0});
    const auto c = service.addJobAsync({"sssp:0", "default", 5});
    const auto d = service.addJobAsync({"kcore:3", "default", 3});
    const auto b = service.addJobAsync({"wcc", "default", 1});
    const auto results = service.drain();
    ASSERT_EQ(results.size(), 4u);

    const auto order = service.completionOrder();
    ASSERT_EQ(order.size(), 4u);
    EXPECT_EQ(order[0], c); // priority 5
    EXPECT_EQ(order[1], d); // priority 3
    EXPECT_EQ(order[2], b); // priority 1
    EXPECT_EQ(order[3], a); // priority 0

    const auto stats = service.stats();
    EXPECT_EQ(stats.submitted, 4u);
    EXPECT_EQ(stats.admitted, 4u);
    EXPECT_EQ(stats.rejected, 0u);
    EXPECT_EQ(stats.completed, 4u);
    EXPECT_GT(stats.parks, 0u);
    EXPECT_EQ(stats.peak_running, 1u);
}

TEST(GraphService, TenantQuotaSerializesOneTenant)
{
    const auto g = testGraph();
    engine::ServiceConfig config;
    config.session_threads = 2;
    config.tenant_quota = 1;
    config.quantum_waves = 1;
    engine::GraphService service(g, testOptions(), config);

    // Both alice jobs are long; quota 1 means the second cannot start
    // until the first completes, while bob's passes it in the queue.
    const auto a1 = service.addJobAsync({"pagerank", "alice", 0});
    const auto a2 = service.addJobAsync({"pagerank", "alice", 9});
    const auto b1 = service.addJobAsync({"wcc", "bob", 0});
    service.drain();

    const auto grants = service.grantLog();
    const auto pos = [&](engine::JobId id) {
        return std::find(grants.begin(), grants.end(), id) -
               grants.begin();
    };
    // Despite a2's far higher priority, b1 is granted first: alice is
    // at quota until a1 finishes.
    EXPECT_LT(pos(a1), pos(b1));
    EXPECT_LT(pos(b1), pos(a2));
    EXPECT_EQ(service.stats().completed, 3u);
}

TEST(GraphService, RejectsJobOverByteBudget)
{
    const auto g = testGraph();
    engine::ServiceConfig config;
    config.state_budget_bytes = 1; // nothing fits
    engine::GraphService service(g, testOptions(), config);

    const auto id = service.addJobAsync("wcc");
    const auto status = service.poll(id);
    EXPECT_EQ(status.state, engine::JobState::Rejected);
    EXPECT_NE(status.detail.find("budget"), std::string::npos);

    const auto results = service.drain();
    EXPECT_TRUE(results.empty());
    EXPECT_EQ(service.stats().rejected, 1u);
    EXPECT_EQ(service.stats().completed, 0u);
}

TEST(GraphService, ByteEstimateCoversAFinishedJob)
{
    // Admission prices a query with a probe engine. The price must cover
    // what a 1-lane job holds once it has run (activation flags, path
    // counters, versions, dedupe stamps and dirty sets included), so a
    // budget one byte below a finished job's state rejects the job.
    const auto g = testGraph();
    for (const char *spec : {"pagerank", "sssp:0", "wcc"}) {
        std::size_t held = 0;
        {
            engine::ServiceConfig config;
            config.state_budget_bytes = std::size_t{1} << 40;
            engine::GraphService service(g, testOptions(), config);
            service.addJobAsync(spec);
            const auto results = service.drain();
            ASSERT_EQ(results.size(), 1u) << spec;
            held = results[0].job_state_bytes;
        }
        ASSERT_GT(held, 1u) << spec;
        engine::ServiceConfig config;
        config.state_budget_bytes = held - 1;
        engine::GraphService service(g, testOptions(), config);
        const auto id = service.addJobAsync(spec);
        const auto status = service.poll(id);
        EXPECT_EQ(status.state, engine::JobState::Rejected) << spec;
        EXPECT_NE(status.detail.find("budget"), std::string::npos) << spec;
        EXPECT_TRUE(service.drain().empty()) << spec;
    }
}

TEST(GraphService, RejectsPastAdmissionQueueLimit)
{
    const auto g = testGraph();
    engine::ServiceConfig config;
    config.session_threads = 2;
    config.tenant_quota = 1;   // queue builds behind the quota
    config.max_queued_jobs = 1;
    config.quantum_waves = 0;
    engine::GraphService service(g, testOptions(), config);

    const auto a1 = service.addJobAsync({"pagerank", "alice", 0});
    const auto a2 = service.addJobAsync({"pagerank", "alice", 0});
    const auto a3 = service.addJobAsync({"pagerank", "alice", 0});
    EXPECT_NE(service.poll(a1).state, engine::JobState::Rejected);
    EXPECT_NE(service.poll(a2).state, engine::JobState::Rejected);
    const auto status = service.poll(a3);
    EXPECT_EQ(status.state, engine::JobState::Rejected);
    EXPECT_NE(status.detail.find("queue"), std::string::npos);

    const auto results = service.drain();
    EXPECT_EQ(results.size(), 2u);
}

TEST(GraphService, RejectsLaneJobsTheEngineCannotRun)
{
    // A lane job under a fault plan, or in VertexAsync mode, is
    // rejected at admission with the engine's reason and is never
    // journaled; the jobs beside it complete. A lane job resumed from
    // the journal (recorded by a session that could run it) is
    // rejected too, and its record is retired.
    const auto g = testGraph();
    std::string err;
    engine::EngineOptions faulty = testOptions();
    faulty.faults = gpusim::FaultPlan::parse("seed=1,xfer=0.01", err);
    ASSERT_TRUE(err.empty()) << err;
    engine::EngineOptions vertex_async = testOptions();
    vertex_async.mode = engine::ExecutionMode::VertexAsync;
    const char *fault_reason =
        "do not support fault tolerance or a durable store";
    struct Session
    {
        engine::EngineOptions opts;
        std::string reason;
        bool resumed = false;
    };
    const Session sessions[] = {
        {faulty, fault_reason},
        {vertex_async, "require a path mode"},
        {faulty, fault_reason, true},
    };
    const auto wal = std::filesystem::temp_directory_path() /
                     ("digraph_lane_reject_" + std::to_string(::getpid()) +
                      ".wal");
    for (const auto &[opts, reason, resumed] : sessions) {
        std::filesystem::remove(wal);
        engine::JobRequest ppr_request{"ppr:0,1,2"};
        if (resumed) {
            // A session without a fault plan journals the lane job
            // before it runs; this one adopts the record.
            storage::JobJournal earlier(wal.string());
            ASSERT_TRUE(earlier.appendAdmit(0, ppr_request.spec, 0, ""));
            const auto pending = earlier.replay();
            ASSERT_EQ(pending.size(), 1u);
            ppr_request.journal_id = pending[0].id;
        }
        storage::JobJournal journal(wal.string());
        engine::ServiceConfig config;
        config.journal = &journal;
        engine::GraphService service(g, opts, config);
        const auto sssp = service.addJobAsync("sssp:0");
        const auto ppr = service.addJobAsync(ppr_request);
        const auto wcc = service.addJobAsync("wcc");
        const auto status = service.poll(ppr);
        EXPECT_EQ(status.state, engine::JobState::Rejected) << reason;
        EXPECT_NE(status.detail.find(reason), std::string::npos)
            << status.detail;

        const auto results = service.drain();
        ASSERT_EQ(results.size(), 2u) << reason;
        EXPECT_EQ(results[0].spec, "sssp:0");
        EXPECT_EQ(results[1].spec, "wcc");
        EXPECT_EQ(service.poll(sssp).state, engine::JobState::Done);
        EXPECT_EQ(service.poll(wcc).state, engine::JobState::Done);
        EXPECT_EQ(service.stats().rejected, 1u);
        EXPECT_EQ(service.stats().completed, 2u);
        // Every journaled job completed: a restart replays nothing.
        EXPECT_TRUE(journal.replay().empty()) << reason;
    }
    std::filesystem::remove(wal);
}

TEST(GraphService, PreemptedRunsBitIdenticalPerFamily)
{
    const auto g = testGraph();
    const auto opts = testOptions();
    const std::vector<std::string> specs = {"sssp:0", "pagerank", "wcc",
                                            "kcore:3"};

    // Uninterrupted dedicated-engine references, one per family.
    std::vector<metrics::RunReport> reference;
    for (const auto &spec : specs) {
        engine::DiGraphEngine eng(g, opts);
        const auto algo = algorithms::makeAlgorithmSpec(spec, g);
        reference.push_back(eng.run(*algo));
    }

    // Two slots for four jobs: jobs run side by side AND park.
    engine::ServiceConfig config;
    config.session_threads = 2;
    config.quantum_waves = 1; // maximum preemption pressure
    engine::GraphService service(g, opts, config);
    for (const auto &spec : specs)
        service.addJobAsync(spec);
    const auto results = service.drain();
    ASSERT_EQ(results.size(), specs.size());

    std::uint64_t parked = 0;
    for (const auto &job : results) {
        const auto ref =
            std::find(specs.begin(), specs.end(), job.spec) -
            specs.begin();
        expectSameReport(job.report, reference[ref], job.spec);
        parked += job.times_parked;
    }
    // Fewer slots than jobs -> preemption actually happened, so the
    // identity above is a real park/resume round-trip.
    EXPECT_GT(parked, 0u);
    EXPECT_GT(service.stats().parks, 0u);
    EXPECT_EQ(service.stats().completed, specs.size());
}

TEST(GraphService, BatchModeRunsJobsConcurrently)
{
    const auto g = testGraph();
    engine::ServiceConfig config;
    config.quantum_waves = 0; // batch: no preemption
    engine::GraphService service(g, testOptions(), config);
    // session_threads 0 resolves to one slot per hardware thread.
    EXPECT_EQ(service.sessionThreads(),
              std::max(1u, std::thread::hardware_concurrency()));

    service.addJobAsync("pagerank");
    service.addJobAsync("wcc");
    const auto results = service.drain();
    ASSERT_EQ(results.size(), 2u);
    const auto stats = service.stats();
    EXPECT_EQ(stats.parks, 0u);
    EXPECT_EQ(stats.completed, 2u);
    EXPECT_GE(stats.peak_running, 1u);
    for (const auto &job : results)
        EXPECT_GT(job.job_state_bytes, 0u);
}

TEST(GraphService, AdoptedSubstrateIsValidatedAndShared)
{
    const auto g = testGraph();
    const auto opts = testOptions();
    engine::DiGraphEngine eng(g, opts);
    const auto sub = eng.substrate();
    ASSERT_NE(sub, nullptr);

    engine::ServiceConfig config;
    config.quantum_waves = 0;
    engine::GraphService service(g, sub, opts, config);
    EXPECT_EQ(service.substrate().get(), sub.get());
    EXPECT_EQ(service.sharedBytes(), sub->memoryBytes());

    service.addJobAsync("wcc");
    const auto results = service.drain();
    ASSERT_EQ(results.size(), 1u);
    const auto algo = algorithms::makeAlgorithmSpec("wcc", g);
    engine::DiGraphEngine check(g, opts);
    expectSameReport(results[0].report, check.run(*algo),
                     "wcc adopted");
}

TEST(GraphService, BatchResultsMatchDedicatedEnginesInAnyOrder)
{
    const auto g = testGraph();
    const auto opts = testOptions();
    const std::vector<std::string> specs = {"sssp:0", "pagerank", "wcc"};

    // Dedicated engines, each with its OWN preprocessing: sharing the
    // substrate must change nothing observable.
    std::vector<metrics::RunReport> dedicated;
    for (const auto &spec : specs) {
        engine::DiGraphEngine eng(g, opts);
        const auto algo = algorithms::makeAlgorithmSpec(spec, g);
        dedicated.push_back(eng.run(*algo));
    }

    engine::ServiceConfig config;
    config.quantum_waves = 0; // batch: no preemption
    for (const bool reversed : {false, true}) {
        std::vector<std::string> order = specs;
        if (reversed)
            std::reverse(order.begin(), order.end());
        engine::GraphService service(g, opts, config);
        for (const auto &spec : order)
            service.addJobAsync(spec);
        const auto results = service.drain();
        ASSERT_EQ(results.size(), order.size());
        for (std::size_t i = 0; i < order.size(); ++i) {
            EXPECT_EQ(results[i].spec, order[i]); // admission order
            EXPECT_GT(results[i].job_state_bytes, 0u) << order[i];
            const auto ref =
                std::find(specs.begin(), specs.end(), order[i]) -
                specs.begin();
            expectSameReport(results[i].report, dedicated[ref],
                             order[i]);
        }
    }
}

TEST(GraphService, PerJobTracesExactlyWhenRequested)
{
    const auto g = testGraph();
    for (const bool with_traces : {false, true}) {
        engine::ServiceConfig config;
        config.quantum_waves = 0;
        config.with_traces = with_traces;
        engine::GraphService service(g, testOptions(), config);
        for (const char *spec : {"sssp:0", "pagerank", "kcore:2"})
            service.addJobAsync(spec);
        const auto results = service.drain();
        ASSERT_EQ(results.size(), 3u);
        for (const auto &job : results) {
            EXPECT_EQ(job.counters,
                      metrics::CounterRegistry::fromReport(job.report))
                << job.spec;
            if (!with_traces) {
                EXPECT_EQ(job.trace, nullptr) << job.spec;
                continue;
            }
            ASSERT_NE(job.trace, nullptr) << job.spec;
            EXPECT_EQ(job.trace->counters(), job.counters) << job.spec;
        }
    }
}

TEST(GraphServiceDeathTest, AdoptRejectsVertexCountMismatch)
{
    // Graph B has the same edges as graph A plus one extra isolated
    // vertex: the substrate's edge-count check alone would pass, so
    // the vertex-count check must catch the mismatch.
    const auto makeChain = [](VertexId n) {
        graph::GraphBuilder builder(n);
        builder.addEdge(0, 1);
        builder.addEdge(1, 2);
        builder.addEdge(2, 3);
        return builder.build();
    };
    const auto a = makeChain(4);
    const auto b = makeChain(5);
    const auto opts = testOptions();

    engine::DiGraphEngine eng(a, opts);
    const auto sub = eng.substrate();
    ASSERT_EQ(sub->pre.paths.numEdges(), b.numEdges());
    EXPECT_EXIT(engine::GraphService(b, sub, opts),
                ::testing::ExitedWithCode(1), "vertices");
}

} // namespace
} // namespace digraph
