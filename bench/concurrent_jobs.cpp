/**
 * @file
 * Concurrent-job study over the layered execution substrate: N jobs
 * (different algorithms) on ONE shared immutable EngineSubstrate vs the
 * naive alternative of giving every job its own engine with a private
 * copy of the preprocessing result.
 *
 * What the layering buys is memory: the topology (Preprocessed +
 * PathLayout + ReplicaSync + Dispatcher indexes) is paid once for any
 * number of jobs, while each job only adds its private ValuePlane +
 * transport bookkeeping. The study records both the topology bytes and
 * the end-to-end wall time of draining all jobs, and verifies that
 * shared-substrate results are bit-identical to single-job runs. The
 * shared leg drains the jobs through a batch-mode GraphService (no
 * preemption quantum) adopting the prebuilt substrate; its timed region
 * is the session's construction, the submissions and the drain.
 *
 * A third variant (scheduled3) drains the same jobs through a
 * GraphService session adopting the SAME substrate, with the two-level
 * scheduler active (wave-boundary preemption quantum + worklist
 * co-scheduling) instead of the batch FIFO drain — comparing scheduled
 * against FIFO throughput on one machine.
 *
 * The session-threads sweep drains the 3 jobs through a batch-mode
 * GraphService at session_threads 1, 2 and 4. A job's dispatches run
 * one at a time, so host parallelism comes only from jobs running side
 * by side: the sweep records jobs/s per count together with the host's
 * core count and the longest single job (no count can drain the mix
 * faster than that job runs), and every count must stay bit-identical
 * to the dedicated engines (exit code 1 otherwise).
 *
 * Output: a table on stdout plus BENCH_jobs.json in the working
 * directory. Regenerate the committed snapshot from the repo root with:
 *
 *     cmake --build build -j --target concurrent_jobs
 *     ./build/bench/concurrent_jobs
 *
 * (see EXPERIMENTS.md). Scale via DIGRAPH_BENCH_SCALE if needed.
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "common/timer.hpp"
#include "engine/graph_service.hpp"
#include "partition/preprocess.hpp"

namespace {

using namespace digraph;

graph::DirectedGraph
jobsWorkload()
{
    graph::GeneratorConfig c;
    c.num_vertices = static_cast<VertexId>(120000 * bench::benchScale());
    c.num_edges = static_cast<EdgeId>(600000 * bench::benchScale());
    c.degree_skew = 1.6;
    c.locality = 0.9;
    c.scc_core_fraction = 0.3;
    c.seed = 31;
    return graph::generate(c);
}

} // namespace

int
main()
{
    const auto g = jobsWorkload();
    const std::vector<std::string> job_specs = {"sssp:0", "pagerank",
                                                "wcc"};

    engine::EngineOptions opts;
    opts.platform = bench::benchPlatform(bench::benchGpus());
    opts.resolvePartitionBudget(g.numEdges());

    // --- shared substrate: preprocess once, run all jobs on it. ---
    const auto substrate = engine::EngineSubstrate::build(
        g, partition::preprocess(g, opts.preprocess));
    WallTimer shared_timer;
    std::vector<engine::JobResult> shared_results;
    {
        engine::ServiceConfig batch;
        batch.quantum_waves = 0; // batch: no preemption
        engine::GraphService shared(g, substrate, opts, batch);
        for (const auto &spec : job_specs)
            shared.addJobAsync(spec);
        shared_results = shared.drain();
    }
    const double shared_wall = shared_timer.seconds();

    const std::size_t topo_single = substrate->memoryBytes();
    const std::size_t topo_shared = topo_single; // paid once
    std::size_t shared_job_bytes = 0;
    for (const auto &job : shared_results)
        shared_job_bytes += job.job_state_bytes;

    // --- naive: every job owns a full engine with its own copy of the
    // preprocessing result (topology duplicated per job). ---
    std::size_t topo_naive = 0;
    std::size_t naive_job_bytes = 0;
    WallTimer naive_timer;
    std::vector<metrics::RunReport> naive_reports;
    for (const auto &spec : job_specs) {
        engine::DiGraphEngine eng(
            g, engine::EngineSubstrate::build(g, substrate->pre), opts);
        const auto algo = algorithms::makeAlgorithmSpec(spec, g);
        naive_reports.push_back(eng.run(*algo));
        topo_naive += eng.substrate()->memoryBytes();
        naive_job_bytes += eng.jobStateBytes();
    }
    const double naive_wall = naive_timer.seconds();

    // --- scheduled: the same jobs and substrate through a GraphService
    // session with the two-level scheduler active (preemption quantum +
    // co-scheduling) instead of the batch FIFO drain. ---
    // Quantum 16: coarse enough that plane cache residency survives a
    // quantum, fine enough that preemption actually happens (the ctest
    // suite covers quantum 1).
    engine::ServiceConfig sconfig;
    sconfig.quantum_waves = 16;
    sconfig.co_schedule = true;
    WallTimer scheduled_timer;
    engine::GraphService service(g, substrate, opts, sconfig);
    for (const auto &spec : job_specs)
        service.addJobAsync(spec);
    const auto scheduled_results = service.drain();
    const double scheduled_wall = scheduled_timer.seconds();
    const auto sched_stats = service.stats();
    std::size_t scheduled_job_bytes = 0;
    for (const auto &job : scheduled_results)
        scheduled_job_bytes += job.job_state_bytes;

    // --- bit-identity against the dedicated engines. ---
    const auto matchesDedicated =
        [&](const std::vector<engine::JobResult> &results) {
            for (std::size_t i = 0; i < job_specs.size(); ++i) {
                const auto &a = results[i].report;
                const auto &b = naive_reports[i];
                if (a.final_state != b.final_state ||
                    a.sim_cycles != b.sim_cycles ||
                    a.edge_processings != b.edge_processings)
                    return false;
            }
            return true;
        };
    bool identical = matchesDedicated(shared_results) &&
                     matchesDedicated(scheduled_results);

    // --- session-threads sweep: the same 3 jobs through a batch-mode
    // session holding 1, 2 or 4 of them at once. ---
    struct SweepPoint
    {
        std::size_t session_threads;
        double wall_seconds;
        double longest_job_seconds;
        std::size_t peak_running;
        bool identical;
    };
    std::vector<SweepPoint> sweep;
    for (const std::size_t threads : {1u, 2u, 4u}) {
        engine::ServiceConfig config;
        config.session_threads = threads;
        config.quantum_waves = 0; // batch: no preemption
        WallTimer timer;
        engine::GraphService session(g, substrate, opts, config);
        for (const auto &spec : job_specs)
            session.addJobAsync(spec);
        const auto results = session.drain();
        const double wall = timer.seconds();
        const bool same = matchesDedicated(results);
        identical = identical && same;
        double longest = 0.0;
        for (const auto &job : results)
            longest = std::max(longest, job.report.wall_seconds);
        sweep.push_back({threads, wall, longest,
                         session.stats().peak_running, same});
    }
    const unsigned host_cores =
        std::max(1u, std::thread::hardware_concurrency());

    const auto mb = [](std::size_t bytes) {
        return static_cast<double>(bytes) / 1e6;
    };
    const double ratio_shared =
        static_cast<double>(topo_shared) / static_cast<double>(topo_single);
    const double ratio_naive =
        static_cast<double>(topo_naive) / static_cast<double>(topo_single);

    bench::Table table("Concurrent jobs: shared substrate vs per-job "
                       "copies (3 jobs)",
                       {"variant", "topology_MB", "topo_ratio", "job_MB",
                        "wall_s", "jobs_per_s"});
    table.addRow({"single-job", bench::Table::num(mb(topo_single)), "1.00",
                  bench::Table::num(
                      mb(shared_results[0].job_state_bytes)),
                  "-", "-"});
    table.addRow({"shared3", bench::Table::num(mb(topo_shared)),
                  bench::Table::num(ratio_shared),
                  bench::Table::num(mb(shared_job_bytes)),
                  bench::Table::num(shared_wall),
                  bench::Table::num(shared_wall > 0.0
                                        ? 3.0 / shared_wall
                                        : 0.0)});
    table.addRow({"naive3", bench::Table::num(mb(topo_naive)),
                  bench::Table::num(ratio_naive),
                  bench::Table::num(mb(naive_job_bytes)),
                  bench::Table::num(naive_wall),
                  bench::Table::num(naive_wall > 0.0 ? 3.0 / naive_wall
                                                     : 0.0)});
    table.addRow({"scheduled3", bench::Table::num(mb(topo_shared)),
                  bench::Table::num(ratio_shared),
                  bench::Table::num(mb(scheduled_job_bytes)),
                  bench::Table::num(scheduled_wall),
                  bench::Table::num(scheduled_wall > 0.0
                                        ? 3.0 / scheduled_wall
                                        : 0.0)});
    table.print();
    std::printf("scheduler: grants=%llu parks=%llu co_scheduled=%llu "
                "peak_jobs=%zu\n",
                static_cast<unsigned long long>(sched_stats.grants),
                static_cast<unsigned long long>(sched_stats.parks),
                static_cast<unsigned long long>(
                    sched_stats.co_scheduled_grants),
                sched_stats.peak_running);
    bench::Table sweep_table(
        "Session-threads sweep (3 jobs, batch mode, " +
            std::to_string(host_cores) + " host cores)",
        {"session_threads", "wall_s", "jobs_per_s", "longest_job_s",
         "peak_running", "identical"});
    for (const auto &pt : sweep) {
        sweep_table.addRow({std::to_string(pt.session_threads),
                            bench::Table::num(pt.wall_seconds),
                            bench::Table::num(3.0 / pt.wall_seconds),
                            bench::Table::num(pt.longest_job_seconds),
                            std::to_string(pt.peak_running),
                            pt.identical ? "yes" : "NO"});
    }
    sweep_table.print();
    std::printf("bit-identical to dedicated engines: %s\n",
                identical ? "yes" : "NO");

    std::FILE *out = std::fopen("BENCH_jobs.json", "w");
    if (!out) {
        std::fprintf(stderr, "cannot write BENCH_jobs.json\n");
        return 1;
    }
    std::fprintf(out, "{\n");
    std::fprintf(out, "  \"benchmark\": \"concurrent_jobs\",\n");
    std::fprintf(out, "  \"jobs\": [");
    for (std::size_t i = 0; i < job_specs.size(); ++i) {
        std::fprintf(out, "\"%s\"%s", job_specs[i].c_str(),
                     i + 1 < job_specs.size() ? ", " : "");
    }
    std::fprintf(out, "],\n");
    std::fprintf(out, "  \"workload\": {\"vertices\": %llu, \"edges\": "
                      "%llu, \"partitions\": %llu},\n",
                 static_cast<unsigned long long>(g.numVertices()),
                 static_cast<unsigned long long>(g.numEdges()),
                 static_cast<unsigned long long>(
                     substrate->pre.numPartitions()));
    std::fprintf(out,
                 "  \"topology_bytes\": {\"single\": %zu, \"shared3\": "
                 "%zu, \"naive3\": %zu},\n",
                 topo_single, topo_shared, topo_naive);
    std::fprintf(out, "  \"topology_ratio_shared_vs_single\": %.3f,\n",
                 ratio_shared);
    std::fprintf(out, "  \"topology_ratio_naive_vs_single\": %.3f,\n",
                 ratio_naive);
    std::fprintf(out,
                 "  \"job_state_bytes\": {\"shared3\": %zu, \"naive3\": "
                 "%zu},\n",
                 shared_job_bytes, naive_job_bytes);
    std::fprintf(out,
                 "  \"total_bytes\": {\"shared3\": %zu, \"naive3\": "
                 "%zu},\n",
                 topo_shared + shared_job_bytes,
                 topo_naive + naive_job_bytes);
    std::fprintf(out,
                 "  \"wall_seconds\": {\"shared3\": %.6f, \"naive3\": "
                 "%.6f, \"scheduled3\": %.6f},\n",
                 shared_wall, naive_wall, scheduled_wall);
    std::fprintf(out,
                 "  \"throughput_jobs_per_second\": {\"shared3\": %.3f, "
                 "\"naive3\": %.3f, \"scheduled3\": %.3f},\n",
                 shared_wall > 0.0 ? 3.0 / shared_wall : 0.0,
                 naive_wall > 0.0 ? 3.0 / naive_wall : 0.0,
                 scheduled_wall > 0.0 ? 3.0 / scheduled_wall : 0.0);
    std::fprintf(out,
                 "  \"scheduler\": {\"quantum_waves\": %llu, \"grants\": "
                 "%llu, \"parks\": %llu, \"co_scheduled_grants\": %llu, "
                 "\"peak_running\": %zu},\n",
                 static_cast<unsigned long long>(sconfig.quantum_waves),
                 static_cast<unsigned long long>(sched_stats.grants),
                 static_cast<unsigned long long>(sched_stats.parks),
                 static_cast<unsigned long long>(
                     sched_stats.co_scheduled_grants),
                 sched_stats.peak_running);
    std::fprintf(out, "  \"host_cores\": %u,\n", host_cores);
    std::fprintf(out, "  \"session_threads_sweep\": [\n");
    for (std::size_t i = 0; i < sweep.size(); ++i) {
        const auto &pt = sweep[i];
        std::fprintf(out,
                     "    {\"session_threads\": %zu, \"wall_seconds\": "
                     "%.6f, \"jobs_per_second\": %.3f, "
                     "\"longest_job_seconds\": %.6f, \"peak_running\": "
                     "%zu, \"host_cores\": %u, \"bit_identical\": %s}%s\n",
                     pt.session_threads, pt.wall_seconds,
                     3.0 / pt.wall_seconds, pt.longest_job_seconds,
                     pt.peak_running, host_cores,
                     pt.identical ? "true" : "false",
                     i + 1 < sweep.size() ? "," : "");
    }
    std::fprintf(out, "  ],\n");
    std::fprintf(out, "  \"bit_identical_to_single_job\": %s\n",
                 identical ? "true" : "false");
    std::fprintf(out, "}\n");
    std::fclose(out);
    std::printf("wrote BENCH_jobs.json\n");
    return identical ? 0 : 1;
}
