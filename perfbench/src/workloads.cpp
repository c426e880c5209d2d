#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <filesystem>
#include <map>
#include <memory>

#include "algorithms/factory.hpp"
#include "baselines/async_engine.hpp"
#include "baselines/bsp_engine.hpp"
#include "engine/digraph_engine.hpp"
#include "engine/graph_service.hpp"
#include "engine/substrate.hpp"
#include "engine/substrate_catalog.hpp"
#include "graph/builder.hpp"
#include "graph/io.hpp"
#include "metrics/trace.hpp"
#include "partition/preprocess.hpp"
#include "session.hpp"
#include "storage/durable_store.hpp"
#include "validate.hpp"

namespace perfbench {

namespace {

namespace eng = digraph::engine;
namespace fs = std::filesystem;
using digraph::graph::DirectedGraph;
using digraph::metrics::RunReport;
using digraph::metrics::TraceEventType;
using digraph::metrics::TraceSink;
using digraph::storage::DurableStore;

/** Session worker threads of every GraphService. */
constexpr std::size_t kSessionThreads = 2;
/** Closed-loop query clients beside the ingest writer. */
constexpr std::size_t kIngestReaders = 3;
/** Timed reopenings of a store per round. */
constexpr int kReopens = 3;
/** Queries rerun on the recovered session of an ingest round. */
constexpr std::size_t kRecheckQueries = 16;
/** No round starts after this much wall; keeps a run under 180 s. */
constexpr double kLastRoundStart = 110.0;
/** Failure diagnostics kept for the report. */
constexpr std::size_t kMaxErrors = 10;

/** One graph after set-up. The graph is heap-held because substrates
 *  and services keep references to it. */
struct Prepared
{
    std::string name;
    std::unique_ptr<DirectedGraph> g;
    std::shared_ptr<const eng::EngineSubstrate> sub;
};

/** A GraphService backed by a DurableStore. The service is declared last
 *  so that it goes first. */
struct StoreSession
{
    explicit StoreSession(const std::string &dir) : store(dir) {}
    DurableStore store;
    TraceSink sink;
    TraceSink store_sink;
    std::unique_ptr<eng::GraphService> service;
};

/** Timed parts of one store session. */
struct Served
{
    /** First submit until every job was Done. */
    double session_s = 0.0;
    /** First submit until the last query was Done. */
    double reader_s = 0.0;
    /** Summed reopenings. */
    double restart_s = 0.0;
};

/** One analytics run kept for validation. */
struct SweepRecord
{
    const Prepared *graph = nullptr;
    std::string spec;
    std::string system;
    RunReport report;
};

/** Everything collected under one tracing mode. */
struct Accumulator
{
    /** Per-round values (medians at the end). */
    RoundSeries rounds;
    /** Pooled samples (quantiles at the end). */
    std::map<std::string, std::vector<double>> pooled;
};

std::string
algorithmName(const std::string &spec)
{
    return spec.substr(0, spec.find(':'));
}

std::uint64_t
directoryBytes(const std::string &dir)
{
    std::uint64_t bytes = 0;
    std::error_code ec;
    for (const auto &entry : fs::directory_iterator(dir, ec)) {
        if (entry.is_regular_file(ec))
            bytes += entry.file_size(ec);
    }
    return bytes;
}

class Runner
{
  public:
    Runner(const Plan &plan, const RunOptions &options)
        : plan_(plan), opt_(options), tracer_(false)
    {}

    RunResult run();

  private:
    /** One round; returns the seconds it measured. */
    double round();
    double analyticsRound();
    double ingestRound();

    /** Load, preprocess and build one graph under span @p parent. */
    Prepared prepare(const GraphInput &input, std::size_t parent);
    /** Trace-only per-job engine cost on a prepared graph. */
    void probeEngine(const Prepared &p);

    /** Write the first graph's root version into rootDir(), untimed. */
    void makeRootStore();
    /** Replace storeDir() with a copy of rootDir(), untimed. */
    void resetStore();
    /** A service over @p p on storeDir(); its construction is recorded
     *  as a span under @p parent. */
    std::unique_ptr<StoreSession> openService(const Prepared &p,
                                              std::size_t parent);
    /** Run @p plan on @p s, closing span @p span when the last job is
     *  Done; fold the session into the round, validate it, then time
     *  reopenings of the store. With @p recheck the last reopened
     *  session reruns a fixed query list, which gives sim_mcycles. */
    Served serve(StoreSession &s, const Prepared &p, const SessionPlan &plan,
                 std::size_t span, bool recheck);
    /** Timed reopenings of storeDir(). */
    double reopen(const Prepared &p, digraph::EdgeId expected_edges,
                  bool recheck);
    /** Rerun the first queries of the plan on @p service. */
    void rerunQueries(eng::GraphService &service,
                      const std::string &graph_name);

    eng::ServiceConfig serviceConfig(DurableStore *store, TraceSink *sink);
    /** Fold a finished session into the round. */
    void absorbSession(const SessionOutcome &out,
                       const eng::GraphService &service,
                       const TraceSink &sink);
    void absorbStore(const DurableStore &store, const std::string &dir);
    void addEngine(const RunReport &report, double run_seconds,
                   const std::string &algo);

    void validateSession(const Prepared &p, const SessionOutcome &out,
                         digraph::EdgeId final_edges);
    void validateSweep(const std::vector<SweepRecord> &records);
    /** Work counters must repeat exactly for the same job and graph. */
    void checkRepeat(const std::string &key, const RunReport &report);

    std::string storeDir() const { return opt_.work_dir + "/store"; }
    std::string rootDir() const { return opt_.work_dir + "/base_store"; }

    void fail(const std::string &what);
    void put(const std::string &name, double v) { round_[name] += v; }
    void peak(const std::string &name, double v)
    {
        round_[name] = std::max(round_[name], v);
    }
    void sample(const std::string &name, double v)
    {
        acc().pooled[name].push_back(v);
        round_samples_[name].push_back(v);
    }
    Accumulator &acc() { return acc_[tracer_.enabled() ? 1 : 0]; }
    void finishRound();
    MetricTable endToEnd();
    MetricTable perLayer();

    const Plan &plan_;
    RunOptions opt_;
    Tracer tracer_;
    eng::EngineOptions engine_options_;
    digraph::baselines::BaselineOptions baseline_options_;
    Validator validator_;
    /** Sink attached to analytics engines in traced rounds. */
    TraceSink engine_sink_;
    Accumulator acc_[2];
    std::map<std::string, double> round_;
    std::map<std::string, std::vector<double>> round_samples_;
    std::map<std::string, std::array<double, 3>> first_seen_;
    /** Version of the root commit in rootDir(). */
    std::uint64_t root_version_ = 0;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::uint64_t rounds_ = 0;
    std::vector<std::string> errors_;
};

void
Runner::fail(const std::string &what)
{
    ++failed_;
    if (errors_.size() < kMaxErrors)
        errors_.push_back(what);
}

Prepared
Runner::prepare(const GraphInput &input, std::size_t parent)
{
    Prepared p;
    p.name = input.name;
    const Clock::time_point t0 = Clock::now();
    p.g = std::make_unique<DirectedGraph>(
        digraph::graph::loadBinary(input.file));
    const Clock::time_point t1 = Clock::now();
    eng::EngineOptions options = engine_options_;
    options.resolvePartitionBudget(p.g->numEdges());
    auto pre = digraph::partition::preprocess(*p.g, options.preprocess);
    const Clock::time_point t2 = Clock::now();
    put("partition.decompose_s", pre.timings.decompose_s);
    put("partition.merge_s", pre.timings.merge_s);
    put("partition.dependency_s", pre.timings.dependency_s);
    put("partition.sketch_s", pre.timings.sketch_s);
    put("partition.partition_s", pre.timings.partition_s);
    put("partition.paths", static_cast<double>(pre.paths.numPaths()));
    put("partition.partitions", static_cast<double>(pre.numPartitions()));
    p.sub = eng::EngineSubstrate::build(*p.g, std::move(pre));
    const Clock::time_point t3 = Clock::now();
    put("graph.load_s", secondsBetween(t0, t1));
    put("partition.preprocess_s", secondsBetween(t1, t2));
    put("substrate.build_s", secondsBetween(t2, t3));
    put("substrate.mb", static_cast<double>(p.sub->memoryBytes()) / 1e6);
    tracer_.add("graph.load", t0, t1, parent);
    tracer_.add("partition.preprocess", t1, t2, parent);
    tracer_.add("substrate.build", t2, t3, parent);
    return p;
}

void
Runner::probeEngine(const Prepared &p)
{
    if (!tracer_.enabled())
        return;
    const Clock::time_point t0 = Clock::now();
    const eng::DiGraphEngine probe(*p.g, p.sub, engine_options_);
    const Clock::time_point t1 = Clock::now();
    tracer_.add("engine.construct", t0, t1);
    put("engine.construct_ms", secondsBetween(t0, t1) * 1e3);
    put("engine.job_state_mb",
        static_cast<double>(probe.jobStateBytes()) / 1e6);
}

eng::ServiceConfig
Runner::serviceConfig(DurableStore *store, TraceSink *sink)
{
    eng::ServiceConfig config;
    config.session_threads = kSessionThreads;
    config.store = store;
    if (tracer_.enabled() && sink) {
        config.trace = sink;
        config.with_traces = true;
    }
    return config;
}

void
Runner::addEngine(const RunReport &r, double run_seconds,
                  const std::string &algo)
{
    put("engine.run_s", run_seconds);
    if (algo == "pagerank" || algo == "adsorption" || algo == "sssp" ||
        algo == "kcore")
        put("engine.run_s." + algo, run_seconds);
    put("engine.compute_s", r.wall_compute_seconds);
    put("engine.barrier_s", r.wall_barrier_seconds);
    put("engine.merge_s", r.wall_merge_seconds);
    put("engine.schedule_s", r.wall_schedule_seconds);
    put("engine.edge_processings", static_cast<double>(r.edge_processings));
    put("engine.vertex_updates", static_cast<double>(r.vertex_updates));
    put("engine.rounds", static_cast<double>(r.rounds));
    put("engine.waves", static_cast<double>(r.waves));
    put("engine.dispatches", static_cast<double>(r.partition_processings));
    // RunReport::compute_cycles is not filled by the engines; the SMX busy
    // total follows from utilization = busy / (makespan * SMXs).
    const auto &platform = engine_options_.platform;
    put("gpusim.compute_mcycles",
        r.utilization * r.sim_cycles * platform.num_devices *
            platform.smx_per_device / 1e6);
    put("gpusim.comm_mcycles", r.comm_cycles / 1e6);
    put("gpusim.utilization_sum", r.utilization);
    put("gpusim.runs", 1.0);
    put("transport.host_mb", static_cast<double>(r.host_transfer_bytes) / 1e6);
    put("transport.ring_mb", static_cast<double>(r.ring_transfer_bytes) / 1e6);
    put("transport.global_load_mb",
        static_cast<double>(r.global_load_bytes) / 1e6);
    put("transport.loaded", static_cast<double>(r.loaded_vertices));
    put("transport.used", static_cast<double>(r.used_vertices));
}

void
Runner::checkRepeat(const std::string &key, const RunReport &r)
{
    const std::array<double, 3> seen = {
        r.sim_cycles, static_cast<double>(r.edge_processings),
        static_cast<double>(r.vertex_updates)};
    const auto [it, fresh] = first_seen_.emplace(key, seen);
    if (!fresh && it->second != seen)
        fail(key + ": simulated cycles or work counts changed between rounds");
}

// --- analytics -------------------------------------------------------------

double
Runner::analyticsRound()
{
    const Clock::time_point s0 = Clock::now();
    const std::size_t setup = tracer_.open("setup", s0);
    std::vector<Prepared> graphs;
    for (const GraphInput &input : plan_.graphs)
        graphs.push_back(prepare(input, setup));
    const Clock::time_point s1 = Clock::now();
    tracer_.close(setup, s1);
    const double setup_s = secondsBetween(s0, s1);
    put("setup_s", setup_s);
    if (tracer_.enabled())
        put("trace.setup_coverage", tracer_.childSeconds(setup) / setup_s);
    probeEngine(graphs.front());

    std::vector<SweepRecord> records;
    std::size_t jobs = 0;
    double sim_cycles = 0.0;
    TraceSink *sink = tracer_.enabled() ? &engine_sink_ : nullptr;
    digraph::baselines::BaselineOptions bopts = baseline_options_;
    bopts.trace = sink;

    const Clock::time_point b0 = Clock::now();
    const std::size_t sweep = tracer_.open("sweep", b0);
    for (std::size_t gi = 0; gi < graphs.size(); ++gi) {
        const Prepared &p = graphs[gi];
        for (const std::string &spec : plan_.graphs[gi].jobs) {
            const auto algo =
                digraph::algorithms::makeAlgorithmSpec(spec, *p.g);
            const std::string name = algorithmName(spec);

            Clock::time_point t0 = Clock::now();
            eng::DiGraphEngine engine(*p.g, p.sub, engine_options_);
            engine.setTrace(sink);
            const Clock::time_point t1 = Clock::now();
            RunReport rep = engine.run(*algo);
            Clock::time_point t2 = Clock::now();
            const std::size_t job = tracer_.add("job.digraph", t0, t2, sweep);
            tracer_.add("engine.construct", t0, t1, job);
            tracer_.add("engine.run", t1, t2, job);
            addEngine(rep, secondsBetween(t1, t2), name);
            sim_cycles += rep.sim_cycles;
            records.push_back({&p, spec, "digraph", std::move(rep)});
            engine_sink_.clear();

            t0 = Clock::now();
            rep = digraph::baselines::runBsp(*p.g, *algo, bopts);
            t2 = Clock::now();
            tracer_.add("job.bsp", t0, t2, sweep);
            put("baselines.bsp_run_s", secondsBetween(t0, t2));
            put("baselines.bsp_mcycles", rep.sim_cycles / 1e6);
            records.push_back({&p, spec, "bsp", std::move(rep)});
            engine_sink_.clear();

            t0 = Clock::now();
            rep = digraph::baselines::runAsync(*p.g, *algo, bopts).report;
            t2 = Clock::now();
            tracer_.add("job.async", t0, t2, sweep);
            put("baselines.async_run_s", secondsBetween(t0, t2));
            put("baselines.async_mcycles", rep.sim_cycles / 1e6);
            records.push_back({&p, spec, "async", std::move(rep)});
            engine_sink_.clear();
            jobs += 3;
        }
    }
    const Clock::time_point b1 = Clock::now();
    tracer_.close(sweep, b1);
    attempted_ += jobs;
    const double sweep_s = secondsBetween(b0, b1);
    put("sweep_s", sweep_s);
    put("sim_mcycles", sim_cycles / 1e6);

    // Point queries on the first graph: one DiGraph job at a time, no
    // service, so the query metrics show the engine without scheduling.
    const Prepared &qg = graphs.front();
    const Clock::time_point q0 = Clock::now();
    const std::size_t point = tracer_.open("point_queries", q0);
    for (const std::string &spec : plan_.queries) {
        const Clock::time_point t0 = Clock::now();
        const auto algo = digraph::algorithms::makeAlgorithmSpec(spec, *qg.g);
        eng::DiGraphEngine engine(*qg.g, qg.sub, engine_options_);
        RunReport rep = engine.run(*algo);
        const Clock::time_point t1 = Clock::now();
        tracer_.add("query", t0, t1, point);
        sample("query_latency", secondsBetween(t0, t1));
        records.push_back({&qg, spec, "point", std::move(rep)});
    }
    const Clock::time_point q1 = Clock::now();
    tracer_.close(point, q1);
    attempted_ += plan_.queries.size();
    const double point_s = secondsBetween(q0, q1);
    put("queries_per_s", static_cast<double>(plan_.queries.size()) / point_s);

    // A writer alone on a store-backed session gives the update latency
    // and the store to reopen.
    resetStore();
    const Clock::time_point d0 = Clock::now();
    const std::size_t durability = tracer_.open("durability", d0);
    const auto live = openService(qg, durability);
    const double construct_s = secondsBetween(d0, Clock::now());
    const SessionPlan writer{nullptr, 0, &plan_.graphs.front().batches};
    const Served served = serve(*live, qg, writer, durability, false);
    validateSweep(records);
    return setup_s + sweep_s + point_s + construct_s + served.session_s +
           served.restart_s;
}

void
Runner::validateSweep(const std::vector<SweepRecord> &records)
{
    for (const SweepRecord &r : records) {
        const std::string key = r.graph->name + "|" + r.spec + "|" + r.system;
        const std::string err =
            validator_.check(r.spec, *r.graph->g, r.report, r.graph->name);
        if (!err.empty())
            fail(key + ": " + err);
        checkRepeat(key, r.report);
    }
}

// --- service workloads -----------------------------------------------------

double
Runner::ingestRound()
{
    resetStore();
    const Clock::time_point s0 = Clock::now();
    const std::size_t setup = tracer_.open("setup", s0);
    Prepared p = prepare(plan_.graphs.front(), setup);
    const auto live = openService(p, setup);
    const Clock::time_point s1 = Clock::now();
    tracer_.close(setup, s1);
    const double setup_s = secondsBetween(s0, s1);
    put("setup_s", setup_s);
    if (tracer_.enabled())
        put("trace.setup_coverage", tracer_.childSeconds(setup) / setup_s);
    probeEngine(p);

    const std::size_t body = tracer_.open("session", Clock::now());
    const SessionPlan plan{&plan_.queries, kIngestReaders,
                           &plan_.graphs.front().batches};
    const Served served = serve(*live, p, plan, body, true);
    put("sweep_s", served.session_s);
    put("queries_per_s",
        static_cast<double>(plan_.queries.size()) / served.reader_s);
    return setup_s + served.session_s + served.restart_s;
}

void
Runner::makeRootStore()
{
    // The root version is a multi-shard fsync'd write whose time follows
    // the shared disk's load, not the system: it swung ingest's setup_s by
    // half between runs. It is written once here, untimed, and each store
    // session starts from a copy of it.
    fs::remove_all(rootDir());
    const Prepared p = prepare(plan_.graphs.front(), kNoSpan);
    round_.clear();
    DurableStore store(rootDir());
    root_version_ = p.sub->saveTo(store, *p.g);
    if (!root_version_)
        fail("cannot write the root store version");
}

void
Runner::resetStore()
{
    fs::remove_all(storeDir());
    fs::copy(rootDir(), storeDir(), fs::copy_options::recursive);
}

std::unique_ptr<StoreSession>
Runner::openService(const Prepared &p, std::size_t parent)
{
    auto s = std::make_unique<StoreSession>(storeDir());
    if (tracer_.enabled())
        s->store.setTrace(&s->store_sink);
    eng::ServiceConfig config = serviceConfig(&s->store, &s->sink);
    config.store_version = root_version_;
    const Clock::time_point t0 = Clock::now();
    s->service = std::make_unique<eng::GraphService>(*p.g, p.sub,
                                                     engine_options_, config);
    tracer_.add("service.construct", t0, Clock::now(), parent);
    return s;
}

Served
Runner::serve(StoreSession &s, const Prepared &p, const SessionPlan &plan,
              std::size_t span, bool recheck)
{
    const SessionOutcome out = runSession(*s.service, plan, tracer_, span);
    tracer_.close(span, Clock::now());
    absorbSession(out, *s.service, s.sink);
    const digraph::EdgeId edges =
        s.service->catalog().currentGraph().numEdges();
    s.service.reset();
    absorbStore(s.store, storeDir());
    validateSession(p, out, edges);
    return {out.wall, out.reader_wall, reopen(p, edges, recheck)};
}

double
Runner::reopen(const Prepared &p, digraph::EdgeId expected_edges,
               bool recheck)
{
    double measured = 0.0;
    for (int i = 0; i < kReopens; ++i) {
        ++attempted_;
        DurableStore store(storeDir());
        DirectedGraph copy = *p.g;
        const Clock::time_point t0 = Clock::now();
        auto catalog = eng::SubstrateCatalog::openFrom(store, std::move(copy),
                                                       engine_options_);
        if (!catalog) {
            fail("restart: the store holds nothing recoverable");
            continue;
        }
        eng::GraphService service(std::move(catalog), engine_options_,
                                  serviceConfig(nullptr, nullptr));
        const Clock::time_point t1 = Clock::now();
        tracer_.add("store.reopen", t0, t1);
        measured += secondsBetween(t0, t1);
        sample("restart", secondsBetween(t0, t1));
        if (service.catalog().currentGraph().numEdges() != expected_edges)
            fail("restart: reopened graph lost edges");
        if (recheck && i + 1 == kReopens)
            rerunQueries(service, p.name);
    }
    if (tracer_.enabled()) {
        DurableStore store(storeDir());
        const Clock::time_point t0 = Clock::now();
        const auto chain = store.recoverTopologyChain(*p.g);
        const Clock::time_point t1 = Clock::now();
        tracer_.add("store.recover", t0, t1);
        put("store.recover_s", secondsBetween(t0, t1));
        if (!chain.version)
            fail("restart: recoverTopologyChain found no version");
    }
    return measured;
}

void
Runner::rerunQueries(eng::GraphService &service, const std::string &graph_name)
{
    // The session's queries pin whichever epoch was newest when they were
    // granted, so their simulated cycles depend on timing. A fixed list on
    // the recovered newest epoch gives an exact sim_mcycles instead.
    const std::size_t n = std::min(kRecheckQueries, plan_.queries.size());
    for (std::size_t i = 0; i < n; ++i)
        service.addJobAsync(plan_.queries[i]);
    attempted_ += n;
    const auto results = service.drain();
    if (results.size() != n)
        fail("restart: the recovered service rejected a job");
    const DirectedGraph &g = service.catalog().currentGraph();
    const std::string key = graph_name + "@recovered";
    double sim_cycles = 0.0;
    for (const auto &r : results) {
        sim_cycles += r.report.sim_cycles;
        const std::string err = validator_.check(r.spec, g, r.report, key);
        if (!err.empty())
            fail(key + " " + r.spec + ": " + err);
        checkRepeat(key + "|" + r.spec, r.report);
    }
    put("sim_mcycles", sim_cycles / 1e6);
}

void
Runner::absorbSession(const SessionOutcome &out,
                      const eng::GraphService &service, const TraceSink &sink)
{
    attempted_ += out.samples.size() + out.rejected;
    for (std::uint64_t i = 0; i < out.rejected; ++i)
        fail("the service rejected a job");
    for (const JobSample &s : out.samples)
        sample(s.update ? "update_latency" : "query_latency", s.latency);

    std::map<eng::JobId, double> wall_of;
    for (const auto &r : out.results) {
        wall_of[r.id] = r.report.wall_seconds;
        if (eng::isUpdateSpec(r.spec)) {
            sample("catalog.append_ms", r.report.wall_seconds * 1e3);
            sample("catalog.preprocess_ms", r.report.preprocess_seconds * 1e3);
        } else {
            addEngine(r.report, r.report.wall_seconds, algorithmName(r.spec));
        }
    }
    put("service.parks", static_cast<double>(out.stats.parks));
    put("service.completed", static_cast<double>(out.stats.completed));
    put("service.grants", static_cast<double>(out.stats.grants));
    put("service.co_scheduled_grants",
        static_cast<double>(out.stats.co_scheduled_grants));
    peak("service.peak_running", static_cast<double>(out.stats.peak_running));
    peak("catalog.live_epochs_peak",
         static_cast<double>(out.live_epochs_peak));
    put("catalog.epochs_retired",
        static_cast<double>(service.catalog().stats().epochs_retired));

    // Lifecycle intervals from the service's own scheduler events.
    std::map<eng::JobId, double> admitted, granted, parked_at;
    for (const auto &e : sink.events()) {
        const eng::JobId id = e.arg0;
        switch (e.type) {
          case TraceEventType::JobAdmit:
            admitted[id] = e.wall_seconds;
            break;
          case TraceEventType::JobGrant:
            granted.emplace(id, e.wall_seconds);
            if (const auto it = parked_at.find(id); it != parked_at.end()) {
                sample("service.parked_ms",
                       (e.wall_seconds - it->second) * 1e3);
                parked_at.erase(it);
            }
            break;
          case TraceEventType::JobPark:
            parked_at[id] = e.wall_seconds;
            break;
          case TraceEventType::JobDone:
            if (admitted.count(id) && granted.count(id) && wall_of.count(id)) {
                sample("service.queue_wait_ms",
                       (granted[id] - admitted[id]) * 1e3);
                sample("service.job_overhead_ms",
                       (e.wall_seconds - granted[id] - wall_of[id]) * 1e3);
            }
            break;
          default:
            break;
        }
    }
}

void
Runner::absorbStore(const DurableStore &store, const std::string &dir)
{
    const auto &s = store.stats();
    put("store.commits", static_cast<double>(s.commits));
    put("store.written_mb", static_cast<double>(s.bytes_written) / 1e6);
    put("store.shards_reused", static_cast<double>(s.shards_reused));
    put("store.shards_written", static_cast<double>(s.shards_written));
    put("store.disk_mb", static_cast<double>(directoryBytes(dir)) / 1e6);
}

void
Runner::validateSession(const Prepared &p, const SessionOutcome &out,
                        digraph::EdgeId final_edges)
{
    // Replay the update stream epoch by epoch and check each query on the
    // graph of the epoch it pinned. Updates are single-writer and closed
    // loop, so admission order is append order. Only the current epoch's
    // graph is kept.
    std::map<std::uint64_t, std::vector<const eng::JobResult *>> pinned;
    for (const auto &r : out.results) {
        if (!eng::isUpdateSpec(r.spec))
            pinned[r.epoch].push_back(&r);
    }
    std::unique_ptr<DirectedGraph> owned;
    const DirectedGraph *current = p.g.get();
    std::uint64_t epoch = 1;
    auto checkPinned = [&] {
        const auto it = pinned.find(epoch);
        if (it == pinned.end())
            return;
        for (const eng::JobResult *r : it->second) {
            const std::string err = validator_.check(
                r->spec, *current, r->report,
                p.name + "@" + std::to_string(epoch));
            if (!err.empty())
                fail(r->spec + ": " + err);
            if (epoch == 1)
                checkRepeat(p.name + "|" + r->spec, r->report);
        }
        pinned.erase(it);
    };
    checkPinned();
    for (const auto &r : out.results) {
        if (!eng::isUpdateSpec(r.spec))
            continue;
        const std::string file =
            r.spec.substr(std::string(eng::kUpdateSpecPrefix).size());
        const auto batch = digraph::graph::loadEdgeBatchText(file);
        if (!batch) {
            fail(r.spec + ": batch file unreadable at validation");
            return;
        }
        if (r.epoch == epoch)
            continue; // fully deduplicated batch: no new epoch
        if (r.epoch != epoch + 1) {
            fail(r.spec + ": epoch " + std::to_string(r.epoch) +
                 " does not follow " + std::to_string(epoch));
            return;
        }
        owned = std::make_unique<DirectedGraph>(
            digraph::graph::GraphBuilder::append(*current, *batch).graph);
        current = owned.get();
        ++epoch;
        checkPinned();
    }
    if (current->numEdges() != final_edges)
        fail(p.name + ": the newest epoch's edge count differs from the "
                      "replayed update stream");
    for (const auto &[e, jobs] : pinned) {
        for (const eng::JobResult *r : jobs)
            fail(r->spec + ": ran on unknown epoch " + std::to_string(e));
    }
}

// --- round loop ------------------------------------------------------------

double
Runner::round()
{
    double measured = 0.0;
    if (plan_.workload == "analytics")
        measured = analyticsRound();
    else
        measured = ingestRound();
    finishRound();
    ++rounds_;
    return measured;
}

void
Runner::finishRound()
{
    auto ratio = [&](const char *num, const char *den) {
        return round_[den] > 0 ? round_[num] / round_[den] : 0.0;
    };
    const double run_s = round_["engine.run_s"];
    if (run_s > 0) {
        const double explained =
            round_["engine.compute_s"] + round_["engine.barrier_s"] +
            round_["engine.merge_s"] + round_["engine.schedule_s"];
        round_["engine.unattributed_share"] = 1.0 - explained / run_s;
        round_["engine.ns_per_edge"] =
            ratio("engine.run_s", "engine.edge_processings") * 1e9;
    }
    round_["engine.useful_update_ratio"] =
        ratio("engine.vertex_updates", "engine.edge_processings");
    round_["gpusim.utilization"] = ratio("gpusim.utilization_sum", "gpusim.runs");
    round_["transport.loaded_utilization"] =
        ratio("transport.used", "transport.loaded");
    round_["service.parks_per_job"] =
        ratio("service.parks", "service.completed");
    round_["service.co_scheduled_share"] =
        ratio("service.co_scheduled_grants", "service.grants");
    const double shards =
        round_["store.shards_reused"] + round_["store.shards_written"];
    round_["store.shards_reused_share"] =
        shards > 0 ? round_["store.shards_reused"] / shards : 0.0;
    // Latency percentiles are taken per round and reported as the median
    // across rounds: the host's speed drifts in phases of seconds, and a
    // percentile pooled over the whole run lands in whichever slow phase
    // the run happened to catch.
    for (const char *name : {"query_latency", "update_latency"}) {
        const auto &v = round_samples_[name];
        if (v.empty())
            continue;
        round_[std::string(name) + "_p50_ms"] = quantile(v, 0.5) * 1e3;
        round_[std::string(name) + "_p90_ms"] = quantile(v, 0.9) * 1e3;
    }
    for (const auto &[name, value] : round_)
        acc().rounds.add(name, value);
    round_.clear();
    round_samples_.clear();
}

MetricTable
Runner::endToEnd()
{
    const Accumulator &a = acc_[0];
    auto pooled = [&](const char *name, double q, double scale) {
        const auto it = a.pooled.find(name);
        return it == a.pooled.end() ? 0.0 : quantile(it->second, q) * scale;
    };
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    MetricTable t;
    t["setup_s"] = {a.rounds.median("setup_s"), "s"};
    t["sweep_s"] = {a.rounds.median("sweep_s"), "s"};
    t["sim_mcycles"] = {a.rounds.median("sim_mcycles"), "Mcycles"};
    t["query_latency_p50_ms"] = {a.rounds.median("query_latency_p50_ms"),
                                 "ms"};
    t["query_latency_p90_ms"] = {a.rounds.median("query_latency_p90_ms"),
                                 "ms"};
    t["queries_per_s"] = {a.rounds.median("queries_per_s"), "1/s"};
    t["update_latency_p50_ms"] = {a.rounds.median("update_latency_p50_ms"),
                                  "ms"};
    t["update_latency_p90_ms"] = {a.rounds.median("update_latency_p90_ms"),
                                  "ms"};
    t["restart_s"] = {pooled("restart", 0.5, 1.0), "s"};
    t["peak_rss_mb"] = {static_cast<double>(usage.ru_maxrss) / 1024.0, "MB"};
    return t;
}

MetricTable
Runner::perLayer()
{
    const Accumulator &a = acc_[1];
    MetricTable t;
    auto rounds = [&](const std::string &name, const char *unit) {
        t[name] = {a.rounds.median(name), unit};
    };
    auto pooled = [&](const std::string &name, const std::string &series,
                      double q) {
        const auto it = a.pooled.find(series);
        t[name] = {it == a.pooled.end() ? 0.0 : quantile(it->second, q),
                   "ms"};
    };
    rounds("graph.load_s", "s");
    for (const char *stage : {"preprocess", "decompose", "merge",
                              "dependency", "sketch", "partition"})
        rounds(std::string("partition.") + stage + "_s", "s");
    rounds("partition.paths", "count");
    rounds("partition.partitions", "count");
    rounds("substrate.build_s", "s");
    rounds("substrate.mb", "MB");
    for (const char *name : {"engine.run_s", "engine.run_s.pagerank",
                             "engine.run_s.adsorption", "engine.run_s.sssp",
                             "engine.run_s.kcore", "engine.compute_s",
                             "engine.barrier_s", "engine.merge_s",
                             "engine.schedule_s"})
        rounds(name, "s");
    rounds("engine.unattributed_share", "ratio");
    rounds("engine.ns_per_edge", "ns");
    for (const char *name : {"engine.edge_processings", "engine.vertex_updates",
                             "engine.rounds", "engine.waves",
                             "engine.dispatches"})
        rounds(name, "count");
    rounds("engine.useful_update_ratio", "ratio");
    rounds("engine.construct_ms", "ms");
    rounds("engine.job_state_mb", "MB");
    rounds("gpusim.compute_mcycles", "Mcycles");
    rounds("gpusim.comm_mcycles", "Mcycles");
    rounds("gpusim.utilization", "ratio");
    rounds("transport.host_mb", "MB");
    rounds("transport.ring_mb", "MB");
    rounds("transport.global_load_mb", "MB");
    rounds("transport.loaded_utilization", "ratio");
    rounds("baselines.bsp_run_s", "s");
    rounds("baselines.async_run_s", "s");
    rounds("baselines.bsp_mcycles", "Mcycles");
    rounds("baselines.async_mcycles", "Mcycles");
    pooled("service.queue_wait_p50_ms", "service.queue_wait_ms", 0.5);
    pooled("service.queue_wait_p90_ms", "service.queue_wait_ms", 0.9);
    pooled("service.parked_p50_ms", "service.parked_ms", 0.5);
    pooled("service.parked_p90_ms", "service.parked_ms", 0.9);
    pooled("service.job_overhead_p50_ms", "service.job_overhead_ms", 0.5);
    rounds("service.parks_per_job", "ratio");
    rounds("service.co_scheduled_share", "ratio");
    rounds("service.peak_running", "count");
    pooled("catalog.append_p50_ms", "catalog.append_ms", 0.5);
    pooled("catalog.append_p90_ms", "catalog.append_ms", 0.9);
    pooled("catalog.preprocess_p50_ms", "catalog.preprocess_ms", 0.5);
    rounds("catalog.live_epochs_peak", "count");
    rounds("catalog.epochs_retired", "count");
    rounds("store.commits", "count");
    rounds("store.written_mb", "MB");
    rounds("store.shards_reused_share", "ratio");
    rounds("store.disk_mb", "MB");
    rounds("store.recover_s", "s");
    rounds("trace.setup_coverage", "ratio");
    const double untraced = acc_[0].rounds.median("sweep_s");
    t["trace.overhead_ratio"] = {
        untraced > 0 ? a.rounds.median("sweep_s") / untraced : 0.0, "ratio"};
    t["error_rate"] = {attempted_ ? static_cast<double>(failed_) /
                                        static_cast<double>(attempted_)
                                  : 0.0,
                       "ratio"};
    return t;
}

RunResult
Runner::run()
{
    makeRootStore();
    const Clock::time_point start = Clock::now();
    // Untraced rounds always run: they give the end-to-end metrics, and
    // in a traced run the baseline of trace.overhead_ratio.
    auto phase = [&](bool traced, double budget, std::size_t min_rounds) {
        tracer_.setEnabled(traced);
        double measured = 0.0;
        for (std::size_t n = 0;; ++n) {
            const bool timed_out =
                n > 0 && secondsBetween(start, Clock::now()) > kLastRoundStart;
            if (timed_out || (n >= min_rounds && measured >= budget))
                break;
            measured += round();
        }
    };
    if (opt_.trace) {
        phase(false, opt_.seconds / 2, 2);
        phase(true, opt_.seconds / 2, 2);
    } else {
        phase(false, opt_.seconds, 3);
    }
    fs::remove_all(storeDir());
    fs::remove_all(rootDir());

    RunResult result;
    result.metrics = opt_.trace ? perLayer() : endToEnd();
    if (opt_.trace && !tracer_.writeJson(opt_.work_dir + "/spans.json"))
        fail("cannot write spans.json");
    for (const char *name :
         {"setup_s", "sweep_s", "sim_mcycles", "queries_per_s"})
        result.rounds_series[name] = acc_[0].rounds.values(name);
    result.attempted = attempted_;
    result.failed = failed_;
    result.rounds = rounds_;
    result.errors = errors_;
    return result;
}

} // namespace

RunResult
runWorkload(const Plan &plan, const RunOptions &options)
{
    Runner runner(plan, options);
    return runner.run();
}

} // namespace perfbench
