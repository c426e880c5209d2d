/**
 * @file
 * Command-line driver: run any system x algorithm on a dataset stand-in
 * or a graph file, print the metrics report.
 *
 * Usage:
 *   digraph_cli --algo pagerank [--system digraph] [--gpus 4]
 *               (--dataset cnr [--scale 0.4] | --graph FILE)
 *               [--source V] [--k K] [--lanes LIST] [--verbose]
 *               [--trace out.json] [--trace-csv out.csv]
 *               [--faults SPEC] [--verify]
 *               [--jobs "sssp:0,pagerank,wcc" | --serve script.jobs]
 *               [--serve-threads N] [--serve-quantum W]
 *               [--serve-budget-mb MB] [--serve-queue N]
 *               [--serve-quota N] [--serve-fifo]
 *               [--store DIR [--store-version N]]
 *               [--evolve-batches N] [--evolve-batch-size M]
 *               [--evolve-full-rebuild] [--evolve-seed S]
 *   digraph_cli --list-algorithms
 *
 * --jobs LIST is an inline --serve script (digraph system only): the
 * comma-separated "name[:param]" specs, each trimmed of surrounding
 * whitespace and with empty entries skipped, are the session's
 * requests, and everything below about --serve (the --serve-* flags,
 * --store recovery and journaling, traces, the per-job report) applies
 * unchanged. --list-algorithms prints the factory registry.
 *
 * --lanes LIST runs a batched multi-source job (digraph systems only):
 * "--algo ppr --lanes 3+7+12" solves one personalized PageRank per
 * listed seed as K value lanes of a single traversal ("--algo msbfs"
 * for multi-source BFS). LIST separates sources with ',' or '+', or
 * names a whitespace-separated seed file for ppr; max 64 lanes. Inside
 * --jobs / --serve scripts use the spec forms "ppr:3+7+12" /
 * "msbfs:3+7+12" ('+' separators survive the --jobs comma split).
 *
 * --serve runs a GraphService session (digraph system only) fed from a
 * batch script: one job per line, "SPEC [tenant=NAME] [priority=P]",
 * '#' comments. The session schedules jobs with priorities, per-tenant
 * quotas (--serve-quota), state-byte admission control
 * (--serve-budget-mb, with --serve-queue bounding the admission queue),
 * wave-boundary preemption every --serve-quantum waves, and worklist
 * co-scheduling; --serve-fifo disables preemption and co-scheduling
 * (plain FIFO within priority, for comparison). With --trace/--trace-csv
 * the base path gets the scheduler events (job_admit/grant/park/done)
 * and each job gets a ".<id>-<spec>"-suffixed file pair.
 *
 * A script line "update FILE [tenant=..] [priority=..]" submits a
 * live-graph update (DESIGN.md §18): FILE's edge batch is ingested as
 * the next substrate epoch concurrently with running queries. Queries
 * granted before the update completes run on their pinned epoch,
 * bit-identical to a cold run on that snapshot; queries granted after
 * run on the new one. With --store each committed epoch also lands on
 * disk as a topology version chained to its parent, so a killed
 * session restarts on the latest committed epoch (and replays pending
 * jobs from the WAL). "--store DIR --store-gc [--store-gc-keep N]"
 * prunes versions unreachable from the newest N lineage heads.
 *
 * --store DIR attaches the crash-consistent versioned store (DESIGN.md
 * §16, digraph systems only). A run warm-starts from the newest
 * on-disk topology version whose checksums verify for the loaded graph
 * (skipping the whole decomposition pipeline) and falls back to a cold
 * preprocess + commit when nothing verifies. When nothing verifies but
 * a version was committed for a graph of the loaded graph's size, its
 * files failed to read: the run exits 1 and writes nothing, since a
 * fresh root would orphan every epoch chained from the unreadable one.
 * --store-version pins an exact version instead (fatal when it does
 * not verify). Single runs additionally flush merge-barrier checkpoints
 * through the store and --serve / --jobs sessions journal
 * admitted/completed jobs to DIR/jobs.wal, re-admitting the pending set
 * on restart.
 *
 * --faults takes a deterministic injection plan (digraph systems only),
 * e.g. "seed=7,device=1@50000,xfer=0.01,smx=0.3@20000x16"; --verify runs
 * the post-run invariant checker and aborts on violation.
 *
 * --evolve-batches drives the evolving engine (digraph systems only):
 * after a cold run, N batches of random edge insertions are applied,
 * each followed by a warm re-run; per-batch ingestion timings (graph
 * extension, preprocessing, engine build) are printed. Incremental
 * ingestion is the default; --evolve-full-rebuild switches to the full
 * per-batch rebuild baseline.
 *
 * Systems: digraph (default), digraph-t, digraph-w, gunrock, groute,
 *          sequential. The baselines (gunrock, groute, sequential) run
 *          one --algo job; they reject --jobs, --serve, --lanes,
 *          --evolve-batches, --verify, --store and --faults.
 * Formats for --graph: .mtx, .graph (METIS), .gr (DIMACS), .bin
 * (native), else plain edge list.
 */

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <utility>

#include "algorithms/factory.hpp"
#include "algorithms/kcore.hpp"
#include "algorithms/reachability.hpp"
#include "algorithms/sssp.hpp"
#include "baselines/async_engine.hpp"
#include "baselines/bsp_engine.hpp"
#include "baselines/sequential.hpp"
#include "common/logging.hpp"
#include "common/parse.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "engine/digraph_engine.hpp"
#include "engine/evolving.hpp"
#include "engine/graph_service.hpp"
#include "graph/formats.hpp"
#include "graph/generators.hpp"
#include "graph/properties.hpp"
#include "metrics/trace.hpp"
#include "partition/preprocess.hpp"
#include "storage/durable_store.hpp"

namespace {

using namespace digraph;

struct Options
{
    std::string system = "digraph";
    std::string algo = "pagerank";
    std::string dataset;
    std::string graph_file;
    double scale = 0.4;
    unsigned gpus = 4;
    VertexId source = 0;
    unsigned k = 3;
    std::string lanes;
    bool verbose = false;
    std::string trace_json;
    std::string trace_csv;
    std::string faults;
    bool verify = false;
    std::string jobs;
    std::string serve_script;
    std::size_t serve_threads = 0;
    std::uint64_t serve_quantum = 4;
    std::size_t serve_budget_mb = 0;
    std::size_t serve_queue = 0;
    std::size_t serve_quota = 0;
    bool serve_fifo = false;
    std::string store_dir;
    std::uint64_t store_version = 0;
    bool store_gc = false;
    std::size_t store_gc_keep = 1;
    std::size_t evolve_batches = 0;
    std::size_t evolve_batch_size = 512;
    bool evolve_full_rebuild = false;
    std::uint64_t evolve_seed = 4242;
};

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s --algo NAME [--system NAME] [--gpus N]\n"
        "          (--dataset NAME [--scale S] | --graph FILE)\n"
        "          [--source V] [--k K] [--lanes LIST] [--verbose]\n"
        "          [--trace out.json] [--trace-csv out.csv]\n"
        "          [--faults SPEC] [--verify]\n"
        "          [--jobs \"sssp:0,pagerank,wcc\" | --serve script.jobs]\n"
        "          [--serve-threads N] [--serve-quantum W]\n"
        "          [--serve-budget-mb MB] [--serve-queue N]\n"
        "          [--serve-quota N] [--serve-fifo]\n"
        "          [--store DIR [--store-version N]]\n"
        "          [--evolve-batches N] [--evolve-batch-size M]\n"
        "          [--evolve-full-rebuild] [--evolve-seed S]\n"
        "       %s --store DIR --store-gc [--store-gc-keep N]\n"
        "       %s --list-algorithms\n"
        "algorithms: pagerank adsorption sssp kcore katz bfs wcc hits\n"
        "            reachability; ppr/msbfs with --lanes LIST\n"
        "            (LIST = \"3,7,12\" or \"3+7+12\" or a seed file\n"
        "            for ppr; one value lane per source, max 64)\n"
        "systems:    digraph digraph-t digraph-w gunrock groute "
        "sequential\n"
        "datasets:   dblp cnr ljournal webbase it04 twitter\n",
        argv0, argv0, argv0);
    std::exit(2);
}

/** Print the factory registry: one row per algorithm with its
 *  incremental-ingestion support and convergence epsilon. */
[[noreturn]] void
listAlgorithms()
{
    // Some algorithms precompute per-graph tables at construction; a
    // tiny generated graph serves as the probe instance.
    graph::GeneratorConfig c;
    c.num_vertices = 8;
    c.num_edges = 16;
    c.seed = 1;
    const graph::DirectedGraph g = graph::generate(c);
    std::printf("%-12s %-12s %s\n", "algorithm", "incremental",
                "epsilon");
    for (const auto &name : algorithms::allAlgorithmNames()) {
        const auto algo = algorithms::makeAlgorithm(name, g);
        std::printf("%-12s %-12s %.3g\n", name.c_str(),
                    algo->supportsIncremental() ? "yes" : "no",
                    algo->epsilon());
    }
    std::exit(0);
}

Options
parse(int argc, char **argv)
{
    Options opts;
    auto need = [&](int &i) -> const char * {
        if (i + 1 >= argc)
            usage(argv[0]);
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--system")
            opts.system = need(i);
        else if (arg == "--algo")
            opts.algo = need(i);
        else if (arg == "--dataset")
            opts.dataset = need(i);
        else if (arg == "--graph")
            opts.graph_file = need(i);
        else if (arg == "--scale")
            opts.scale = common::parseDouble(need(i), "--scale");
        else if (arg == "--gpus")
            opts.gpus = static_cast<unsigned>(common::parseUnsigned(
                need(i), "--gpus",
                std::numeric_limits<unsigned>::max()));
        else if (arg == "--source")
            opts.source = static_cast<VertexId>(common::parseUnsigned(
                need(i), "--source",
                std::numeric_limits<VertexId>::max()));
        else if (arg == "--k")
            opts.k = static_cast<unsigned>(common::parseUnsigned(
                need(i), "--k", std::numeric_limits<unsigned>::max()));
        else if (arg == "--lanes")
            opts.lanes = need(i);
        else if (arg == "--verbose")
            opts.verbose = true;
        else if (arg == "--trace")
            opts.trace_json = need(i);
        else if (arg == "--trace-csv")
            opts.trace_csv = need(i);
        else if (arg == "--faults")
            opts.faults = need(i);
        else if (arg == "--verify")
            opts.verify = true;
        else if (arg == "--jobs")
            opts.jobs = need(i);
        else if (arg == "--serve")
            opts.serve_script = need(i);
        else if (arg == "--serve-threads")
            opts.serve_threads = static_cast<std::size_t>(
                common::parseUnsigned(need(i), "--serve-threads"));
        else if (arg == "--serve-quantum")
            opts.serve_quantum =
                common::parseUnsigned(need(i), "--serve-quantum");
        else if (arg == "--serve-budget-mb")
            opts.serve_budget_mb = static_cast<std::size_t>(
                common::parseUnsigned(need(i), "--serve-budget-mb"));
        else if (arg == "--serve-queue")
            opts.serve_queue = static_cast<std::size_t>(
                common::parseUnsigned(need(i), "--serve-queue"));
        else if (arg == "--serve-quota")
            opts.serve_quota = static_cast<std::size_t>(
                common::parseUnsigned(need(i), "--serve-quota"));
        else if (arg == "--serve-fifo")
            opts.serve_fifo = true;
        else if (arg == "--store")
            opts.store_dir = need(i);
        else if (arg == "--store-version")
            opts.store_version =
                common::parseUnsigned(need(i), "--store-version");
        else if (arg == "--store-gc")
            opts.store_gc = true;
        else if (arg == "--store-gc-keep")
            opts.store_gc_keep = static_cast<std::size_t>(
                common::parseUnsigned(need(i), "--store-gc-keep"));
        else if (arg == "--list-algorithms")
            listAlgorithms();
        else if (arg == "--evolve-batches")
            opts.evolve_batches = static_cast<std::size_t>(
                common::parseUnsigned(need(i), "--evolve-batches"));
        else if (arg == "--evolve-batch-size")
            opts.evolve_batch_size = static_cast<std::size_t>(
                common::parseUnsigned(need(i), "--evolve-batch-size"));
        else if (arg == "--evolve-full-rebuild")
            opts.evolve_full_rebuild = true;
        else if (arg == "--evolve-seed")
            opts.evolve_seed =
                common::parseUnsigned(need(i), "--evolve-seed");
        else
            usage(argv[0]);
    }
    // --store-gc is a maintenance mode that needs no graph input.
    if (!opts.store_gc && opts.dataset.empty() == opts.graph_file.empty())
        usage(argv[0]); // exactly one input source
    return opts;
}

graph::DirectedGraph
loadInput(const Options &opts)
{
    if (!opts.graph_file.empty())
        return graph::loadAnyFormat(opts.graph_file);
    for (const auto d : graph::allDatasets()) {
        if (graph::datasetName(d) == opts.dataset)
            return graph::makeDataset(d, opts.scale);
    }
    fatal("unknown dataset '", opts.dataset, "'");
}

algorithms::AlgorithmPtr
makeAlgo(const Options &opts, const graph::DirectedGraph &g)
{
    if (!opts.lanes.empty()) {
        if (opts.algo != "ppr" && opts.algo != "msbfs") {
            fatal("digraph_cli: --lanes requires --algo ppr or "
                  "--algo msbfs (got '",
                  opts.algo, "')");
        }
        return algorithms::makeAlgorithmSpec(
            opts.algo + ":" + opts.lanes, g);
    }
    if (opts.algo == "ppr" || opts.algo == "msbfs") {
        fatal("digraph_cli: --algo ", opts.algo,
              " needs --lanes LIST (one source per value lane)");
    }
    // A spec with an inline parameter goes straight to the factory
    // ("--algo sssp:5" == "--algo sssp --source 5").
    if (opts.algo.find(':') != std::string::npos)
        return algorithms::makeAlgorithmSpec(opts.algo, g);
    if (opts.algo == "sssp")
        return std::make_shared<algorithms::Sssp>(opts.source);
    if (opts.algo == "bfs")
        return std::make_shared<algorithms::Bfs>(opts.source);
    if (opts.algo == "reachability") {
        return std::make_shared<algorithms::Reachability>(
            std::vector<VertexId>{opts.source});
    }
    if (opts.algo == "kcore")
        return std::make_shared<algorithms::KCore>(opts.k);
    return algorithms::makeAlgorithm(opts.algo, g);
}

void
printReport(const metrics::RunReport &r, double preprocess_s)
{
    std::printf("system        %s\n", r.system.c_str());
    std::printf("algorithm     %s\n", r.algorithm.c_str());
    std::printf("gpus          %u\n", r.num_gpus);
    std::printf("partitions    %llu\n",
                static_cast<unsigned long long>(r.num_partitions));
    if (r.value_lanes > 1) {
        std::printf("lanes         %u\n", r.value_lanes);
        for (std::size_t l = 0; l < r.lane_converged_wave.size(); ++l) {
            std::printf("lane %-8zu converged after wave %llu\n", l,
                        static_cast<unsigned long long>(
                            r.lane_converged_wave[l]));
        }
    }
    std::printf("updates       %llu\n",
                static_cast<unsigned long long>(r.vertex_updates));
    std::printf("edge procs    %llu\n",
                static_cast<unsigned long long>(r.edge_processings));
    std::printf("rounds        %llu\n",
                static_cast<unsigned long long>(r.rounds));
    std::printf("sim cycles    %.4g\n", r.sim_cycles);
    std::printf("utilization   %.1f%%\n", r.utilization * 100.0);
    std::printf("traffic       %.3f MB\n",
                static_cast<double>(r.trafficVolume()) / 1e6);
    std::printf("loaded-data   %.4f updates/slot\n",
                r.loadedDataUtilization());
    std::printf("preprocess    %.3f s\n", preprocess_s);
    std::printf("wall          %.3f s\n", r.wall_seconds);
    if (r.faults_injected || r.transfer_retries || r.checkpoints ||
        r.recoveries) {
        std::printf("faults        %llu injected\n",
                    static_cast<unsigned long long>(r.faults_injected));
        std::printf("xfer retries  %llu\n",
                    static_cast<unsigned long long>(r.transfer_retries));
        std::printf("checkpoints   %llu\n",
                    static_cast<unsigned long long>(r.checkpoints));
        std::printf("recoveries    %llu\n",
                    static_cast<unsigned long long>(r.recoveries));
    }
}

/** Fail fast on an unwritable trace path: probe it before the run so a
 *  typo'd directory costs seconds, not a full simulation. */
void
probeWritable(const std::string &path)
{
    if (path.empty())
        return;
    std::ofstream probe(path, std::ios::app);
    if (!probe)
        fatal("digraph_cli: cannot write trace output '", path, "'");
}

/** Write the requested trace exports; no-op when neither was asked. */
void
writeTraces(const metrics::TraceSink &sink, const Options &opts)
{
    if (!opts.trace_json.empty())
        sink.writeChromeJson(opts.trace_json);
    if (!opts.trace_csv.empty())
        sink.writeCsv(opts.trace_csv);
}

/** Per-job trace path: ".<id>-<sanitized spec>" inserted before the
 *  extension (or appended), so "t.json" -> "t.0-sssp_5.json". */
std::string
jobTracePath(const std::string &base, std::uint64_t id,
             const std::string &spec)
{
    std::string tag = spec;
    for (char &c : tag) {
        if (!std::isalnum(static_cast<unsigned char>(c)))
            c = '_';
    }
    const std::string suffix = "." + std::to_string(id) + "-" + tag;
    const std::size_t dot = base.rfind('.');
    const std::size_t slash = base.rfind('/');
    std::string out = base;
    if (dot != std::string::npos &&
        (slash == std::string::npos || dot > slash))
        out.insert(dot, suffix);
    else
        out += suffix;
    return out;
}

/** Export every job's private trace to its own file pair. */
void
writeJobTraces(const std::vector<engine::JobResult> &results,
               const Options &opts)
{
    for (const auto &job : results) {
        if (!job.trace)
            continue;
        if (!opts.trace_json.empty()) {
            job.trace->writeChromeJson(
                jobTracePath(opts.trace_json, job.id, job.spec));
        }
        if (!opts.trace_csv.empty()) {
            job.trace->writeCsv(
                jobTracePath(opts.trace_csv, job.id, job.spec));
        }
    }
}

/** Whether @p name is a factory algorithm. ppr/msbfs are spec-only
 *  (they need a source list), so they are not in the parameterless
 *  factory registry. */
bool
knownAlgorithm(const std::string &name)
{
    const auto known = algorithms::allAlgorithmNames();
    return name == "ppr" || name == "msbfs" ||
           std::find(known.begin(), known.end(), name) != known.end();
}

/** "file:line: message" prefix for --serve script diagnostics. */
[[noreturn]] void
scriptError(const std::string &path, std::size_t line_no,
            const std::string &line, const std::string &message)
{
    fatal("digraph_cli: ", path, ":", line_no, ": ", message,
          " in line '", line, "'");
}

/** Parse a --serve batch script: one job per line,
 *  "SPEC [tenant=NAME] [priority=P]", '#' starts a comment. A line
 *  "update FILE [tenant=..] [priority=..]" submits a live-graph update
 *  job that ingests FILE's edge batch as the next substrate epoch.
 *  Every diagnostic carries the script name and line number; unknown
 *  key=value annotations and unknown algorithm names are rejected
 *  here, before any substrate is built. */
std::vector<engine::JobRequest>
parseServeScript(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("digraph_cli: cannot read --serve script '", path, "'");
    std::vector<engine::JobRequest> requests;
    std::string raw;
    std::size_t line_no = 0;
    while (std::getline(in, raw)) {
        ++line_no;
        std::string line = raw;
        const std::size_t hash = line.find('#');
        if (hash != std::string::npos)
            line.resize(hash);
        std::istringstream tokens(line);
        engine::JobRequest request;
        bool have_spec = false;
        bool await_update_file = false;
        std::string tok;
        while (tokens >> tok) {
            const std::size_t eq = tok.find('=');
            if (await_update_file) {
                request.spec = std::string(engine::kUpdateSpecPrefix) +
                               tok;
                await_update_file = false;
                have_spec = true;
            } else if (!have_spec && tok == "update") {
                await_update_file = true;
            } else if (tok.rfind("tenant=", 0) == 0) {
                request.tenant = tok.substr(7);
                if (request.tenant.empty())
                    scriptError(path, line_no, raw,
                                "empty tenant= annotation");
            } else if (tok.rfind("priority=", 0) == 0) {
                const std::string value = tok.substr(9);
                char *end = nullptr;
                request.priority = static_cast<int>(
                    std::strtol(value.c_str(), &end, 10));
                if (value.empty() || end == nullptr || *end != '\0')
                    scriptError(path, line_no, raw,
                                "malformed priority= annotation '" +
                                    value + "'");
            } else if (eq != std::string::npos && have_spec) {
                // A key=value after the spec can only be an annotation,
                // and only tenant=/priority= exist.
                scriptError(path, line_no, raw,
                            "unknown annotation '" + tok.substr(0, eq) +
                                "=' (expected tenant= or priority=)");
            } else if (!have_spec) {
                request.spec = tok;
                have_spec = true;
            } else {
                scriptError(path, line_no, raw,
                            "unexpected token '" + tok +
                                "' after the job spec");
            }
        }
        if (await_update_file)
            scriptError(path, line_no, raw,
                        "'update' needs an edge-batch file argument");
        if (!have_spec)
            continue;
        if (!engine::isUpdateSpec(request.spec)) {
            // Validate the algorithm name now: a typo should name the
            // script line, not abort mid-session at submission time.
            const std::string name =
                request.spec.substr(0, request.spec.find(':'));
            if (!knownAlgorithm(name)) {
                scriptError(path, line_no, raw,
                            "unknown algorithm '" + name + "'");
            }
        }
        requests.push_back(request);
    }
    if (requests.empty()) {
        fatal("digraph_cli: --serve script '", path,
              "' contains no jobs");
    }
    return requests;
}

/** Parse a --jobs list: comma-separated specs, trimmed, with empty
 *  entries (trailing or doubled commas) skipped. As for a --serve
 *  script, an unknown algorithm or an empty list is fatal here, before
 *  any substrate is built. */
std::vector<engine::JobRequest>
parseJobList(const std::string &list)
{
    std::vector<engine::JobRequest> requests;
    std::istringstream entries(list);
    std::string spec;
    while (std::getline(entries, spec, ',')) {
        const std::size_t first = spec.find_first_not_of(" \t");
        if (first == std::string::npos)
            continue;
        spec = spec.substr(first,
                           spec.find_last_not_of(" \t") - first + 1);
        const std::string name = spec.substr(0, spec.find(':'));
        if (!engine::isUpdateSpec(spec) && !knownAlgorithm(name))
            fatal("digraph_cli: --jobs: unknown algorithm '", name, "'");
        requests.push_back(engine::JobRequest{spec});
    }
    if (requests.empty())
        fatal("digraph_cli: no job specs in --jobs list '", list, "'");
    return requests;
}

/**
 * Called when recovery found nothing for @p g: exit 1 when @p store
 * still holds a version committed for a graph with @p g's vertex and
 * edge counts. That version's files failed to read, and a cold start
 * would commit a fresh root that every later restart anchors on,
 * abandoning the epochs chained from it. A store holding only other
 * graphs' versions returns (cold start).
 */
void
refuseLostRoot(const storage::DurableStore &store,
               const graph::DirectedGraph &g)
{
    const auto versions = store.listVersions();
    for (auto it = versions.rbegin(); it != versions.rend(); ++it) {
        const auto m = store.readManifest(*it);
        if (m && m->vertices == g.numVertices() &&
            m->edges == g.numEdges()) {
            fatal("digraph_cli: --store: version ", *it, " in '",
                  store.dir(),
                  "' was committed for this graph but does not "
                  "verify; restore its files rather than cold-start "
                  "over its epoch chain");
        }
    }
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opts = parse(argc, argv);
    if (opts.store_gc) {
        // Maintenance mode: prune store versions unreachable from the
        // newest --store-gc-keep lineage heads, then exit.
        if (opts.store_dir.empty())
            fatal("digraph_cli: --store-gc requires --store DIR");
        storage::DurableStore store(opts.store_dir);
        const auto gc = store.gcVersions(opts.store_gc_keep);
        std::printf("store-gc      kept %zu version(s) across %zu "
                    "head(s), removed %zu version(s) / %zu shard(s) "
                    "(%.3f MB)\n",
                    gc.kept_versions, gc.kept_heads,
                    gc.removed_versions, gc.removed_shards,
                    static_cast<double>(gc.removed_bytes) / 1e6);
        return 0;
    }
    const bool want_trace =
        !opts.trace_json.empty() || !opts.trace_csv.empty();
    probeWritable(opts.trace_json);
    probeWritable(opts.trace_csv);

    const bool digraph_system = opts.system == "digraph" ||
                                opts.system == "digraph-t" ||
                                opts.system == "digraph-w";
    if (!opts.store_dir.empty()) {
        if (!digraph_system) {
            fatal("digraph_cli: --store requires a digraph system "
                  "(the durable store holds path/partition shards '",
                  opts.system, "' has no use for)");
        }
        if (opts.evolve_batches > 0) {
            fatal("digraph_cli: --store and --evolve-batches are "
                  "mutually exclusive");
        }
    }
    if (opts.store_version != 0 && opts.store_dir.empty())
        fatal("digraph_cli: --store-version requires --store");

    gpusim::FaultPlan fault_plan;
    if (!opts.faults.empty()) {
        if (!digraph_system) {
            fatal("digraph_cli: --faults requires a digraph system "
                  "(fault tolerance is not implemented for '",
                  opts.system, "')");
        }
        std::string err;
        fault_plan = gpusim::FaultPlan::parse(opts.faults, err);
        if (!err.empty())
            fatal("digraph_cli: --faults: ", err);
    }
    if (opts.system == "gunrock" || opts.system == "groute" ||
        opts.system == "sequential") {
        // A baseline system runs the one --algo job on its own engine;
        // each of these flags drives digraph-only machinery.
        const std::pair<bool, const char *> digraph_only[] = {
            {!opts.jobs.empty(), "--jobs"},
            {!opts.serve_script.empty(), "--serve"},
            {!opts.lanes.empty(), "--lanes"},
            {opts.evolve_batches > 0, "--evolve-batches"},
            {opts.verify, "--verify"},
        };
        for (const auto &[given, flag] : digraph_only) {
            if (given) {
                fatal("digraph_cli: ", flag,
                      " requires a digraph system (the '", opts.system,
                      "' baseline runs a single --algo job)");
            }
        }
    }

    const graph::DirectedGraph g = loadInput(opts);
    if (opts.verbose) {
        std::printf("graph: %s\n",
                    graph::describe(graph::measureProperties(g, 8))
                        .c_str());
    }
    const auto algo = makeAlgo(opts, g);

    gpusim::PlatformConfig platform;
    platform.num_devices = opts.gpus;

    metrics::TraceSink sink;

    if (opts.system == "sequential") {
        // The report is exported through CounterRegistry like every
        // other engine family (no simulated timeline).
        const auto result = baselines::runSequential(
            g, *algo, want_trace ? &sink : nullptr);
        if (want_trace)
            writeTraces(sink, opts);
        printReport(result.report, 0.0);
        return 0;
    }
    if (opts.system == "gunrock") {
        baselines::BaselineOptions bopts;
        bopts.platform = platform;
        bopts.trace = want_trace ? &sink : nullptr;
        if (const std::string err = bopts.validate(); !err.empty())
            fatal("digraph_cli: ", err);
        const auto report = baselines::runBsp(g, *algo, bopts);
        if (want_trace)
            writeTraces(sink, opts);
        printReport(report, 0.0);
        return 0;
    }
    if (opts.system == "groute") {
        baselines::BaselineOptions bopts;
        bopts.platform = platform;
        bopts.trace = want_trace ? &sink : nullptr;
        if (const std::string err = bopts.validate(); !err.empty())
            fatal("digraph_cli: ", err);
        const auto result = baselines::runAsync(g, *algo, bopts);
        if (want_trace)
            writeTraces(sink, opts);
        printReport(result.report, 0.0);
        return 0;
    }

    engine::EngineOptions eopts;
    eopts.platform = platform;
    eopts.trace = want_trace ? &sink : nullptr;
    eopts.faults = fault_plan;
    eopts.verify_invariants = opts.verify;
    if (opts.system == "digraph-t")
        eopts.mode = engine::ExecutionMode::VertexAsync;
    else if (opts.system == "digraph-w")
        eopts.mode = engine::ExecutionMode::PathNoSched;
    else if (opts.system != "digraph")
        usage(argv[0]);
    if (const std::string err = eopts.validate(); !err.empty())
        fatal("digraph_cli: ", err);
    if (opts.verbose && !fault_plan.empty())
        std::printf("faults: %s\n", fault_plan.describe().c_str());

    // Durable store (DESIGN.md §16): warm-start the substrate from the
    // newest verifying on-disk version, or cold-preprocess and commit
    // so the NEXT run is warm.
    std::unique_ptr<storage::DurableStore> store;
    std::shared_ptr<const engine::EngineSubstrate> sub;
    std::uint64_t store_version = 0;
    if (!opts.store_dir.empty()) {
        store = std::make_unique<storage::DurableStore>(opts.store_dir);
        if (want_trace)
            store->setTrace(&sink);
    }
    // --serve and --jobs sessions recover through the epoch chain
    // instead (below); this substrate-level warm start serves single
    // runs only.
    const bool serving = !opts.serve_script.empty() || !opts.jobs.empty();
    if (store && !serving) {
        store_version = opts.store_version
                            ? opts.store_version
                            : store->recoverVersion(&g);
        if (store_version != 0) {
            if (auto pre = store->loadTopology(store_version, g)) {
                sub = engine::EngineSubstrate::build(g,
                                                     std::move(*pre));
                std::printf("store         warm start from '%s' "
                            "version %llu (decomposition skipped)\n",
                            opts.store_dir.c_str(),
                            static_cast<unsigned long long>(
                                store_version));
            } else if (opts.store_version != 0) {
                fatal("digraph_cli: --store-version ",
                      opts.store_version,
                      " does not verify against the loaded graph");
            } else {
                store_version = 0;
            }
        }
        if (!sub) {
            refuseLostRoot(*store, g);
            eopts.resolvePartitionBudget(g.numEdges());
            sub = engine::EngineSubstrate::build(
                g, partition::preprocess(g, eopts.preprocess));
            store_version = sub->saveTo(*store, g);
            if (store_version == 0) {
                fatal("digraph_cli: --store: topology commit to '",
                      opts.store_dir, "' failed");
            }
            std::printf("store         cold start, committed "
                        "version %llu to '%s'\n",
                        static_cast<unsigned long long>(store_version),
                        opts.store_dir.c_str());
        }
    }

    if (serving) {
        const char *flag = opts.jobs.empty() ? "--serve" : "--jobs";
        if (opts.system != "digraph")
            fatal("digraph_cli: ", flag, " requires --system digraph");
        if (!opts.serve_script.empty() && !opts.jobs.empty())
            fatal("digraph_cli: --serve and --jobs are mutually "
                  "exclusive");
        if (opts.evolve_batches > 0)
            fatal("digraph_cli: ", flag, " and --evolve-batches are "
                  "mutually exclusive");
        const auto requests = opts.jobs.empty()
                                  ? parseServeScript(opts.serve_script)
                                  : parseJobList(opts.jobs);
        engine::ServiceConfig sconfig;
        sconfig.session_threads = opts.serve_threads;
        sconfig.quantum_waves =
            opts.serve_fifo ? 0 : opts.serve_quantum;
        sconfig.co_schedule = !opts.serve_fifo;
        sconfig.state_budget_bytes = opts.serve_budget_mb * 1000000ull;
        sconfig.max_queued_jobs = opts.serve_queue;
        sconfig.tenant_quota = opts.serve_quota;
        sconfig.with_traces = want_trace;
        sconfig.trace = want_trace ? &sink : nullptr;

        // Epoch-chain recovery (DESIGN.md §18): restart on the deepest
        // fully committed topology version — the root plus every
        // verifying delta an update job committed before the crash —
        // and chain the session's future epochs from it. --store-version
        // pins the root epoch to an exact version instead.
        std::unique_ptr<engine::SubstrateCatalog> catalog;
        if (store) {
            sconfig.store = store.get();
            if (opts.store_version) {
                auto pre = store->loadTopology(opts.store_version, g);
                if (!pre) {
                    fatal("digraph_cli: --store-version ",
                          opts.store_version,
                          " does not verify against the loaded graph");
                }
                sub = engine::EngineSubstrate::build(g,
                                                     std::move(*pre));
                sconfig.store_version = opts.store_version;
                std::printf("store         warm start from '%s' "
                            "version %llu (pinned)\n",
                            opts.store_dir.c_str(),
                            static_cast<unsigned long long>(
                                opts.store_version));
            } else {
                catalog = engine::SubstrateCatalog::openFrom(
                    *store, g, eopts, sconfig.catalog);
                if (catalog) {
                    std::printf("store         warm start from '%s' "
                                "epoch version %llu (decomposition "
                                "skipped)\n",
                                opts.store_dir.c_str(),
                                static_cast<unsigned long long>(
                                    catalog->currentStoreVersion()));
                } else {
                    refuseLostRoot(*store, g);
                    catalog =
                        std::make_unique<engine::SubstrateCatalog>(
                            g, eopts, sconfig.catalog, store.get());
                    if (catalog->currentStoreVersion() == 0) {
                        fatal("digraph_cli: --store: topology commit "
                              "to '",
                              opts.store_dir, "' failed");
                    }
                    std::printf("store         cold start, committed "
                                "version %llu to '%s'\n",
                                static_cast<unsigned long long>(
                                    catalog->currentStoreVersion()),
                                opts.store_dir.c_str());
                }
            }
        }

        // With a store, admitted jobs a crashed session never finished
        // are replayed from the WAL in front of the script's jobs. The
        // WAL is compacted (atomic rewrite to exactly the pending set)
        // rather than deleted, and each resumed job adopts its surviving
        // record via journal_id — so a crash at any point of the restart
        // replays the same pending set instead of losing it. Compaction
        // follows recovery, so a refused restart leaves the WAL as is.
        std::unique_ptr<storage::JobJournal> journal;
        std::vector<storage::JobJournal::PendingJob> resumed;
        if (store) {
            journal = std::make_unique<storage::JobJournal>(
                store->journalPath());
            resumed = journal->replay();
            if (!journal->compact(resumed)) {
                std::printf("store         WARNING: journal compaction "
                            "failed; keeping the old WAL\n");
            }
            sconfig.journal = journal.get();
        }
        auto service_ptr =
            catalog
                ? std::make_unique<engine::GraphService>(
                      std::move(catalog), eopts, sconfig)
                : sub ? std::make_unique<engine::GraphService>(
                            g, sub, eopts, sconfig)
                      : std::make_unique<engine::GraphService>(
                            g, eopts, sconfig);
        engine::GraphService &service = *service_ptr;
        std::printf("service       %zu jobs, %zu threads, quantum %llu "
                    "waves%s\n",
                    requests.size(), service.sessionThreads(),
                    static_cast<unsigned long long>(
                        sconfig.quantum_waves),
                    opts.serve_fifo ? " (fifo)" : "");
        std::printf("shared bytes  %.3f MB\n",
                    static_cast<double>(service.sharedBytes()) / 1e6);
        if (!resumed.empty()) {
            std::printf("store         resumed %zu journaled job(s)\n",
                        resumed.size());
            for (const auto &p : resumed) {
                engine::JobRequest request;
                request.spec = p.spec;
                request.priority = p.priority;
                if (!p.tenant.empty())
                    request.tenant = p.tenant;
                request.journal_id = p.id; // adopt the compacted record
                service.addJobAsync(request);
            }
        }
        for (const auto &request : requests)
            service.addJobAsync(request);
        for (engine::JobId id = 0; id < service.numJobs(); ++id) {
            const auto status = service.poll(id);
            if (status.state == engine::JobState::Rejected) {
                std::printf("--- job %s REJECTED: %s\n",
                            status.spec.c_str(),
                            status.detail.c_str());
            }
        }
        const auto results = service.drain();
        for (const auto &job : results) {
            if (engine::isUpdateSpec(job.spec)) {
                std::printf(
                    "--- update %s tenant=%s priority=%d -> epoch "
                    "%llu\n",
                    job.spec.c_str() +
                        std::strlen(engine::kUpdateSpecPrefix),
                    job.tenant.c_str(), job.priority,
                    static_cast<unsigned long long>(job.epoch));
                std::printf(
                    "ingest        %.4f s (preprocess %.4f s), "
                    "epochs +%llu, store commits %llu (fails %llu)\n",
                    job.report.wall_seconds,
                    job.report.preprocess_seconds,
                    static_cast<unsigned long long>(
                        job.report.epoch_commits),
                    static_cast<unsigned long long>(
                        job.report.store_commits),
                    static_cast<unsigned long long>(
                        job.report.store_commit_fails));
                continue;
            }
            std::printf("--- job %s tenant=%s priority=%d parked=%llu "
                        "epoch=%llu (%.3f MB private state)\n",
                        job.spec.c_str(), job.tenant.c_str(),
                        job.priority,
                        static_cast<unsigned long long>(
                            job.times_parked),
                        static_cast<unsigned long long>(job.epoch),
                        static_cast<double>(job.job_state_bytes) / 1e6);
            printReport(job.report,
                        service.substrate()->pre.timings.total());
        }
        const auto cstats = service.catalog().stats();
        std::printf(
            "epochs        current=%llu store_version=%llu live=%zu "
            "created=%llu retired=%llu\n",
            static_cast<unsigned long long>(service.currentEpoch()),
            static_cast<unsigned long long>(
                service.catalog().currentStoreVersion()),
            service.catalog().liveEpochs(),
            static_cast<unsigned long long>(cstats.epochs_created),
            static_cast<unsigned long long>(cstats.epochs_retired));
        const auto stats = service.stats();
        std::printf(
            "scheduler     admitted=%llu rejected=%llu grants=%llu "
            "co=%llu parks=%llu peak_jobs=%zu peak_state=%.3f MB\n",
            static_cast<unsigned long long>(stats.admitted),
            static_cast<unsigned long long>(stats.rejected),
            static_cast<unsigned long long>(stats.grants),
            static_cast<unsigned long long>(stats.co_scheduled_grants),
            static_cast<unsigned long long>(stats.parks),
            stats.peak_running,
            static_cast<double>(stats.peak_inflight_bytes) / 1e6);
        if (want_trace) {
            // Base path: the scheduler events; each job: its own pair.
            writeTraces(sink, opts);
            writeJobTraces(results, opts);
        }
        return 0;
    }
    if (opts.evolve_batches > 0) {
        if (opts.algo == "adsorption") {
            fatal("digraph_cli: --evolve-batches does not support "
                  "adsorption (its per-edge weights are bound to the "
                  "construction-time graph)");
        }
        engine::CatalogOptions evolve;
        evolve.incremental = !opts.evolve_full_rebuild;
        engine::EvolvingEngine evolving(g, eopts, evolve);
        evolving.run(*algo);
        SplitMix64 rng(opts.evolve_seed);
        double total_ingest = 0.0;
        metrics::RunReport last;
        for (std::size_t b = 0; b < opts.evolve_batches; ++b) {
            std::vector<graph::Edge> batch;
            batch.reserve(opts.evolve_batch_size);
            const VertexId n = evolving.graph().numVertices();
            while (batch.size() < opts.evolve_batch_size) {
                const auto s =
                    static_cast<VertexId>(rng.nextBounded(n));
                const auto d =
                    static_cast<VertexId>(rng.nextBounded(n));
                if (s != d)
                    batch.push_back(
                        {s, d, 1.0 + rng.nextDouble() * 9.0});
            }
            const auto step = evolving.insertAndRun(*algo, batch);
            total_ingest += step.ingestSeconds();
            std::printf(
                "batch %zu: +%zu edges, %s, %s, graph %.4fs, "
                "preprocess %.4fs, engine %.4fs (paths %u reused / "
                "%u new)\n",
                b, step.inserted_edges,
                step.incremental ? "incremental" : "full rebuild",
                step.warm ? "warm" : "cold", step.graph_seconds,
                step.preprocess_seconds, step.engine_seconds,
                step.reused_paths, step.new_paths);
            last = step.run;
        }
        std::printf("total ingestion  %.3f s over %zu batches\n",
                    total_ingest, opts.evolve_batches);
        if (want_trace)
            writeTraces(sink, opts);
        printReport(last, total_ingest);
        return 0;
    }
    if (store) {
        // Single runs flush merge-barrier checkpoints through the
        // store, chained on the committed topology version.
        eopts.store = store.get();
        eopts.store_parent = store_version;
    }
    auto eng_ptr =
        sub ? std::make_unique<engine::DiGraphEngine>(g, sub, eopts)
            : std::make_unique<engine::DiGraphEngine>(g, eopts);
    engine::DiGraphEngine &eng = *eng_ptr;
    if (opts.verbose) {
        std::printf("paths: %u (avg length %.2f), partitions: %u, "
                    "DAG layers: %u\n",
                    eng.preprocessed().paths.numPaths(),
                    eng.preprocessed().paths.avgLength(),
                    eng.preprocessed().numPartitions(),
                    eng.preprocessed().dag.numLayers());
    }
    const auto report = eng.run(*algo);
    if (want_trace)
        writeTraces(sink, opts);
    printReport(report, eng.preprocessSeconds());
    return 0;
}
