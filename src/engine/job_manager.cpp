#include "engine/job_manager.hpp"

#include "common/logging.hpp"
#include "partition/preprocess.hpp"

namespace digraph::engine {

JobManager::JobManager(const graph::DirectedGraph &g,
                       EngineOptions options)
    : g_(g), options_(std::move(options))
{
    if (const std::string err = options_.validate(); !err.empty())
        fatal("JobManager: invalid options: ", err);
    options_.resolvePartitionBudget(g.numEdges());
    sub_ = EngineSubstrate::build(
        g, partition::preprocess(g, options_.preprocess));
}

JobManager::JobManager(const graph::DirectedGraph &g,
                       std::shared_ptr<const EngineSubstrate> sub,
                       EngineOptions options)
    : g_(g), options_(std::move(options)), sub_(std::move(sub))
{
    if (!sub_)
        fatal("JobManager: null shared substrate");
    if (sub_->pre.paths.numEdges() != g.numEdges()) {
        fatal("JobManager: shared substrate covers ",
              sub_->pre.paths.numEdges(), " edges but the graph has ",
              g.numEdges());
    }
    if (sub_->num_vertices != g.numVertices()) {
        fatal("JobManager: shared substrate was built for ",
              sub_->num_vertices, " vertices but the graph has ",
              g.numVertices());
    }
}

void
JobManager::addJobs(const std::string &comma_specs)
{
    const std::size_t before = specs_.size();
    std::size_t begin = 0;
    while (begin <= comma_specs.size()) {
        std::size_t end = comma_specs.find(',', begin);
        if (end == std::string::npos)
            end = comma_specs.size();
        std::string spec = comma_specs.substr(begin, end - begin);
        // Tolerate shell artifacts: surrounding whitespace and empty
        // entries from trailing/doubled commas.
        const std::size_t first = spec.find_first_not_of(" \t");
        if (first == std::string::npos) {
            begin = end + 1;
            continue;
        }
        spec = spec.substr(first,
                           spec.find_last_not_of(" \t") - first + 1);
        addJob(spec);
        begin = end + 1;
    }
    if (specs_.size() == before) {
        fatal("JobManager: no job specs in list '", comma_specs, "'");
    }
}

std::vector<JobResult>
JobManager::runAll(bool with_traces)
{
    if (specs_.empty())
        return {};

    // Batch mode: no preemption quantum, no quotas or budgets — every
    // job runs to convergence once it holds one of the session's slots
    // (one per hardware thread).
    ServiceConfig config;
    config.quantum_waves = 0;
    config.with_traces = with_traces;
    GraphService service(g_, sub_, options_, config);
    for (const std::string &spec : specs_)
        service.addJobAsync(spec);
    return service.drain();
}

} // namespace digraph::engine
