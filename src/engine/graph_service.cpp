#include "engine/graph_service.hpp"

#include <algorithm>
#include <cstring>
#include <thread>

#include "common/logging.hpp"
#include "common/timer.hpp"
#include "engine/digraph_engine.hpp"
#include "graph/io.hpp"
#include "partition/preprocess.hpp"
#include "storage/durable_store.hpp"

namespace digraph::engine {

const char *
jobStateName(JobState s)
{
    switch (s) {
      case JobState::Queued:   return "queued";
      case JobState::Running:  return "running";
      case JobState::Parked:   return "parked";
      case JobState::Done:     return "done";
      case JobState::Rejected: return "rejected";
    }
    return "?";
}

bool
isUpdateSpec(const std::string &spec)
{
    return spec.rfind(kUpdateSpecPrefix, 0) == 0;
}

namespace {

std::size_t
resolveSessionThreads(const ServiceConfig &config)
{
    if (config.session_threads)
        return config.session_threads;
    return std::max(1u, std::thread::hardware_concurrency());
}

} // namespace

GraphService::GraphService(const graph::DirectedGraph &g,
                           EngineOptions options, ServiceConfig config)
    : options_(std::move(options)), config_(config)
{
    if (const std::string err = options_.validate(); !err.empty())
        fatal("GraphService: invalid options: ", err);
    options_.resolvePartitionBudget(g.numEdges());
    auto sub = EngineSubstrate::build(
        g, partition::preprocess(g, options_.preprocess));
    catalog_ = std::make_unique<SubstrateCatalog>(
        g, std::move(sub), options_, config_.catalog, config_.store,
        config_.store_version);
    finishInit();
}

GraphService::GraphService(const graph::DirectedGraph &g,
                           std::shared_ptr<const EngineSubstrate> sub,
                           EngineOptions options, ServiceConfig config)
    : options_(std::move(options)), config_(config)
{
    if (const std::string err = options_.validate(); !err.empty())
        fatal("GraphService: invalid options: ", err);
    if (!sub)
        fatal("GraphService: null shared substrate");
    if (sub->pre.paths.numEdges() != g.numEdges()) {
        fatal("GraphService: shared substrate covers ",
              sub->pre.paths.numEdges(), " edges but the graph has ",
              g.numEdges());
    }
    if (sub->num_vertices != g.numVertices()) {
        fatal("GraphService: shared substrate was built for ",
              sub->num_vertices, " vertices but the graph has ",
              g.numVertices());
    }
    catalog_ = std::make_unique<SubstrateCatalog>(
        g, std::move(sub), options_, config_.catalog, config_.store,
        config_.store_version);
    finishInit();
}

GraphService::GraphService(std::unique_ptr<SubstrateCatalog> catalog,
                           EngineOptions options, ServiceConfig config)
    : options_(std::move(options)), config_(config),
      catalog_(std::move(catalog))
{
    if (!catalog_)
        fatal("GraphService: null substrate catalog");
    if (const std::string err = options_.validate(); !err.empty())
        fatal("GraphService: invalid options: ", err);
    finishInit();
}

void
GraphService::finishInit()
{
    policy_.session_threads = resolveSessionThreads(config_);
    policy_.state_budget_bytes = config_.state_budget_bytes;
    policy_.tenant_quota = config_.tenant_quota;
    policy_.co_schedule = config_.co_schedule;
    catalog_->setTrace(config_.trace);
}

GraphService::~GraphService()
{
    {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [&] {
            return std::all_of(jobs_.begin(), jobs_.end(),
                               [](const auto &j) {
                                   return j->state == JobState::Done ||
                                          j->state == JobState::Rejected;
                               });
        });
    }
    for (auto &job : jobs_) {
        if (job->thread.joinable())
            job->thread.join();
    }
}

std::uint32_t
GraphService::internTenant(const std::string &name)
{
    for (std::uint32_t t = 0; t < tenants_.size(); ++t) {
        if (tenants_[t] == name)
            return t;
    }
    tenants_.push_back(name);
    tenant_started_.push_back(0);
    return static_cast<std::uint32_t>(tenants_.size() - 1);
}

std::size_t
GraphService::jobBytesEstimate()
{
    if (!job_bytes_estimate_) {
        // Probe engine: the run state of a 1-lane job is
        // algorithm-independent over one substrate, so one sizing
        // prices every future job. It is handed to the first granted
        // job on the same epoch rather than thrown away.
        spare_pin_ = catalog_->pin();
        spare_engine_ = std::make_unique<DiGraphEngine>(
            spare_pin_.graph(), spare_pin_.substrate(), options_);
        job_bytes_estimate_ = spare_engine_->sizeRunState();
    }
    return job_bytes_estimate_;
}

void
GraphService::traceEvent(metrics::TraceEventType type,
                         std::uint64_t arg0, std::uint64_t arg1)
{
    if (config_.trace) {
        config_.trace->event(type, /*wave=*/stats_.grants,
                             metrics::kTraceNoPartition,
                             /*sim_begin=*/0.0, /*sim_dur=*/0.0, arg0,
                             arg1);
    }
}

bool
GraphService::schedulableWaiting() const
{
    for (const auto &job : jobs_) {
        if (job->granted ||
            (job->state != JobState::Queued &&
             job->state != JobState::Parked))
            continue;
        if (job->is_update && update_running_)
            continue; // the single append slot is taken
        if (job->started)
            return true;
        if (policy_.tenant_quota &&
            tenant_started_[job->tenant] >= policy_.tenant_quota)
            continue;
        if (policy_.state_budget_bytes &&
            charged_bytes_ + job->estimate_bytes >
                policy_.state_budget_bytes)
            continue;
        return true;
    }
    return false;
}

void
GraphService::reschedule()
{
    SchedSnapshot snap;
    // At most ONE update candidate enters the snapshot (the best by
    // priority, FIFO inside the class): appends are single-writer, and
    // offering two updates could grant both from one decision.
    const Job *best_update = nullptr;
    for (const auto &job : jobs_) {
        if (job->granted ||
            (job->state != JobState::Queued &&
             job->state != JobState::Parked))
            continue;
        if (job->is_update) {
            if (update_running_)
                continue;
            if (!best_update ||
                job->request.priority > best_update->request.priority ||
                (job->request.priority == best_update->request.priority &&
                 job->queue_seq < best_update->queue_seq))
                best_update = job.get();
            continue;
        }
        SchedJob sj;
        sj.id = job->id;
        sj.priority = job->request.priority;
        sj.tenant = job->tenant;
        sj.queue_seq = job->queue_seq;
        sj.started = job->started;
        sj.state_bytes = job->charged_bytes ? job->charged_bytes
                                            : job->estimate_bytes;
        sj.worklist = job->worklist.empty() ? nullptr : &job->worklist;
        snap.waiting.push_back(sj);
    }
    if (best_update) {
        SchedJob sj;
        sj.id = best_update->id;
        sj.priority = best_update->request.priority;
        sj.tenant = best_update->tenant;
        sj.queue_seq = best_update->queue_seq;
        sj.started = best_update->started;
        sj.state_bytes = best_update->charged_bytes
                             ? best_update->charged_bytes
                             : best_update->estimate_bytes;
        sj.worklist = nullptr;
        snap.waiting.push_back(sj);
    }
    if (snap.waiting.empty())
        return;
    for (const JobId id : active_) {
        if (!jobs_[id]->worklist.empty())
            snap.running_worklists.push_back(&jobs_[id]->worklist);
    }
    snap.running_jobs = active_.size();
    snap.charged_bytes = charged_bytes_;
    snap.tenant_started = tenant_started_;

    const auto grants = scheduleJobs(policy_, snap);
    for (const auto &grant : grants) {
        Job &job = *jobs_[grant.id];
        job.granted = true;
        job.waves_in_quantum = 0;
        if (!job.started) {
            job.started = true;
            job.charged_bytes = job.estimate_bytes;
            charged_bytes_ += job.charged_bytes;
            ++tenant_started_[job.tenant];
        }
        if (job.is_update)
            update_running_ = true;
        else if (!job.pin.valid()) {
            // The query's epoch is fixed HERE, at first grant: it runs
            // on this snapshot even if updates commit newer epochs
            // before (or while) it executes. Parked jobs keep their
            // original pin across re-grants.
            job.pin = catalog_->pin();
        }
        active_.push_back(job.id);
        grant_log_.push_back(job.id);
        ++stats_.grants;
        if (grant.co_scheduled)
            ++stats_.co_scheduled_grants;
        stats_.peak_inflight_bytes =
            std::max(stats_.peak_inflight_bytes, charged_bytes_);
        stats_.peak_running =
            std::max(stats_.peak_running, active_.size());
        traceEvent(metrics::TraceEventType::JobGrant, job.id,
                   grant.co_scheduled ? 1 : 0);
    }
    if (!grants.empty())
        cv_.notify_all();
}

JobId
GraphService::addJobAsync(const JobRequest &request)
{
    std::unique_lock<std::mutex> lock(mutex_);
    const JobId id = jobs_.size();
    jobs_.push_back(std::make_unique<Job>());
    Job &job = *jobs_.back();
    job.service = this;
    job.id = id;
    job.request = request;
    job.tenant = internTenant(request.tenant);
    job.queue_seq = queue_seq_next_++;
    job.is_update = isUpdateSpec(request.spec);
    job.result.id = id;
    job.result.spec = request.spec;
    job.result.tenant = request.tenant;
    job.result.priority = request.priority;
    ++stats_.submitted;

    if (job.is_update) {
        // Load the batch at admission: a bad file rejects the job (the
        // service must outlive any one bad request), and the edges are
        // what the admission byte budget charges for.
        const std::string path =
            request.spec.substr(std::strlen(kUpdateSpecPrefix));
        auto edges = graph::loadEdgeBatchText(path);
        if (!edges)
            return reject(job,
                          "cannot read update edge file '" + path + "'");
        job.update_edges = std::move(*edges);
        job.estimate_bytes =
            job.update_edges.size() * sizeof(graph::Edge);
    } else {
        // Validate the spec up front (fatal on nonsense) and reject a
        // job the engine cannot run before it is journaled, so a
        // restart never replays it. The real algorithm instance is
        // rebuilt at grant time over the job's pinned epoch.
        std::string restriction;
        {
            auto vpin = catalog_->pin();
            const auto algo =
                algorithms::makeAlgorithmSpec(request.spec, vpin.graph());
            restriction = laneRunRestriction(*algo, options_, false);
        }
        if (!restriction.empty())
            return reject(job, std::move(restriction));
        job.estimate_bytes =
            policy_.state_budget_bytes ? jobBytesEstimate() : 0;
    }

    // Admission control: a job that can never fit is rejected
    // outright; one that merely cannot start *now* queues, unless the
    // admission queue itself is past its limit.
    if (policy_.state_budget_bytes &&
        job.estimate_bytes > policy_.state_budget_bytes)
        return reject(job,
                      "job state estimate exceeds the session byte budget");
    const bool can_start_now =
        active_.size() < policy_.session_threads &&
        (!job.is_update || !update_running_) &&
        (!policy_.state_budget_bytes ||
         charged_bytes_ + job.estimate_bytes <=
             policy_.state_budget_bytes) &&
        (!policy_.tenant_quota ||
         tenant_started_[job.tenant] < policy_.tenant_quota);
    if (!can_start_now) {
        const std::size_t queued = static_cast<std::size_t>(
            std::count_if(jobs_.begin(), jobs_.end(),
                          [](const auto &j) {
                              return j->state == JobState::Queued &&
                                     !j->granted;
                          })) -
            1; // exclude this job
        if (config_.max_queued_jobs && queued >= config_.max_queued_jobs)
            return reject(job, "admission queue full");
        ++stats_.queued_on_arrival;
    }
    ++stats_.admitted;
    if (config_.journal)
        config_.journal->appendAdmit(id, request.spec, request.priority,
                                     request.tenant,
                                     request.journal_id);
    traceEvent(metrics::TraceEventType::JobAdmit, id,
               static_cast<std::uint64_t>(request.priority));
    job.thread = std::thread(&GraphService::jobMain, this, &job);
    reschedule();
    return id;
}

JobId
GraphService::reject(Job &job, std::string reason)
{
    job.state = JobState::Rejected;
    job.reject_reason = std::move(reason);
    ++stats_.rejected;
    const JobRequest &request = job.request;
    if (config_.journal && request.journal_id != storage::kNoJournalId) {
        config_.journal->appendAdmit(job.id, request.spec, request.priority,
                                     request.tenant, request.journal_id);
        config_.journal->appendComplete(job.id);
    }
    return job.id;
}

JobId
GraphService::addUpdateAsync(const std::string &edge_file,
                             const std::string &tenant, int priority)
{
    JobRequest request;
    request.spec = std::string(kUpdateSpecPrefix) + edge_file;
    request.tenant = tenant;
    request.priority = priority;
    return addJobAsync(request);
}

void
GraphService::jobMain(Job *job)
{
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return job->granted; });
    job->state = JobState::Running;

    if (job->is_update)
        runUpdate(job, lock);
    else
        runQuery(job, lock);

    job->state = JobState::Done;
    job->granted = false;
    active_.erase(std::find(active_.begin(), active_.end(), job->id));
    charged_bytes_ -= job->charged_bytes;
    --tenant_started_[job->tenant];
    completion_order_.push_back(job->id);
    ++stats_.completed;
    if (job->is_update) {
        update_running_ = false;
        ++stats_.updates_completed;
    }
    if (config_.journal)
        config_.journal->appendComplete(job->id);
    traceEvent(metrics::TraceEventType::JobDone, job->id,
               job->result.times_parked);
    job->engine.reset(); // release the plane: in-flight bytes drop NOW
    job->pin.release();  // a drained superseded epoch can retire NOW
    reschedule();
    cv_.notify_all();
}

void
GraphService::runQuery(Job *job, std::unique_lock<std::mutex> &lock)
{
    // Engine acquisition: take the probe engine if it was built over
    // this job's epoch; a stale-epoch spare is dropped (its plane was
    // sized for a superseded snapshot). Fresh builds happen outside the
    // session lock — plane allocation is the expensive part.
    std::unique_ptr<DiGraphEngine> engine;
    if (spare_engine_ && spare_pin_.valid() &&
        spare_pin_.epoch() == job->pin.epoch()) {
        engine = std::move(spare_engine_);
        spare_pin_.release();
    } else if (spare_engine_ && spare_pin_.valid() &&
               spare_pin_.epoch() != job->pin.epoch()) {
        spare_engine_.reset();
        spare_pin_.release();
    }
    lock.unlock();
    if (!engine) {
        engine = std::make_unique<DiGraphEngine>(
            job->pin.graph(), job->pin.substrate(), options_);
    }
    // The algorithm instance is built over the PINNED graph, so
    // per-vertex algorithm state matches the snapshot the job runs on
    // (the admission-time validation graph may be older).
    job->algo = algorithms::makeAlgorithmSpec(job->request.spec,
                                              job->pin.graph());
    engine->setWaveControl(job);
    if (config_.with_traces) {
        job->result.trace = std::make_shared<metrics::TraceSink>();
        engine->setTrace(job->result.trace.get());
    }
    job->engine = std::move(engine);

    job->result.report = job->engine->run(*job->algo);
    job->result.counters = job->engine->counters();
    job->result.job_state_bytes = job->engine->jobStateBytes();
    job->result.epoch = job->pin.epoch();

    lock.lock();
}

void
GraphService::runUpdate(Job *job, std::unique_lock<std::mutex> &lock)
{
    lock.unlock();
    // The append itself runs OUTSIDE the session mutex: pinned queries
    // keep executing (and completing) while the next epoch is derived.
    WallTimer timer;
    const CatalogStats before = catalog_->stats();
    const auto res = catalog_->append(job->update_edges);

    metrics::RunReport &rep = job->result.report;
    rep.algorithm = job->request.spec;
    rep.wall_seconds = timer.seconds();
    rep.preprocess_seconds = res.preprocess_seconds;
    rep.epoch_creates = res.created ? 1 : 0;
    rep.epoch_commits = res.created ? 1 : 0;
    rep.epoch_retires =
        catalog_->stats().epochs_retired - before.epochs_retired;
    rep.store_commits = res.store_version ? 1 : 0;
    rep.store_commit_fails = res.store_failed ? 1 : 0;
    job->result.epoch = res.epoch;
    job->result.job_state_bytes =
        job->update_edges.size() * sizeof(graph::Edge);

    lock.lock();
}

void
GraphService::Job::onWaveBoundary(
    std::uint64_t /*wave*/, const std::vector<std::uint8_t> &active)
{
    service->waveBoundary(*this, active);
}

void
GraphService::waveBoundary(Job &job,
                           const std::vector<std::uint8_t> &active)
{
    std::unique_lock<std::mutex> lock(mutex_);
    job.worklist.assign(active.begin(), active.end());
    ++job.waves_in_quantum;
    if (config_.quantum_waves &&
        job.waves_in_quantum >= config_.quantum_waves) {
        if (schedulableWaiting()) {
            // Preemption: offer the slot. The ValuePlane is the job's
            // suspended state — nothing to snapshot, and the resumed
            // run is bit-identical to an uninterrupted one.
            ++stats_.parks;
            ++job.result.times_parked;
            traceEvent(metrics::TraceEventType::JobPark, job.id,
                       job.waves_in_quantum);
            job.granted = false;
            job.state = JobState::Parked;
            active_.erase(
                std::find(active_.begin(), active_.end(), job.id));
            // Round-robin within the priority class: re-enter at the
            // back of the queue.
            job.queue_seq = queue_seq_next_++;
            reschedule();
            cv_.wait(lock, [&] { return job.granted; });
            job.state = JobState::Running;
        }
        job.waves_in_quantum = 0;
    }
}

JobStatus
GraphService::poll(JobId id) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (id >= jobs_.size())
        fatal("GraphService::poll: unknown job ", id);
    const Job &job = *jobs_[id];
    JobStatus status;
    status.id = id;
    status.state = job.state;
    status.spec = job.request.spec;
    status.tenant = job.request.tenant;
    status.priority = job.request.priority;
    status.detail = job.reject_reason;
    return status;
}

std::vector<JobResult>
GraphService::drain()
{
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] {
        return std::all_of(jobs_.begin(), jobs_.end(),
                           [](const auto &j) {
                               return j->state == JobState::Done ||
                                      j->state == JobState::Rejected;
                           });
    });
    std::vector<JobResult> results;
    results.reserve(jobs_.size());
    for (auto &job : jobs_) {
        if (job->state == JobState::Done)
            results.push_back(std::move(job->result));
    }
    drained_ = true;
    return results;
}

std::size_t
GraphService::numJobs() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return jobs_.size();
}

ServiceStats
GraphService::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

std::size_t
GraphService::inflightStateBytes() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return charged_bytes_;
}

std::vector<JobId>
GraphService::grantLog() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return grant_log_;
}

std::vector<JobId>
GraphService::completionOrder() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return completion_order_;
}

} // namespace digraph::engine
