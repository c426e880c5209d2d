/**
 * @file
 * GraphService: a long-lived graph-processing session with two-level
 * job scheduling over a chain of substrate epochs (DESIGN.md §15/§18).
 *
 * Where JobManager ran a fixed batch and exited, a GraphService stays
 * up: it owns a SubstrateCatalog — a chain of immutable substrate
 * epochs — and accepts a *stream* of job requests (addJobAsync /
 * addUpdateAsync / poll / drain; the CLI's `--serve` batch front-end
 * sits on top). Jobs carry a tenant and a priority, and the inter-job
 * scheduler (engine/job_scheduler.hpp) places them into the session's
 * execution slots with
 *
 *  - admission control: a configurable in-flight job-state byte budget
 *    (a job's ValuePlane + transport bookkeeping) — jobs past it queue,
 *    and past the queue limit they are rejected at submission;
 *  - per-tenant quotas on started (running or parked) jobs;
 *  - priority queues with FIFO age inside each class;
 *  - preemption at wave boundaries: a running engine parks right after
 *    its wave's last dispatch barrier via the WaveControl hook. Nothing
 *    is snapshotted — the job's ValuePlane IS its suspended state — and
 *    a resumed run is bit-identical to an uninterrupted one;
 *  - co-scheduling: within a priority class the scheduler prefers jobs
 *    whose partition worklists overlap what is already running, so
 *    concurrent jobs share substrate *cache residency*, not just
 *    substrate memory.
 *
 * Live-graph updates (DESIGN.md §18): a job whose spec is
 * "update:<edge-file>" is an *update job*. When granted, it derives the
 * next substrate epoch from the file's edge batch via the catalog —
 * concurrently with running queries. A query pins the newest committed
 * epoch at grant time and runs bit-identically to a cold run on that
 * snapshot no matter how many epochs commit behind it; at most one
 * update runs at a time (appends are single-writer), and a superseded
 * epoch is retired as soon as its last pinned query completes. With a
 * durable store attached to the catalog, every committed epoch lands on
 * disk as a topology version chained to its parent, so a killed session
 * restarts on the latest committed epoch and replays pending jobs.
 *
 * Every admitted job runs on its own host thread, and at most
 * session_threads of them hold an execution slot at once: this is the
 * session's host parallelism (a job's own dispatches run one at a
 * time). All scheduling decisions are serialized under one session
 * mutex; jobs share no mutable state and parking never changes a run,
 * so results are identical to dedicated single-job runs regardless of
 * the schedule.
 */

#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "algorithms/factory.hpp"
#include "engine/job_scheduler.hpp"
#include "engine/options.hpp"
#include "engine/substrate.hpp"
#include "engine/substrate_catalog.hpp"
#include "engine/wave_control.hpp"
#include "graph/digraph.hpp"
#include "metrics/counter_registry.hpp"
#include "metrics/run_report.hpp"
#include "metrics/trace.hpp"

namespace digraph::storage {
class JobJournal;
} // namespace digraph::storage

namespace digraph::engine {

class DiGraphEngine;

/** Job handle (dense, in submission order). */
using JobId = std::uint64_t;

/** Spec prefix marking an update job ("update:<edge-file>"). */
inline constexpr const char kUpdateSpecPrefix[] = "update:";

/** Whether @p spec names an update job. */
bool isUpdateSpec(const std::string &spec);

/** Lifecycle of a submitted job. */
enum class JobState : std::uint8_t {
    /** Admitted, waiting for its first execution slot. */
    Queued,
    /** Occupying a slot (may be between waves inside the engine). */
    Running,
    /** Preempted at a wave boundary; ValuePlane live, awaiting a
     *  new grant. */
    Parked,
    /** Ran to convergence; result available. */
    Done,
    /** Refused at submission (admission control); never ran. */
    Rejected,
};

/** Stable display name of a job state. */
const char *jobStateName(JobState s);

/** One job request: an algorithm spec plus scheduling attributes. */
struct JobRequest
{
    /** "name[:param]" algorithm spec (makeAlgorithmSpec syntax), or
     *  "update:<edge-file>" for a live-graph update job. */
    std::string spec;
    /** Tenant the job is accounted to (quota key). */
    std::string tenant = "default";
    /** Higher runs first; ties are FIFO. */
    int priority = 0;
    /** WAL record id to adopt instead of journaling a fresh admission
     *  (restart resume of a compacted pending job; see
     *  storage::JobJournal). Default: journal a fresh record. */
    std::uint64_t journal_id = ~static_cast<std::uint64_t>(0);
};

/** One job's outputs (also the JobManager batch result type). */
struct JobResult
{
    /** The "name[:param]" spec the job was queued with. */
    std::string spec;
    /** The full run report (final state, counters, timings). Update
     *  jobs fill the ingestion/epoch fields and leave the per-wave
     *  metrics zero. */
    metrics::RunReport report;
    /** The job engine's counter totals (equal to the report
     *  aggregates). */
    metrics::CounterRegistry counters;
    /** Per-job trace sink (null unless traces were requested). */
    std::shared_ptr<metrics::TraceSink> trace;
    /** Host bytes of the job's private state (ValuePlane + transport
     *  bookkeeping; an update job's edge batch). */
    std::size_t job_state_bytes = 0;
    /** Job handle within the service. */
    JobId id = 0;
    /** Tenant the job was accounted to. */
    std::string tenant;
    /** Priority it was scheduled with. */
    int priority = 0;
    /** Times the job was preempted at a wave boundary. */
    std::uint64_t times_parked = 0;
    /** Substrate epoch the job ran on (queries: the epoch pinned at
     *  grant time; updates: the epoch current after the append). */
    std::uint64_t epoch = 0;
};

/** Session configuration (0 = default / unlimited throughout). */
struct ServiceConfig
{
    /** Session threads: jobs that may run at once, one host thread
     *  each; 0 = hardware concurrency. */
    std::size_t session_threads = 0;
    /** In-flight job-state byte budget (admission control); 0 = off. */
    std::size_t state_budget_bytes = 0;
    /** Admitted-but-never-started jobs tolerated while the byte budget
     *  is exhausted; past it submissions are Rejected. 0 = unlimited
     *  queueing (nothing is ever rejected). */
    std::size_t max_queued_jobs = 0;
    /** Max started (running or parked) jobs per tenant; 0 = off. */
    std::size_t tenant_quota = 0;
    /** Waves a job runs per scheduling quantum before it must offer
     *  its slot to waiting jobs; 0 = run every job to convergence
     *  (batch mode, no preemption). */
    std::uint64_t quantum_waves = 4;
    /** Prefer worklist-overlapping jobs within a priority class. */
    bool co_schedule = true;
    /** Give every job a private TraceSink (returned in its result). */
    bool with_traces = false;
    /** Service-level sink for scheduler events (job_admit/grant/park/
     *  done) and epoch lifecycle events (epoch_create/commit/retire);
     *  nullptr disables. */
    metrics::TraceSink *trace = nullptr;
    /** Durable job journal (DESIGN.md §16): every admitted job is
     *  appended before its thread starts, every completion after its
     *  result is recorded, so a crashed service can replay the
     *  admitted-minus-completed set on restart. nullptr disables. */
    storage::JobJournal *journal = nullptr;
    /** Live-graph epoch policy (update jobs; see SubstrateCatalog). */
    CatalogOptions catalog;
    /** Durable store the epoch chain commits into (nullptr = epochs
     *  live in memory only). Ignored by the catalog-adopting
     *  constructor, whose catalog already carries its store. */
    storage::DurableStore *store = nullptr;
    /** Topology version the initial substrate is already committed as
     *  (0 = commit the root version at construction when `store` is
     *  set). */
    std::uint64_t store_version = 0;
};

/** Scheduler observability counters (monotonic over the session). */
struct ServiceStats
{
    std::uint64_t submitted = 0;
    std::uint64_t admitted = 0;
    std::uint64_t rejected = 0;
    /** Admissions that could not start immediately (queued). */
    std::uint64_t queued_on_arrival = 0;
    std::uint64_t grants = 0;
    /** Grants placed by worklist overlap instead of rank order. */
    std::uint64_t co_scheduled_grants = 0;
    /** Wave-boundary preemptions. */
    std::uint64_t parks = 0;
    std::uint64_t completed = 0;
    /** Update jobs among `completed`. */
    std::uint64_t updates_completed = 0;
    /** High-water mark of charged in-flight state bytes. */
    std::size_t peak_inflight_bytes = 0;
    /** High-water mark of concurrently granted jobs. */
    std::size_t peak_running = 0;
};

/** poll() snapshot of one job. */
struct JobStatus
{
    JobId id = 0;
    JobState state = JobState::Queued;
    std::string spec;
    std::string tenant;
    int priority = 0;
    /** Reject reason (empty unless Rejected). */
    std::string detail;
};

/**
 * Long-lived multi-tenant graph-processing session (see file header).
 */
class GraphService
{
  public:
    /** Preprocess @p g once into the chain's root epoch. @p g must
     *  outlive the service. */
    GraphService(const graph::DirectedGraph &g, EngineOptions options,
                 ServiceConfig config = {});

    /** Adopt a prebuilt substrate as the root epoch. @pre sub was built
     *  for @p g (vertex AND edge totals checked); @p g must outlive the
     *  service. */
    GraphService(const graph::DirectedGraph &g,
                 std::shared_ptr<const EngineSubstrate> sub,
                 EngineOptions options, ServiceConfig config = {});

    /** Adopt a ready epoch chain (the crash-restart path:
     *  SubstrateCatalog::openFrom recovered the newest committed
     *  epoch). config.store/store_version are ignored — the catalog
     *  already carries its store binding. */
    GraphService(std::unique_ptr<SubstrateCatalog> catalog,
                 EngineOptions options, ServiceConfig config = {});

    /** Drains every admitted job, then joins all job threads. */
    ~GraphService();

    GraphService(const GraphService &) = delete;
    GraphService &operator=(const GraphService &) = delete;

    /**
     * Submit a job. Returns immediately with its handle; the job is
     * scheduled asynchronously. A job refused by admission control
     * comes back with poll(id).state == Rejected (and the reason in
     * poll(id).detail). Fatal on a malformed algorithm spec; an
     * unreadable update edge file Rejects instead (the service must
     * outlive any one bad request). An "update:<edge-file>" spec
     * submits an update job (see addUpdateAsync).
     */
    JobId addJobAsync(const JobRequest &request);
    JobId addJobAsync(const std::string &spec)
    {
        return addJobAsync(JobRequest{spec});
    }

    /**
     * Submit a live-graph update: derive the next substrate epoch from
     * the edge batch in @p edge_file (text `src dst [weight]` lines).
     * Queries admitted before the update completes keep running on
     * their pinned epochs; queries granted after it completes pin the
     * new epoch. At most one update executes at a time.
     */
    JobId addUpdateAsync(const std::string &edge_file,
                         const std::string &tenant = "default",
                         int priority = 0);

    /** Snapshot one job's lifecycle state. */
    JobStatus poll(JobId id) const;

    /** Block until every admitted job is Done, then move the results
     *  out (admission order; Rejected jobs are skipped). */
    std::vector<JobResult> drain();

    /** Jobs submitted so far (including rejected). */
    std::size_t numJobs() const;

    /** The newest committed epoch's substrate. */
    std::shared_ptr<const EngineSubstrate> substrate() const
    {
        return catalog_->currentSubstrate();
    }

    /** Host bytes of the newest epoch's shared substrate. */
    std::size_t sharedBytes() const
    {
        return catalog_->currentSubstrate()->memoryBytes();
    }

    /** The epoch chain behind this session. */
    const SubstrateCatalog &catalog() const { return *catalog_; }

    /** Newest committed epoch id. */
    std::uint64_t currentEpoch() const
    {
        return catalog_->currentEpoch();
    }

    /** Resolved session thread count. */
    std::size_t sessionThreads() const
    {
        return policy_.session_threads;
    }

    /** Scheduler counters snapshot. */
    ServiceStats stats() const;

    /** Currently charged in-flight job-state bytes. */
    std::size_t inflightStateBytes() const;

    /** Every slot grant in decision order (tests/observability). */
    std::vector<JobId> grantLog() const;

    /** Job completion order (tests/observability). */
    std::vector<JobId> completionOrder() const;

  private:
    /** Per-job record; doubles as the engine's wave-boundary hook. */
    struct Job : WaveControl
    {
        GraphService *service = nullptr;
        JobId id = 0;
        JobRequest request;
        JobState state = JobState::Queued;
        std::string reject_reason;
        std::uint32_t tenant = 0;
        std::uint64_t queue_seq = 0;
        /** Update-job flag (spec "update:<file>"). */
        bool is_update = false;
        /** The update's edge batch (loaded at admission). */
        std::vector<graph::Edge> update_edges;
        /** Epoch pinned at the job's first grant (queries only); held
         *  until completion so the snapshot outlives the run. */
        SubstrateCatalog::Pin pin;
        algorithms::AlgorithmPtr algo;
        std::unique_ptr<DiGraphEngine> engine;
        JobResult result;
        /** Scheduler grant flag (guarded by the session mutex). */
        bool granted = false;
        /** Engine built, bytes charged. */
        bool started = false;
        std::size_t charged_bytes = 0;
        /** Bytes to charge when started (queries: the plane estimate;
         *  updates: the batch bytes). */
        std::size_t estimate_bytes = 0;
        std::uint64_t waves_in_quantum = 0;
        /** Worklist flags at the last wave boundary. */
        std::vector<std::uint8_t> worklist;
        std::thread thread;

        void
        onWaveBoundary(std::uint64_t wave,
                       const std::vector<std::uint8_t> &active) override;
    };

    /** Shared tail of all three constructors (policy resolution,
     *  catalog trace attachment). */
    void finishInit();

    /** Job-thread body: wait for the first grant, run (query engine or
     *  catalog append), retire. */
    void jobMain(Job *job);

    /** Query-job body: build/adopt the engine over the pinned epoch and
     *  run to convergence. @p lock is held on entry and exit. */
    void runQuery(Job *job, std::unique_lock<std::mutex> &lock);

    /** Update-job body: append the edge batch through the catalog.
     *  @p lock is held on entry and exit. */
    void runUpdate(Job *job, std::unique_lock<std::mutex> &lock);

    /** Engine-hook body (locks the session mutex). */
    void waveBoundary(Job &job, const std::vector<std::uint8_t> &active);

    /** Fill free slots from the waiting set (mutex held). */
    void reschedule();

    /** True when some waiting job could take a freed slot — the park
     *  predicate (mutex held). */
    bool schedulableWaiting() const;

    /** Dense tenant index, interning new names (mutex held). */
    std::uint32_t internTenant(const std::string &name);

    /** Per-job state-byte estimate (built lazily from a probe engine;
     *  mutex held). */
    std::size_t jobBytesEstimate();

    /** Record a service-level scheduler event. */
    void traceEvent(metrics::TraceEventType type, std::uint64_t arg0,
                    std::uint64_t arg1);

    EngineOptions options_;
    ServiceConfig config_;
    SchedulerPolicy policy_;
    /** The epoch chain (jobs pin epochs; updates append them). */
    std::unique_ptr<SubstrateCatalog> catalog_;

    mutable std::mutex mutex_;
    std::condition_variable cv_;
    std::vector<std::unique_ptr<Job>> jobs_;
    /** Granted jobs in grant order. */
    std::vector<JobId> active_;
    std::vector<std::string> tenants_;
    std::vector<std::uint32_t> tenant_started_;
    std::size_t charged_bytes_ = 0;
    std::uint64_t queue_seq_next_ = 0;
    std::vector<JobId> grant_log_;
    std::vector<JobId> completion_order_;
    ServiceStats stats_;
    /** An update job currently holds the single append slot; other
     *  updates stay queued (appends are single-writer by design). */
    bool update_running_ = false;
    /** Probe engine: measures the per-job byte estimate, then serves
     *  as the first granted job's engine on the same epoch (nothing is
     *  wasted; a stale-epoch spare is dropped instead). */
    std::unique_ptr<DiGraphEngine> spare_engine_;
    /** Epoch the spare engine was built over. */
    SubstrateCatalog::Pin spare_pin_;
    std::size_t job_bytes_estimate_ = 0;
    bool drained_ = false;
};

} // namespace digraph::engine
