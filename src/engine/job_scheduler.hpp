/**
 * @file
 * Inter-job scheduling policy — level 1 of the two-level scheduler
 * (DESIGN.md §15). Level 2 is the engine's intra-job path scheduling
 * (Dispatcher::orderByPriority, Section 3.2.3 of the paper); this
 * level decides, at every scheduling event of a GraphService session,
 * WHICH jobs occupy the session's execution slots. Each granted job
 * runs on its own host thread.
 *
 * The policy is a pure function of an explicit snapshot: no clocks, no
 * randomness, no hidden state — the same snapshot always yields the
 * same grants, which is what makes service-level tests deterministic.
 *
 * Decision order per free slot:
 *   1. priority (higher first), then queue age (FIFO; parked jobs
 *      re-enter at the back of their class, giving round-robin under
 *      preemption), then job id;
 *   2. per-tenant quota: a tenant at its started-jobs quota is skipped
 *      (its jobs stay queued; other tenants pass it);
 *   3. state-byte budget: a job whose ValuePlane is not yet allocated
 *      is only started while charged + estimate fits the budget
 *      (admission control — parked jobs keep their charge because
 *      their plane IS their suspended state);
 *   4. co-scheduling: among equally-ranked candidates, prefer the one
 *      whose partition worklist overlaps the already-granted set most —
 *      jobs iterating the same partitions in the same quantum share
 *      substrate cache residency, not just substrate memory.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace digraph::engine {

/** Level-1 policy knobs (resolved values; see ServiceConfig for the
 *  user-facing defaults). */
struct SchedulerPolicy
{
    /** Execution slots: at most this many jobs run at once, one
     *  session thread each. */
    std::size_t session_threads = 1;
    /** In-flight job-state byte budget (admission control); 0 = off. */
    std::size_t state_budget_bytes = 0;
    /** Max started (running or parked) jobs per tenant; 0 = off. */
    std::size_t tenant_quota = 0;
    /** Prefer worklist-overlapping jobs within a priority class. */
    bool co_schedule = true;
};

/** One runnable job as the policy sees it. */
struct SchedJob
{
    std::uint64_t id = 0;
    int priority = 0;
    /** Dense tenant index (see GraphService tenant interning). */
    std::uint32_t tenant = 0;
    /** FIFO age within the priority class (re-assigned on park). */
    std::uint64_t queue_seq = 0;
    /** Engine built, state bytes already charged. */
    bool started = false;
    /** Bytes to charge if granted before started (estimate). */
    std::size_t state_bytes = 0;
    /** Partition worklist flags at the job's last wave boundary
     *  (null/empty until it has run once). */
    const std::vector<std::uint8_t> *worklist = nullptr;
};

/** Everything the policy may consult, frozen at the scheduling event. */
struct SchedSnapshot
{
    /** Runnable jobs (queued or parked), any order. */
    std::vector<SchedJob> waiting;
    /** Worklists of currently granted jobs (co-scheduling seed). */
    std::vector<const std::vector<std::uint8_t> *> running_worklists;
    /** Currently granted jobs (occupying slots). */
    std::size_t running_jobs = 0;
    /** Bytes charged by started, unfinished jobs. */
    std::size_t charged_bytes = 0;
    /** Started, unfinished jobs per dense tenant index. */
    std::vector<std::uint32_t> tenant_started;
};

/** One scheduling decision: run job @p id. */
struct SchedGrant
{
    std::uint64_t id = 0;
    /** Chosen by worklist overlap rather than plain rank order. */
    bool co_scheduled = false;
};

/**
 * Fill the session's free execution slots from @p snap.waiting.
 * Deterministic; returns grants in grant order (the order jobs should
 * be appended to the active list).
 */
std::vector<SchedGrant> scheduleJobs(const SchedulerPolicy &policy,
                                     const SchedSnapshot &snap);

} // namespace digraph::engine
