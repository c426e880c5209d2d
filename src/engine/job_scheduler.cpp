#include "engine/job_scheduler.hpp"

#include <algorithm>

namespace digraph::engine {

namespace {

/** Rank order within the waiting set: priority desc, FIFO age asc,
 *  id asc (total order — ids are unique). */
bool
ranksBefore(const SchedJob &a, const SchedJob &b)
{
    if (a.priority != b.priority)
        return a.priority > b.priority;
    if (a.queue_seq != b.queue_seq)
        return a.queue_seq < b.queue_seq;
    return a.id < b.id;
}

/** Number of partitions active in both @p wl and @p granted_union. */
std::size_t
worklistOverlap(const std::vector<std::uint8_t> *wl,
                const std::vector<std::uint8_t> &granted_union)
{
    if (!wl)
        return 0;
    const std::size_t n = std::min(wl->size(), granted_union.size());
    std::size_t overlap = 0;
    for (std::size_t p = 0; p < n; ++p)
        overlap += static_cast<std::size_t>((*wl)[p] & granted_union[p]);
    return overlap;
}

/** Merge @p wl into the granted-set worklist union. */
void
mergeWorklist(std::vector<std::uint8_t> &granted_union,
              const std::vector<std::uint8_t> *wl)
{
    if (!wl)
        return;
    if (granted_union.size() < wl->size())
        granted_union.resize(wl->size(), 0);
    for (std::size_t p = 0; p < wl->size(); ++p)
        granted_union[p] |= (*wl)[p];
}

} // namespace

std::vector<SchedGrant>
scheduleJobs(const SchedulerPolicy &policy, const SchedSnapshot &snap)
{
    std::vector<SchedGrant> grants;
    if (snap.running_jobs >= policy.session_threads ||
        snap.waiting.empty())
        return grants;
    std::size_t slots = policy.session_threads - snap.running_jobs;

    std::vector<SchedJob> ranked = snap.waiting;
    std::sort(ranked.begin(), ranked.end(), ranksBefore);

    // Seed the co-scheduling signal with what is already running: a new
    // grant that iterates the same partitions shares their residency.
    std::vector<std::uint8_t> granted_union;
    for (const auto *wl : snap.running_worklists)
        mergeWorklist(granted_union, wl);

    std::size_t charged = snap.charged_bytes;
    std::vector<std::uint32_t> tenant_started = snap.tenant_started;
    std::vector<std::uint8_t> taken(ranked.size(), 0);

    auto admissible = [&](const SchedJob &j) {
        // A started job's plane is already charged and counted — it is
        // always re-admissible (parking must never deadlock a job).
        if (j.started)
            return true;
        if (policy.tenant_quota && j.tenant < tenant_started.size() &&
            tenant_started[j.tenant] >= policy.tenant_quota)
            return false;
        if (policy.state_budget_bytes &&
            charged + j.state_bytes > policy.state_budget_bytes)
            return false;
        return true;
    };

    while (slots > 0) {
        // The default pick: best-ranked admissible candidate.
        std::size_t pick = ranked.size();
        for (std::size_t i = 0; i < ranked.size(); ++i) {
            if (!taken[i] && admissible(ranked[i])) {
                pick = i;
                break;
            }
        }
        if (pick == ranked.size())
            break;

        // Co-scheduling: within the default pick's priority class,
        // prefer the candidate whose worklist overlaps the granted
        // set most (ties fall back to rank order).
        bool co_scheduled = false;
        if (policy.co_schedule && !granted_union.empty()) {
            std::size_t best_overlap =
                worklistOverlap(ranked[pick].worklist, granted_union);
            for (std::size_t i = pick + 1; i < ranked.size(); ++i) {
                if (taken[i] ||
                    ranked[i].priority != ranked[pick].priority)
                    continue;
                if (!admissible(ranked[i]))
                    continue;
                const std::size_t overlap =
                    worklistOverlap(ranked[i].worklist, granted_union);
                if (overlap > best_overlap) {
                    best_overlap = overlap;
                    pick = i;
                    co_scheduled = true;
                }
            }
        }

        const SchedJob &j = ranked[pick];
        taken[pick] = 1;
        if (!j.started) {
            charged += j.state_bytes;
            if (j.tenant < tenant_started.size())
                ++tenant_started[j.tenant];
        }
        mergeWorklist(granted_union, j.worklist);
        grants.push_back({j.id, co_scheduled});
        --slots;
    }
    return grants;
}

} // namespace digraph::engine
