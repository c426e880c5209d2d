#include "session.hpp"

#include <algorithm>
#include <thread>

namespace perfbench {

using digraph::engine::GraphService;
using digraph::engine::JobState;

namespace {

/** Pause between poll sweeps of the polling thread. */
constexpr std::chrono::microseconds kPollInterval(200);

struct Client
{
    bool writer = false;
    bool busy = false;
    digraph::engine::JobId id = 0;
    Clock::time_point submitted;
    std::size_t span = kNoSpan;
};

} // namespace

SessionOutcome
runSession(GraphService &service, const SessionPlan &plan, Tracer &tracer,
           std::size_t parent)
{
    const std::size_t num_queries = plan.queries ? plan.queries->size() : 0;
    const std::size_t num_batches = plan.batches ? plan.batches->size() : 0;
    std::vector<Client> clients(plan.readers);
    if (num_batches) {
        clients.emplace_back();
        clients.back().writer = true;
    }

    SessionOutcome out;
    std::size_t next_query = 0;
    std::size_t next_batch = 0;
    const Clock::time_point start = Clock::now();
    Clock::time_point last_query_done = start;
    for (;;) {
        bool busy = false;
        for (Client &c : clients) {
            if (c.busy) {
                const JobState state = service.poll(c.id).state;
                if (state == JobState::Done || state == JobState::Rejected) {
                    const Clock::time_point now = Clock::now();
                    if (state == JobState::Rejected) {
                        ++out.rejected;
                    } else {
                        out.samples.push_back(
                            {c.writer, secondsBetween(c.submitted, now)});
                    }
                    tracer.close(c.span, now);
                    if (!c.writer)
                        last_query_done = now;
                    c.busy = false;
                }
            }
            if (!c.busy) {
                if (c.writer && next_batch < num_batches) {
                    c.submitted = Clock::now();
                    c.id = service.addUpdateAsync(
                        (*plan.batches)[next_batch++]);
                    c.span = tracer.open("service.update", c.submitted,
                                         parent, c.id);
                    c.busy = true;
                } else if (!c.writer && next_query < num_queries) {
                    c.submitted = Clock::now();
                    c.id = service.addJobAsync((*plan.queries)[next_query++]);
                    c.span = tracer.open("service.query", c.submitted,
                                         parent, c.id);
                    c.busy = true;
                }
            }
            busy = busy || c.busy;
        }
        out.live_epochs_peak =
            std::max(out.live_epochs_peak, service.catalog().liveEpochs());
        if (!busy)
            break;
        std::this_thread::sleep_for(kPollInterval);
    }
    out.wall = secondsBetween(start, Clock::now());
    out.reader_wall = secondsBetween(start, last_query_done);
    out.results = service.drain();
    out.stats = service.stats();
    return out;
}

} // namespace perfbench
