#include "metrics/trace.hpp"

#include <fstream>
#include <map>
#include <thread>

#include "common/atomic_file.hpp"
#include "common/logging.hpp"

namespace digraph::metrics {

namespace {

/** Dense per-process thread ids (0 = the thread that records
 *  first). */
std::uint32_t
denseThreadId()
{
    static std::mutex mu;
    static std::map<std::thread::id, std::uint32_t> ids;
    std::lock_guard<std::mutex> lock(mu);
    const auto [it, inserted] = ids.try_emplace(
        std::this_thread::get_id(),
        static_cast<std::uint32_t>(ids.size()));
    return it->second;
}

/** Print a double as a JSON-safe number (no inf/nan, fixed point). */
void
writeJsonNumber(std::ostream &out, double v)
{
    if (!(v == v) || v > 1e300 || v < -1e300)
        v = 0.0;
    const auto flags = out.flags();
    out.setf(std::ios::fixed);
    const auto prec = out.precision(3);
    out << v;
    out.flags(flags);
    out.precision(prec);
}

} // namespace

void
TraceSink::record(TraceEvent event)
{
    event.tid = denseThreadId();
    std::lock_guard<std::mutex> lock(mutex_);
    event.wall_seconds = epoch_.seconds();
    events_.push_back(event);
}

std::vector<TraceEvent>
TraceSink::events() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return events_;
}

std::size_t
TraceSink::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return events_.size();
}

std::size_t
TraceSink::count(TraceEventType type) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::size_t n = 0;
    for (const TraceEvent &e : events_)
        n += e.type == type ? 1 : 0;
    return n;
}

void
TraceSink::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    events_.clear();
    counters_.reset();
    epoch_.reset();
}

void
TraceSink::setCounters(const CounterRegistry &counters)
{
    std::lock_guard<std::mutex> lock(mutex_);
    counters_ = counters;
}

CounterRegistry
TraceSink::counters() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return counters_;
}

void
TraceSink::writeChromeJson(const std::string &path) const
{
    const auto events = this->events();
    const auto counters = this->counters();

    AtomicFileWriter writer(path);
    if (!writer.ok())
        fatal("TraceSink::writeChromeJson: cannot open ", path);
    std::ofstream &out = writer.stream();

    // Trace Event Format: "ts"/"dur" are microseconds in real traces;
    // here one simulated cycle maps to one "microsecond" so the viewer's
    // timeline is the simulated timeline.
    out << "{\n\"displayTimeUnit\": \"ms\",\n\"counters\": {";
    bool first = true;
    counters.forEach([&](Counter c, std::uint64_t v) {
        out << (first ? "\n" : ",\n") << "  \"" << counterName(c)
            << "\": " << v;
        first = false;
    });
    out << "\n},\n\"traceEvents\": [";
    for (std::size_t i = 0; i < events.size(); ++i) {
        const TraceEvent &e = events[i];
        out << (i ? ",\n" : "\n");
        out << "  {\"name\": \"" << traceEventName(e.type)
            << "\", \"cat\": \"engine\", \"ph\": \"X\", \"ts\": ";
        writeJsonNumber(out, e.sim_begin);
        out << ", \"dur\": ";
        writeJsonNumber(out, e.sim_dur);
        out << ", \"pid\": 0, \"tid\": " << e.tid
            << ", \"args\": {\"wave\": " << e.wave;
        if (e.partition != kTraceNoPartition)
            out << ", \"partition\": " << e.partition;
        out << ", \"arg0\": " << e.arg0 << ", \"arg1\": " << e.arg1
            << ", \"wall_s\": ";
        writeJsonNumber(out, e.wall_seconds);
        out << "}}";
    }
    out << "\n]\n}\n";
    if (!writer.commit())
        fatal("TraceSink::writeChromeJson: write failed for ", path);
}

void
TraceSink::writeCsv(const std::string &path) const
{
    const auto events = this->events();

    AtomicFileWriter writer(path);
    if (!writer.ok())
        fatal("TraceSink::writeCsv: cannot open ", path);
    std::ofstream &out = writer.stream();
    out << "event,tid,wave,partition,sim_begin,sim_dur,wall_seconds,"
           "arg0,arg1\n";
    const auto flags = out.flags();
    out.setf(std::ios::fixed);
    out.precision(3);
    for (const TraceEvent &e : events) {
        out << traceEventName(e.type) << ',' << e.tid << ',' << e.wave
            << ',';
        if (e.partition != kTraceNoPartition)
            out << e.partition;
        out << ',' << e.sim_begin << ',' << e.sim_dur << ','
            << e.wall_seconds << ',' << e.arg0 << ',' << e.arg1 << '\n';
    }
    out.flags(flags);
    if (!writer.commit())
        fatal("TraceSink::writeCsv: write failed for ", path);
}

} // namespace digraph::metrics
