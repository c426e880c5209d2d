/**
 * @file
 * Measurement plumbing shared by every workload: the clock, quantiles,
 * the in-memory span recorder and the metric table the binary prints.
 */

#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds between two clock readings. */
inline double
secondsBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

/** Linear-interpolated quantile @p q in [0,1] (numpy's default); 0 for an
 *  empty sample. */
double quantile(std::vector<double> values, double q);

inline double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

/** Sentinel parent of a root span. */
inline constexpr std::size_t kNoSpan = ~static_cast<std::size_t>(0);

/** One recorded interval. Times are seconds since the recorder started. */
struct Span
{
    std::string name;
    double start = 0.0;
    double end = 0.0;
    std::size_t parent = kNoSpan;
    /** Request the span belongs to (a service job id; 0 = none). */
    std::uint64_t request = 0;
};

/**
 * Keeps spans in memory and writes them out when the run ends. When
 * disabled every call is a no-op returning kNoSpan, so the untraced runs
 * take the same timestamps and pay no recording cost.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now())
    {}

    bool enabled() const { return enabled_; }
    void setEnabled(bool on) { enabled_ = on; }

    /** Open a span that started at @p start; returns its id. */
    std::size_t open(const char *name, Clock::time_point start,
                     std::size_t parent = kNoSpan,
                     std::uint64_t request = 0);

    /** Close span @p id at @p end (ignores kNoSpan). */
    void close(std::size_t id, Clock::time_point end);

    /** Record a finished span. */
    std::size_t
    add(const char *name, Clock::time_point start, Clock::time_point end,
        std::size_t parent = kNoSpan, std::uint64_t request = 0)
    {
        const std::size_t id = open(name, start, parent, request);
        close(id, end);
        return id;
    }

    /** Summed duration of the direct children of @p parent. */
    double childSeconds(std::size_t parent) const;

    /** Duration of span @p id (0 for kNoSpan). */
    double seconds(std::size_t id) const;

    const std::vector<Span> &spans() const { return spans_; }

    /** Write every span as a JSON array. @return false on I/O error. */
    bool writeJson(const std::string &path) const;

  private:
    bool enabled_;
    Clock::time_point origin_;
    std::vector<Span> spans_;
};

/** One printed metric. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};

/** Ordered name -> metric table. */
using MetricTable = std::map<std::string, Metric>;

/**
 * Per-round values of named quantities, reduced to one number per name
 * at the end of the run (median across rounds).
 */
class RoundSeries
{
  public:
    void add(const std::string &name, double value)
    {
        series_[name].push_back(value);
    }

    /** Median across rounds; 0 when the name was never recorded. */
    double median(const std::string &name) const;

    /** Every round's value of @p name (empty when never recorded). */
    std::vector<double> values(const std::string &name) const
    {
        const auto it = series_.find(name);
        return it == series_.end() ? std::vector<double>{} : it->second;
    }

  private:
    std::map<std::string, std::vector<double>> series_;
};

/** JSON string literal with escapes. */
std::string jsonString(const std::string &s);

/** Shortest round-tripping decimal form of @p v (finite values only;
 *  non-finite values print as 0 and should never reach a table). */
std::string jsonNumber(double v);

} // namespace perfbench
