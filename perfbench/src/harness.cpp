#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace perfbench {

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

std::size_t
Tracer::open(const char *name, Clock::time_point start, std::size_t parent,
             std::uint64_t request)
{
    if (!enabled_)
        return kNoSpan;
    Span s;
    s.name = name;
    s.start = secondsBetween(origin_, start);
    s.end = s.start;
    s.parent = parent;
    s.request = request;
    spans_.push_back(std::move(s));
    return spans_.size() - 1;
}

void
Tracer::close(std::size_t id, Clock::time_point end)
{
    if (id == kNoSpan || id >= spans_.size())
        return;
    spans_[id].end = secondsBetween(origin_, end);
}

double
Tracer::seconds(std::size_t id) const
{
    if (id == kNoSpan || id >= spans_.size())
        return 0.0;
    return spans_[id].end - spans_[id].start;
}

double
Tracer::childSeconds(std::size_t parent) const
{
    double sum = 0.0;
    if (parent == kNoSpan)
        return sum;
    for (std::size_t i = parent + 1; i < spans_.size(); ++i) {
        if (spans_[i].parent == parent)
            sum += spans_[i].end - spans_[i].start;
    }
    return sum;
}

bool
Tracer::writeJson(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << "[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        out << "  {\"id\": " << i << ", \"name\": " << jsonString(s.name)
            << ", \"start\": " << jsonNumber(s.start)
            << ", \"end\": " << jsonNumber(s.end) << ", \"parent\": "
            << (s.parent == kNoSpan ? std::string("null")
                                    : std::to_string(s.parent))
            << ", \"request\": " << s.request << "}"
            << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]\n";
    return static_cast<bool>(out);
}

double
RoundSeries::median(const std::string &name) const
{
    const auto it = series_.find(name);
    return it == series_.end() ? 0.0 : perfbench::median(it->second);
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

} // namespace perfbench
