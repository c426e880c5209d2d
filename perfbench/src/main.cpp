/**
 * @file
 * perfbench: the repository benchmark binary (see README.md).
 *
 *   perfbench gen --workload W --seed N --out DIR [--tiny]
 *   perfbench run --inputs DIR --work DIR --seconds S --trace 0|1
 *
 * `run` prints one JSON object as its last stdout line: attempted and
 * failed operations, rounds, failure diagnostics and the metric table
 * (end-to-end metrics untraced, per-layer metrics with --trace 1). It
 * exits 1 when any operation failed or validated wrong, 2 on bad usage.
 */

#include <malloc.h>

#include <cmath>
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>

#include "harness.hpp"
#include "inputs.hpp"
#include "workloads.hpp"

namespace {

int
usage()
{
    std::cerr
        << "usage: perfbench gen --workload W --seed N --out DIR [--tiny]\n"
           "       perfbench run --inputs DIR --work DIR --seconds S "
           "--trace 0|1\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    // Every service job runs on a fresh thread; with glibc's default of
    // one malloc arena per thread (up to 8 per core) the freed job state
    // stays spread over many arenas and peak RSS swings by 20% between
    // identical runs. Two arenas keep peak_rss_mb repeatable.
    mallopt(M_ARENA_MAX, 2);
    if (argc < 2)
        return usage();
    const std::string command = argv[1];
    std::map<std::string, std::string> args;
    bool tiny = false;
    for (int i = 2; i < argc; ++i) {
        const std::string key = argv[i];
        if (key == "--tiny") {
            tiny = true;
        } else if (key.rfind("--", 0) == 0 && i + 1 < argc) {
            args[key.substr(2)] = argv[++i];
        } else {
            return usage();
        }
    }

    if (command == "gen") {
        if (!args.count("workload") || !args.count("seed") ||
            !args.count("out"))
            return usage();
        const std::uint64_t seed = std::strtoull(args["seed"].c_str(),
                                                 nullptr, 10);
        return perfbench::generateInputs(args["workload"], seed, tiny,
                                         args["out"])
                   ? 0
                   : 2;
    }
    if (command != "run" || !args.count("inputs") || !args.count("work"))
        return usage();

    perfbench::Plan plan;
    if (!perfbench::readPlan(args["inputs"], plan)) {
        std::cerr << "perfbench run: no readable plan in " << args["inputs"]
                  << "\n";
        return 2;
    }
    perfbench::RunOptions options;
    options.work_dir = args["work"];
    options.seconds = args.count("seconds") ? std::atof(args["seconds"].c_str())
                                            : 10.0;
    options.trace = args.count("trace") && args["trace"] == "1";

    perfbench::RunResult result = perfbench::runWorkload(plan, options);
    for (const auto &[name, metric] : result.metrics) {
        if (!std::isfinite(metric.value)) {
            ++result.failed;
            result.errors.push_back(name + " is not a finite number");
        }
    }

    using perfbench::jsonNumber;
    using perfbench::jsonString;
    std::string out = "{\"workload\": " + jsonString(plan.workload) +
                      ", \"attempted\": " + std::to_string(result.attempted) +
                      ", \"failed\": " + std::to_string(result.failed) +
                      ", \"rounds\": " + std::to_string(result.rounds) +
                      ", \"errors\": [";
    for (std::size_t i = 0; i < result.errors.size(); ++i)
        out += (i ? ", " : "") + jsonString(result.errors[i]);
    out += "], \"rounds_series\": {";
    bool first = true;
    for (const auto &[name, values] : result.rounds_series) {
        out += (first ? "" : ", ") + jsonString(name) + ": [";
        for (std::size_t i = 0; i < values.size(); ++i)
            out += (i ? ", " : "") + jsonNumber(values[i]);
        out += "]";
        first = false;
    }
    out += "}, \"metrics\": {";
    first = true;
    for (const auto &[name, metric] : result.metrics) {
        out += (first ? "" : ", ") + jsonString(name) +
               ": {\"value\": " + jsonNumber(metric.value) +
               ", \"unit\": " + jsonString(metric.unit) + "}";
        first = false;
    }
    out += "}}";
    std::cout << out << std::endl;
    return result.failed ? 1 : 0;
}
