/**
 * @file
 * Multi-source reachability as monotone bitmask propagation: each of up
 * to 52 sources owns one bit; x(v) is the OR of the bits of the sources
 * that reach v. (52 bits so the mask is exactly representable in the
 * double-valued state arrays.) Answers the reachability-query workloads
 * of DAG-reduction style systems the paper cites [56].
 */

#pragma once

#include <vector>

#include "algorithms/algorithm.hpp"
#include "common/logging.hpp"

namespace digraph::algorithms {

/** Kernel policy: monotone bitwise-OR propagation over the 52 source
 *  bits (exactly representable in the double-valued state arrays). */
struct ReachabilityPolicy
{
    static constexpr bool kUsesWeight = false;
    static constexpr bool kUsesOutDegree = false;

    bool
    processEdge(Value src, Value &, EdgeId, Value, std::uint32_t,
                Value &dst) const
    {
        const auto combined = static_cast<std::uint64_t>(dst) |
                              static_cast<std::uint64_t>(src);
        if (combined != static_cast<std::uint64_t>(dst)) {
            dst = static_cast<Value>(combined);
            return true;
        }
        return false;
    }

    bool
    mergeMaster(Value &master, Value pushed) const
    {
        const auto combined = static_cast<std::uint64_t>(master) |
                              static_cast<std::uint64_t>(pushed);
        if (combined != static_cast<std::uint64_t>(master)) {
            master = static_cast<Value>(combined);
            return true;
        }
        return false;
    }

    Value pushValue(Value current, Value) const { return current; }

    bool
    hasPush(Value current, Value at_load) const
    {
        return static_cast<std::uint64_t>(current) !=
               static_cast<std::uint64_t>(at_load);
    }

    Value
    pull(Value master, Value mirror) const
    {
        return static_cast<Value>(static_cast<std::uint64_t>(master) |
                                  static_cast<std::uint64_t>(mirror));
    }
};

/** Monotone multi-source reachability (bitwise-OR propagation). */
class Reachability : public PolicyAlgorithm<ReachabilityPolicy>
{
  public:
    /** @param sources Up to 52 source vertices, one bit each. */
    explicit Reachability(std::vector<VertexId> sources)
        : PolicyAlgorithm(ReachabilityPolicy{}),
          sources_(std::move(sources))
    {
        if (sources_.size() > 52)
            fatal("Reachability: at most 52 sources supported");
    }

    std::string name() const override { return "reachability"; }

    std::string kernelTag() const override { return "reachability"; }

    Value
    initVertex(const graph::DirectedGraph &, VertexId v) const override
    {
        std::uint64_t mask = 0;
        for (std::size_t i = 0; i < sources_.size(); ++i) {
            if (sources_[i] == v)
                mask |= 1ull << i;
        }
        return static_cast<Value>(mask);
    }

    bool
    initActive(const graph::DirectedGraph &, VertexId v) const override
    {
        for (const VertexId s : sources_) {
            if (s == v)
                return true;
        }
        return false;
    }

    double resultTolerance() const override { return 0.0; }

    /** True when source bit @p i reaches a vertex with state @p state. */
    static bool
    reaches(Value state, std::size_t i)
    {
        return (static_cast<std::uint64_t>(state) >> i) & 1u;
    }

  private:
    std::vector<VertexId> sources_;
};

} // namespace digraph::algorithms
