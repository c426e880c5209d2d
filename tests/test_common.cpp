/**
 * @file
 * Unit tests for the common utilities: deterministic RNG, timers, thread
 * pool, and the stats registry.
 */

#include <atomic>
#include <set>
#include <thread>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"

namespace digraph {
namespace {

TEST(SplitMix64, DeterministicForSeed)
{
    SplitMix64 a(123), b(123);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix64, DifferentSeedsDiffer)
{
    SplitMix64 a(1), b(2);
    int equal = 0;
    for (int i = 0; i < 100; ++i)
        equal += a.next() == b.next();
    EXPECT_LT(equal, 5);
}

TEST(SplitMix64, BoundedStaysInRange)
{
    SplitMix64 rng(7);
    for (int i = 0; i < 10000; ++i) {
        const auto v = rng.nextBounded(17);
        EXPECT_LT(v, 17u);
    }
}

TEST(SplitMix64, DoubleInUnitInterval)
{
    SplitMix64 rng(9);
    double lo = 1.0, hi = 0.0;
    for (int i = 0; i < 10000; ++i) {
        const double d = rng.nextDouble();
        ASSERT_GE(d, 0.0);
        ASSERT_LT(d, 1.0);
        lo = std::min(lo, d);
        hi = std::max(hi, d);
    }
    EXPECT_LT(lo, 0.05);
    EXPECT_GT(hi, 0.95);
}

TEST(SplitMix64, SplitProducesIndependentStream)
{
    SplitMix64 parent(42);
    SplitMix64 child = parent.split();
    // Child stream differs from the continued parent stream.
    EXPECT_NE(parent.next(), child.next());
}

TEST(SplitMix64, BernoulliRoughlyCalibrated)
{
    SplitMix64 rng(5);
    int hits = 0;
    for (int i = 0; i < 20000; ++i)
        hits += rng.nextBool(0.25);
    EXPECT_NEAR(hits / 20000.0, 0.25, 0.02);
}

TEST(WallTimer, MeasuresElapsedTime)
{
    WallTimer timer;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    EXPECT_GE(timer.milliseconds(), 5.0);
    timer.reset();
    EXPECT_LT(timer.milliseconds(), 5.0);
}

TEST(AccumTimer, AccumulatesSections)
{
    AccumTimer acc;
    for (int i = 0; i < 3; ++i) {
        ScopedTimer guard(acc);
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    EXPECT_GE(acc.seconds(), 0.010);
    acc.reset();
    EXPECT_EQ(acc.seconds(), 0.0);
}

TEST(ThreadPool, RunsSubmittedTasks)
{
    ThreadPool pool(3);
    EXPECT_EQ(pool.size(), 3u);
    auto f1 = pool.submit([] { return 41 + 1; });
    auto f2 = pool.submit([] { return std::string("ok"); });
    EXPECT_EQ(f1.get(), 42);
    EXPECT_EQ(f2.get(), "ok");
}

TEST(ThreadPool, ParallelForCoversEveryIndex)
{
    ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(1000);
    pool.parallelFor(1000, [&](std::size_t i) { ++hits[i]; });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEmptyIsNoop)
{
    ThreadPool pool(2);
    bool called = false;
    pool.parallelFor(0, [&](std::size_t) { called = true; });
    EXPECT_FALSE(called);
}

TEST(StatsRegistry, CountersAccumulateAndSnapshot)
{
    StatsRegistry stats;
    stats.counter("a").add(5);
    stats.counter("a").add(2);
    stats.counter("b").add();
    EXPECT_EQ(stats.get("a"), 7u);
    EXPECT_EQ(stats.get("b"), 1u);
    EXPECT_EQ(stats.get("missing"), 0u);
    const auto snap = stats.snapshot();
    ASSERT_EQ(snap.size(), 2u);
    EXPECT_EQ(snap[0].first, "a");
    stats.resetAll();
    EXPECT_EQ(stats.get("a"), 0u);
}

} // namespace
} // namespace digraph
