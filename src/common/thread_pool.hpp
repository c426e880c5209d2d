/**
 * @file
 * A small fixed-size thread pool used by the parallel CPU preprocessing
 * stage (path decomposition, SCC contraction — Section 3.2.1), its only
 * user.
 */

#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace digraph {

/**
 * Fixed-size thread pool with a shared FIFO task queue.
 */
class ThreadPool
{
  public:
    /**
     * Create a pool with @p num_threads workers.
     * @param num_threads Number of worker threads; 0 means
     *                    hardware_concurrency().
     */
    explicit ThreadPool(std::size_t num_threads = 0);

    /** Join all workers; pending tasks are still executed. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Number of worker threads. */
    std::size_t size() const { return workers_.size(); }

    /** Enqueue a task and obtain a future for its completion. */
    template <typename F>
    auto
    submit(F &&fn) -> std::future<std::invoke_result_t<F>>
    {
        using R = std::invoke_result_t<F>;
        auto task = std::make_shared<std::packaged_task<R()>>(
            std::forward<F>(fn));
        std::future<R> fut = task->get_future();
        {
            std::lock_guard<std::mutex> guard(mutex_);
            tasks_.push([task] { (*task)(); });
        }
        cv_.notify_one();
        return fut;
    }

    /**
     * Run fn(i) for every i in [0, count) across the pool and wait for all
     * of them. Work is distributed in contiguous blocks.
     */
    void parallelFor(std::size_t count,
                     const std::function<void(std::size_t)> &fn);

  private:
    void workerLoop();

    std::vector<std::thread> workers_;
    std::queue<std::function<void()>> tasks_;
    std::mutex mutex_;
    std::condition_variable cv_;
    bool stopping_ = false;
};

} // namespace digraph
