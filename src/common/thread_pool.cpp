#include "common/thread_pool.hpp"

#include <algorithm>

namespace digraph {

ThreadPool::ThreadPool(std::size_t num_threads)
{
    if (num_threads == 0) {
        num_threads = std::max(1u, std::thread::hardware_concurrency());
    }
    workers_.reserve(num_threads);
    for (std::size_t i = 0; i < num_threads; ++i) {
        workers_.emplace_back([this] { workerLoop(); });
    }
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> guard(mutex_);
        stopping_ = true;
    }
    cv_.notify_all();
    for (auto &worker : workers_) {
        worker.join();
    }
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            cv_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
            if (tasks_.empty()) {
                if (stopping_)
                    return;
                continue;
            }
            task = std::move(tasks_.front());
            tasks_.pop();
        }
        task();
    }
}

void
ThreadPool::parallelFor(std::size_t count,
                        const std::function<void(std::size_t)> &fn)
{
    if (count == 0)
        return;
    const std::size_t num_blocks = std::min(count, size());
    const std::size_t block = (count + num_blocks - 1) / num_blocks;
    std::vector<std::future<void>> futures;
    futures.reserve(num_blocks);
    for (std::size_t b = 0; b < num_blocks; ++b) {
        const std::size_t lo = b * block;
        const std::size_t hi = std::min(count, lo + block);
        if (lo >= hi)
            break;
        futures.push_back(submit([lo, hi, &fn] {
            for (std::size_t i = lo; i < hi; ++i)
                fn(i);
        }));
    }
    for (auto &fut : futures)
        fut.get();
}

} // namespace digraph
