/**
 * @file
 * Thread pool implementation.
 */

#include "util/thread_pool.h"

namespace pimeval {

namespace {

/**
 * Pool whose workerLoop owns the current thread, if any. Used to run
 * nested parallel-for invocations inline: a worker that blocks waiting
 * for its own pool would deadlock once all workers do it.
 */
thread_local const ThreadPool *tls_worker_pool = nullptr;

} // namespace

ThreadPool::ThreadPool(size_t num_threads)
{
    size_t n = num_threads;
    if (n == 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        n = hw > 1 ? hw - 1 : 1;
    }
    workers_.reserve(n);
    for (size_t i = 0; i < n; ++i)
        workers_.emplace_back([this] { workerLoop(); });
    max_chunks_ = (workers_.size() + 1) * 4;
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    cv_.notify_all();
    for (auto &w : workers_)
        w.join();
}

bool
ThreadPool::inWorkerThread() const
{
    return tls_worker_pool == this;
}

void
ThreadPool::enqueue(std::function<void()> task)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        tasks_.push(std::move(task));
    }
    cv_.notify_one();
}

void
ThreadPool::workerLoop()
{
    tls_worker_pool = this;
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            cv_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
            if (stopping_ && tasks_.empty())
                return;
            task = std::move(tasks_.front());
            tasks_.pop();
        }
        task();
    }
}

} // namespace pimeval
