/**
 * @file
 * A small fixed-size thread pool with a chunked parallel-for.
 *
 * PIMeval creates a host thread pool to parallelize functional
 * simulation across PIM cores (paper Listing 3: "Created thread pool
 * with 11 threads"). This reproduction provides the same facility; on
 * small machines it degrades gracefully to sequential execution.
 *
 * The hot path of the simulator uses parallelForChunks: each
 * participating thread (the caller plus every worker) repeatedly
 * claims a contiguous [lo, hi) chunk through a single atomic index —
 * work stealing without per-chunk task allocation — and runs the body
 * directly on the range, so op-specialized kernels keep a tight,
 * vectorizable inner loop (see docs/PERFORMANCE.md).
 */

#ifndef PIMEVAL_UTIL_THREAD_POOL_H_
#define PIMEVAL_UTIL_THREAD_POOL_H_

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "core/pim_metrics.h"

namespace pimeval {

/**
 * Fixed-size worker pool with a chunked parallel-for.
 *
 * Tasks are void() callables. The pool joins all workers on
 * destruction. parallelForChunks blocks until every chunk completes,
 * and is safe to call from inside a worker thread of this pool:
 * nested invocations run the whole range inline instead of enqueueing
 * (which would deadlock a fully busy pool).
 */
class ThreadPool
{
  public:
    /**
     * Create a pool.
     * @param num_threads Worker count; 0 means hardware_concurrency - 1
     *                    (minimum 1).
     */
    explicit ThreadPool(size_t num_threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Number of worker threads. */
    size_t size() const { return workers_.size(); }

    /** True when called from one of this pool's worker threads. */
    bool inWorkerThread() const;

    /**
     * Run body(lo, hi) over contiguous chunks covering [begin, end);
     * blocks until done. The caller participates: it claims chunks
     * alongside the workers through a shared atomic index, so an idle
     * pool never stalls the caller and a busy pool still makes
     * progress. Falls back to one inline body(begin, end) call when
     * the range is small, the pool has a single worker, or the caller
     * is itself a worker of this pool (nested use).
     */
    template <typename Body>
    void
    parallelForChunks(size_t begin, size_t end, Body &&body)
    {
        if (begin >= end)
            return;

        const size_t total = end - begin;
        const size_t num_workers = workers_.size();
        if (num_workers <= 1 || total < kMinParallelTotal ||
            inWorkerThread()) {
            PimMetrics::countInlineRun();
            body(begin, end);
            return;
        }
        PIM_METRIC_COUNT("threadpool.parallel_for", 1);

        // Enough chunks for balance, but never smaller than the grain
        // (tiny chunks defeat vectorized kernels and thrash the index).
        // The participant-based ceiling depends only on the pool size,
        // so it is computed once at construction (max_chunks_), not
        // per call — fused tapes call in here per chain.
        const size_t num_chunks =
            std::min(max_chunks_,
                     std::max<size_t>(1, total / kMinGrain));
        const size_t chunk = (total + num_chunks - 1) / num_chunks;

        std::atomic<size_t> next{0};
        auto steal = [&]() {
            size_t claimed = 0;
            for (;;) {
                const size_t c =
                    next.fetch_add(1, std::memory_order_relaxed);
                const size_t lo = begin + c * chunk;
                if (lo >= end)
                    return claimed;
                body(lo, std::min(end, lo + chunk));
                ++claimed;
            }
        };

        // One helper task per worker (not per chunk); each drains the
        // shared index until the range is exhausted.
        const size_t helpers = std::min(num_workers, num_chunks);
        size_t live = helpers;      // guarded by done_mutex
        size_t helper_chunks = 0;   // guarded by done_mutex
        std::mutex done_mutex;
        std::condition_variable done_cv;
        for (size_t w = 0; w < helpers; ++w) {
            enqueue([&] {
                const size_t claimed = steal();
                // Decrement and notify under the lock: the caller
                // cannot observe live == 0 (and return, releasing
                // this stack frame) until the helper has unlocked,
                // so no helper touches the frame afterwards.
                std::lock_guard<std::mutex> lock(done_mutex);
                helper_chunks += claimed;
                if (--live == 0)
                    done_cv.notify_one();
            });
        }

        const size_t caller_chunks = steal();

        // Helpers reference this stack frame; wait for all of them.
        std::unique_lock<std::mutex> lock(done_mutex);
        done_cv.wait(lock, [&] { return live == 0; });
        // Batched per invocation, not per chunk: the claims
        // themselves stay a single relaxed fetch_add.
        if (caller_chunks)
            PIM_METRIC_COUNT("threadpool.chunks_caller",
                             caller_chunks);
        if (helper_chunks)
            PIM_METRIC_COUNT("threadpool.chunks_stolen",
                             helper_chunks);
        PIM_METRIC_COUNT("threadpool.chunks",
                         caller_chunks + helper_chunks);
    }

  private:
    /** Below this range size dispatch costs more than it saves. */
    static constexpr size_t kMinParallelTotal = 2048;
    /** Minimum elements per claimed chunk. */
    static constexpr size_t kMinGrain = 1024;

    void workerLoop();
    void enqueue(std::function<void()> task);

    /** Chunk-count ceiling, 4x the participants (workers + caller);
     *  cached at construction — the pool size never changes. */
    size_t max_chunks_ = 4;

    std::vector<std::thread> workers_;
    std::queue<std::function<void()>> tasks_;
    std::mutex mutex_;
    std::condition_variable cv_;
    bool stopping_ = false;
};

} // namespace pimeval

#endif // PIMEVAL_UTIL_THREAD_POOL_H_
