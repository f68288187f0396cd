/**
 * @file
 * Internal to the serve layer: the shared state behind a PimJobHandle
 * (pim_serve.cpp mutates it, the handle methods read it) and the job
 * executor that pimJobRunDirect and the server both call.
 */

#ifndef PIMEVAL_SERVE_SERVE_INTERNAL_H_
#define PIMEVAL_SERVE_SERVE_INTERNAL_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <span>
#include <string>

#include "serve/pim_job.h"

namespace pimeval {
namespace serve_detail {

/**
 * Run same-shape jobs (validated; equal kind, n and cols) as one batch
 * on the calling thread's current context; outs[i] receives specs[i]'s
 * result. A batch too big for the device runs as two halves, each
 * through runJobs. @return PIM_OK when every job succeeded; otherwise
 * the last error has the detail.
 */
PimStatus runJobs(std::span<const PimJobSpec *const> specs,
                  std::span<PimJobOutput *const> outs);

/** Monotonic nanoseconds for queueing/latency accounting. */
inline uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

inline bool
isFinal(PimJobState s)
{
    return s == PimJobState::kDone || s == PimJobState::kFailed ||
           s == PimJobState::kRejected ||
           s == PimJobState::kCancelled ||
           s == PimJobState::kInvalid;
}

/**
 * One submitted job. Lifecycle: kQueued -> kRunning -> kDone/kFailed,
 * or kQueued -> kCancelled (handle-initiated, resolved by CAS against
 * the dispatching worker), or kRejected straight from submit.
 *
 * `state` is atomic so poll() never takes the mutex; every transition
 * to a final state also happens under `mutex` and signals `cv` so
 * wait() is race-free.
 */
struct PimJob
{
    PimJobSpec spec;
    uint64_t cost = 0; ///< pimJobCostElems(spec), cached at submit

    std::atomic<PimJobState> state{PimJobState::kInvalid};

    mutable std::mutex mutex;
    mutable std::condition_variable cv;
    PimJobOutput out;
    std::string error;

    // Atomics: handles read these concurrently with the worker.
    uint64_t submit_ns = 0; ///< written before the handle exists
    std::atomic<uint64_t> dispatch_ns{0}; ///< 0 until dispatched
    std::atomic<uint64_t> complete_ns{0}; ///< 0 until final
    std::atomic<uint64_t> batch_size{0};  ///< jobs in its dispatch
    std::atomic<uint64_t> completion_seq{0}; ///< finish order, 1-based

    /** Move to a final state and wake waiters. @p why lands in
     *  `error` (under the lock) when non-empty. */
    void
    finish(PimJobState final_state, const std::string &why = "")
    {
        std::lock_guard<std::mutex> lock(mutex);
        if (!why.empty())
            error = why;
        complete_ns.store(nowNs(), std::memory_order_relaxed);
        state.store(final_state, std::memory_order_release);
        cv.notify_all();
    }
};

} // namespace serve_detail
} // namespace pimeval

#endif // PIMEVAL_SERVE_SERVE_INTERNAL_H_
