/**
 * @file
 * Typed job-submission API (API v3): describe *what* to run instead
 * of issuing raw PIM commands.
 *
 * A PimJobSpec names an application kind (vector add/mul, scaled-add,
 * dot product, GEMV), its shape, and its serving attributes (tenant,
 * deadline class). Submitting a spec to
 * a PimServer (core of pim_serve.h) yields a PimJobHandle — a future
 * with wait()/poll()/cancel() — while the scheduler decides which
 * context executes it and whether it coalesces with other same-shape
 * jobs into one batched execution.
 *
 * The contract that makes batching safe: a job's functional result is
 * bit-identical to direct (unserved) execution of the same spec,
 * whether the scheduler runs it alone or in a batch. All exposed
 * kinds are wraparound int32 element arithmetic (plus int64 reduction
 * for kDot), for which concatenation, per-job ranged reductions, and
 * the mul+add decomposition of scaled-add are all exact.
 *
 * Input pointers in the spec must stay valid until the job reaches a
 * final state (the server does not snapshot inputs at submission).
 */

#ifndef PIMEVAL_SERVE_PIM_JOB_H_
#define PIMEVAL_SERVE_PIM_JOB_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/pim_types.h"

namespace pimeval {

/** Application kinds servable through the job API. */
enum class PimJobKind {
    kVecAdd = 0,   ///< out[i] = a[i] + b[i]
    kVecMul,       ///< out[i] = a[i] * b[i]
    kVecScaledAdd, ///< out[i] = a[i] * scalar + b[i] (AXPY)
    kDot,          ///< scalar = sum_i a[i] * b[i]
    kGemv,         ///< out = A * b for an n x cols column-major A
};

/** Latency class of a job. */
enum class PimJobDeadline {
    kBatchable = 0, ///< may be coalesced with same-shape jobs
    kInteractive,   ///< dispatched alone, never held for batching
};

/** Lifecycle of a submitted job. */
enum class PimJobState {
    kInvalid = 0, ///< default-constructed / submission failed hard
    kQueued,      ///< admitted, waiting for dispatch
    kRunning,     ///< executing on a context
    kDone,        ///< completed, output available
    kFailed,      ///< execution failed (error() has the detail)
    kRejected,    ///< admission control refused it (queue bound)
    kCancelled,   ///< cancelled before dispatch
};

/**
 * One job: the complete description of a unit of work.
 *
 * Shapes per kind (int32 elements throughout):
 *  - kVecAdd/kVecMul/kVecScaledAdd: a[n], b[n] -> out[n]
 *  - kDot:  a[n], b[n] -> int64 scalar
 *  - kGemv: a = column-major n x cols matrix, b[cols] -> out[n]
 */
struct PimJobSpec
{
    PimJobKind kind = PimJobKind::kVecAdd;
    /** Vector length; for kGemv the output length (matrix rows). */
    uint64_t n = 0;
    /** kGemv only: matrix columns (= length of b). */
    uint64_t cols = 0;
    /** First operand: vector, or the kGemv column-major matrix. */
    const int32_t *a = nullptr;
    /** Second operand: vector, or the kGemv input vector. */
    const int32_t *b = nullptr;
    /** kVecScaledAdd multiplier (the low 32 bits, as an int32). */
    uint64_t scalar = 0;

    // --- Serving attributes ---
    /** Tenant this job bills to; tenants get isolated queues,
     *  contexts, and PimServeStats counts. */
    std::string tenant = "default";
    PimJobDeadline deadline = PimJobDeadline::kBatchable;
};

/** A completed job's output. */
struct PimJobOutput
{
    /** Element results (kVecAdd/kVecMul/kVecScaledAdd/kGemv). */
    std::vector<int32_t> values;
    /** Reduction result (kDot). */
    int64_t scalar = 0;
};

namespace serve_detail {
struct PimJob;
} // namespace serve_detail

/**
 * Future for one submitted job. Cheap to copy (shared state); the
 * last copy going away does not cancel the job.
 */
class PimJobHandle
{
  public:
    PimJobHandle() = default;

    /** False for default-constructed handles (submission that failed
     *  before a job could even be recorded). */
    bool valid() const { return job_ != nullptr; }

    /** Current state, without blocking. */
    PimJobState poll() const;

    /** Block until the job reaches a final state; returns it. */
    PimJobState wait() const;

    /**
     * Cancel a queued job: it will never execute and wait() returns
     * kCancelled. @return true when the cancel won the race (false if
     * the job was already dispatched, finished, or rejected).
     */
    bool cancel() const;

    /** The output; blocks via wait(). Empty unless state is kDone. */
    const PimJobOutput &output() const;

    /** Failure / rejection detail ("" when none). */
    const char *error() const;

    /** Admission-to-dispatch queueing delay (0 until dispatched). */
    uint64_t queueNs() const;

    /** Submission-to-completion latency (0 until final). */
    uint64_t latencyNs() const;

    /** Number of jobs in the batch this job executed in (1 when it
     *  ran alone; 0 until dispatched). */
    uint64_t batchSize() const;

    /** Server-wide completion order (1-based; 0 until final).
     *  Scheduling diagnostics: smaller finished earlier. */
    uint64_t completionSeq() const;

  private:
    friend class PimServer;
    explicit PimJobHandle(std::shared_ptr<serve_detail::PimJob> job)
        : job_(std::move(job))
    {
    }

    std::shared_ptr<serve_detail::PimJob> job_;
};

/** Cost proxy of a job for fair queuing: total elements touched. */
uint64_t pimJobCostElems(const PimJobSpec &spec);

/**
 * Validate a spec. @return false with @p why filled (when non-null)
 * for an unknown kind, zero/missing shape, null operands or an empty
 * tenant.
 */
bool pimJobValidate(const PimJobSpec &spec, std::string *why);

/**
 * Execute one job directly on the calling thread's current context
 * (the "unserved" path: a batch of one through the executor every
 * served dispatch uses). Requires an active device/context.
 */
PimStatus pimJobRunDirect(const PimJobSpec &spec, PimJobOutput *out);

} // namespace pimeval

#endif // PIMEVAL_SERVE_PIM_JOB_H_
