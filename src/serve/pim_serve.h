/**
 * @file
 * PIM-as-a-service: a multi-tenant batching scheduler fronting a pool
 * of device contexts (API v3; docs/API.md "Serving API").
 *
 * A PimServer owns N worker threads, each pinned to its own
 * PimContext, and a per-tenant job queue per worker. Tenants are
 * assigned to workers round-robin at first submission, so with
 * tenants <= workers every tenant gets a private context — private
 * statistics (pimGetStats under a PimContextScope on
 * tenantContext()) and trace track.
 *
 * Scheduling, per worker:
 *  - Admission control: each tenant's queue is bounded
 *    (tenant_queue_cap). A submit past the bound is rejected
 *    immediately — the handle resolves to kRejected, the thread-local
 *    last error is set — and never blocks the submitter.
 *  - Weighted fair queuing: each tenant carries a virtual time that
 *    advances by cost/weight on dispatch; the worker always serves
 *    the backlogged tenant with the smallest virtual time, so over
 *    any backlogged interval tenants share the context in proportion
 *    to their weights. An idle tenant's virtual time is clamped
 *    forward on reactivation — idling banks no credit.
 *  - Coalescing: consecutive-in-queue compatible jobs of one tenant
 *    (same kind/shape, deadline kBatchable) dispatch as one
 *    batched execution of up to max_batch jobs, amortizing
 *    per-command simulation overhead. A dispatch of one job and a
 *    coalesced batch run through the same executor, and results are
 *    bit-identical to running every job alone (see pim_job.h).
 *    kInteractive jobs are never held for batching.
 *
 * Serving counts are kept per tenant and per server (PimServeStats,
 * from stats()) and also land in the process-wide serve.* metrics:
 * counters submitted / admitted / rejected / completed / failed /
 * cancelled / batches / batched_jobs and histograms queue_ns /
 * exec_ns / batch_size, summed over every server.
 */

#ifndef PIMEVAL_SERVE_PIM_SERVE_H_
#define PIMEVAL_SERVE_PIM_SERVE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "core/pim_context.h"
#include "core/pim_params.h"
#include "serve/pim_job.h"

namespace pimeval {

/** Server construction parameters. */
struct PimServeConfig
{
    /** Device every pool context simulates. */
    PimDeviceConfig device;
    /** Worker threads == contexts. */
    size_t num_workers = 2;
    /** Per-tenant admission bound (queued jobs, per worker). */
    size_t tenant_queue_cap = 256;
    /** Batch-coalescing cap; 1 disables coalescing. */
    size_t max_batch = 16;
    /** Master switch for same-shape coalescing. */
    bool batching = true;
    /** -1 = inherit PIMEVAL_FUSION (read at context creation); 0/1
     *  force the pool contexts' fusion toggle. */
    int fusion = -1;
    /** Context labels: "<label_prefix>.w<worker>". */
    std::string label_prefix = "serve";
};

/** Per-tenant serving statistics. */
struct PimServeTenantStats
{
    uint64_t submitted = 0;
    uint64_t admitted = 0;
    uint64_t rejected = 0;
    uint64_t completed = 0;
    uint64_t failed = 0;
    uint64_t cancelled = 0;
    uint64_t batched_jobs = 0; ///< completed in a batch of size > 1
    uint64_t queued = 0;       ///< currently waiting
    double weight = 1.0;
    size_t worker = 0; ///< pool worker (= context) serving it
};

/** Whole-server statistics snapshot: this server's jobs only. */
struct PimServeStats
{
    uint64_t submitted = 0;
    uint64_t admitted = 0;
    uint64_t rejected = 0;
    uint64_t completed = 0;
    uint64_t failed = 0;
    uint64_t cancelled = 0;
    uint64_t batches = 0;      ///< dispatches with > 1 job
    uint64_t batched_jobs = 0; ///< jobs inside those dispatches
    double p50_queue_ns = 0.0;
    double p99_queue_ns = 0.0;
    std::map<std::string, PimServeTenantStats> tenants;
};

/**
 * The job-serving scheduler. Create one with create(); submit() from
 * any number of threads; destruction drains in-flight jobs, stops the
 * workers, and destroys the pool contexts.
 */
class PimServer
{
  public:
    /** Build the pool and start the workers. @return nullptr on
     *  failure (pimGetLastError has the detail). */
    static std::unique_ptr<PimServer>
    create(const PimServeConfig &config);

    ~PimServer();

    PimServer(const PimServer &) = delete;
    PimServer &operator=(const PimServer &) = delete;

    /**
     * Submit a job. Never blocks: the result is either an admitted
     * handle (kQueued and onward) or a handle already resolved to
     * kRejected with error() describing why (invalid spec, or the
     * tenant's queue at its admission bound).
     */
    PimJobHandle submit(const PimJobSpec &spec);

    /** Set a tenant's fair-queuing weight (> 0; default 1.0). Creates
     *  the tenant record if it never submitted. */
    PimStatus setTenantWeight(const std::string &tenant, double weight);

    /** Stop dispatching (queued jobs stay queued; running jobs
     *  finish). Submission stays open. */
    void pause();

    /** Resume dispatching. */
    void resume();

    /** Block until every admitted job has reached a final state. */
    void drain();

    /** This server's counters (whole-server and per tenant) and
     *  queue-delay percentiles. */
    PimServeStats stats() const;

    /**
     * The pool context serving @p tenant (nullptr for unknown
     * tenants). Pin it with PimContextScope to read the pool's modeled
     * stats (pimGetStats, pimGetOpMix); pimContextLabel names it.
     */
    PimContext tenantContext(const std::string &tenant) const;

    size_t numWorkers() const;

  private:
    PimServer();
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

// ---------------------------------------------------------------------------
// Process-wide convenience instance (the pimServe* C-style surface).
// ---------------------------------------------------------------------------

/** Start the process-wide server (fails if one is running). */
PimStatus pimServeStart(const PimServeConfig &config);

/** Whether the process-wide server is running. */
bool pimServeActive();

/**
 * Submit to the process-wide server — the single entry point of the
 * v3 API. Invalid handle (valid() == false) with the thread-local
 * last error set when no server is running.
 */
PimJobHandle pimServeSubmit(const PimJobSpec &spec);

/** Drain and stop the process-wide server. */
PimStatus pimServeStop();

/** The process-wide server (nullptr when not running). */
PimServer *pimServeInstance();

} // namespace pimeval

#endif // PIMEVAL_SERVE_PIM_SERVE_H_
