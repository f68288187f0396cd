/**
 * @file
 * The PIM-as-a-service scheduler: context pool, admission control,
 * weighted fair queuing, and same-shape batch coalescing.
 *
 * Locking, least to most local:
 *  - Impl::tenants_mutex guards the tenant registry (name -> record,
 *    worker assignment). Taken before any worker mutex, never after.
 *  - Worker::mutex guards that worker's tenant queues, WFQ virtual
 *    times, and weights. Held only for queue surgery — execution runs
 *    unlocked.
 *  - PimJob::mutex + the atomic state guard one job's result (see
 *    serve_internal.h).
 *
 * A queued job is claimed (or cancelled) by a compare-exchange on its
 * state, so the dispatching worker and a cancelling handle can never
 * both win. Cancelled jobs stay in the deque until the worker reaps
 * them — admission slots free at reap time.
 */

#include "serve/pim_serve.h"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <thread>
#include <vector>

#include "core/pim_api.h"
#include "core/pim_error.h"
#include "core/pim_metrics.h"
#include "serve/serve_internal.h"

namespace pimeval {

using serve_detail::PimJob;
using serve_detail::isFinal;
using serve_detail::nowNs;

// ---------------------------------------------------------------------------
// PimJobHandle
// ---------------------------------------------------------------------------

PimJobState
PimJobHandle::poll() const
{
    return job_ ? job_->state.load(std::memory_order_acquire)
                : PimJobState::kInvalid;
}

PimJobState
PimJobHandle::wait() const
{
    if (!job_)
        return PimJobState::kInvalid;
    std::unique_lock<std::mutex> lock(job_->mutex);
    job_->cv.wait(lock, [this] {
        return isFinal(job_->state.load(std::memory_order_acquire));
    });
    return job_->state.load(std::memory_order_relaxed);
}

bool
PimJobHandle::cancel() const
{
    if (!job_)
        return false;
    PimJobState expected = PimJobState::kQueued;
    if (!job_->state.compare_exchange_strong(
            expected, PimJobState::kCancelled,
            std::memory_order_acq_rel))
        return false; // already dispatched, finished, or rejected
    {
        std::lock_guard<std::mutex> lock(job_->mutex);
        job_->error = "serve: job cancelled";
        job_->complete_ns.store(nowNs(), std::memory_order_relaxed);
        job_->cv.notify_all();
    }
    return true;
}

const PimJobOutput &
PimJobHandle::output() const
{
    static const PimJobOutput kEmpty;
    if (!job_)
        return kEmpty;
    wait();
    return job_->out;
}

const char *
PimJobHandle::error() const
{
    if (!job_)
        return "";
    std::lock_guard<std::mutex> lock(job_->mutex);
    return job_->error.c_str();
}

uint64_t
PimJobHandle::queueNs() const
{
    if (!job_)
        return 0;
    const uint64_t d =
        job_->dispatch_ns.load(std::memory_order_relaxed);
    return d ? d - job_->submit_ns : 0;
}

uint64_t
PimJobHandle::latencyNs() const
{
    if (!job_)
        return 0;
    const uint64_t c =
        job_->complete_ns.load(std::memory_order_relaxed);
    return c ? c - job_->submit_ns : 0;
}

uint64_t
PimJobHandle::batchSize() const
{
    return job_ ? job_->batch_size.load(std::memory_order_relaxed)
                : 0;
}

uint64_t
PimJobHandle::completionSeq() const
{
    return job_ ? job_->completion_seq.load(std::memory_order_relaxed)
                : 0;
}

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

namespace {

/** Two jobs coalesce iff the device-side command stream they need is
 *  shape-identical (per-job scalars are handled by the coefficient
 *  decomposition, so the scalar is *not* part of the key). */
bool
sameBatchShape(const PimJobSpec &a, const PimJobSpec &b)
{
    return a.kind == b.kind && a.n == b.n && a.cols == b.cols;
}

} // namespace

// ---------------------------------------------------------------------------
// PimServer
// ---------------------------------------------------------------------------

struct PimServer::Impl
{
    /** One tenant's record. Queue / vtime / weight are guarded by the
     *  owning worker's mutex; counters are atomics. */
    struct TenantRec
    {
        std::string name;
        size_t worker = 0;
        double weight = 1.0;
        double vtime = 0.0;
        std::deque<std::shared_ptr<PimJob>> queue;
        std::atomic<uint64_t> submitted{0};
        std::atomic<uint64_t> admitted{0};
        std::atomic<uint64_t> rejected{0};
        std::atomic<uint64_t> completed{0};
        std::atomic<uint64_t> failed{0};
        std::atomic<uint64_t> cancelled{0};
        std::atomic<uint64_t> batched_jobs{0};
        std::atomic<uint64_t> queued{0};
    };

    struct Worker
    {
        size_t index = 0;
        std::mutex mutex;
        std::condition_variable cv;
        std::vector<TenantRec *> tenants; ///< assigned here
        double vclock = 0.0; ///< vtime of the last dispatched tenant
        PimContext ctx = nullptr;
        std::thread thread;
    };

    PimServeConfig cfg;
    std::atomic<bool> stop{false};
    std::atomic<bool> paused{false};
    std::atomic<bool> accepting{true};
    std::atomic<uint64_t> in_flight{0};
    std::atomic<uint64_t> next_seq{1};
    /** This server's dispatches with > 1 job, and its queue delays
     *  (the registry's serve.* metrics sum over every server). */
    std::atomic<uint64_t> batches{0};
    MetricHistogram queue_ns{"serve.queue_ns"};
    std::mutex drain_mutex;
    std::condition_variable drain_cv;
    mutable std::mutex tenants_mutex;
    std::map<std::string, std::unique_ptr<TenantRec>> tenants;
    size_t next_worker = 0;
    std::vector<std::unique_ptr<Worker>> workers;

    TenantRec *
    tenantFor(const std::string &name)
    {
        std::lock_guard<std::mutex> lock(tenants_mutex);
        auto it = tenants.find(name);
        if (it != tenants.end())
            return it->second.get();
        auto rec = std::make_unique<TenantRec>();
        rec->name = name;
        rec->worker = next_worker++ % workers.size();
        TenantRec *raw = rec.get();
        tenants.emplace(name, std::move(rec));
        Worker &w = *workers[raw->worker];
        std::lock_guard<std::mutex> wlock(w.mutex);
        w.tenants.push_back(raw);
        return raw;
    }

    /** Backlogged tenant with the smallest virtual time (name as the
     *  deterministic tie-break). Caller holds w.mutex. */
    TenantRec *
    pickTenant(Worker &w) const
    {
        TenantRec *best = nullptr;
        for (TenantRec *t : w.tenants) {
            if (t->queue.empty())
                continue;
            if (!best || t->vtime < best->vtime ||
                (t->vtime == best->vtime && t->name < best->name))
                best = t;
        }
        return best;
    }

    void
    jobDone()
    {
        if (in_flight.fetch_sub(1, std::memory_order_acq_rel) == 1) {
            std::lock_guard<std::mutex> lock(drain_mutex);
            drain_cv.notify_all();
        }
    }

    /** Account a job whose cancel won before dispatch. Caller holds
     *  w.mutex; the handle already resolved the job's state. */
    void
    reapCancelled(TenantRec &t)
    {
        t.queued.fetch_sub(1, std::memory_order_relaxed);
        t.cancelled.fetch_add(1, std::memory_order_relaxed);
        PIM_METRIC_COUNT("serve.cancelled", 1);
        jobDone();
    }

    /**
     * Pop the next dispatch from @p t: the head job plus, when
     * coalescing applies, every queued compatible job up to
     * max_batch. Claims each job by CAS (losing claims are reaped as
     * cancelled) and advances the WFQ clocks. Caller holds w.mutex.
     */
    std::vector<std::shared_ptr<PimJob>>
    claimBatch(Worker &w, TenantRec &t)
    {
        std::vector<std::shared_ptr<PimJob>> batch;
        while (!t.queue.empty() && batch.empty()) {
            std::shared_ptr<PimJob> job = std::move(t.queue.front());
            t.queue.pop_front();
            PimJobState expected = PimJobState::kQueued;
            if (job->state.compare_exchange_strong(
                    expected, PimJobState::kRunning,
                    std::memory_order_acq_rel))
                batch.push_back(std::move(job));
            else
                reapCancelled(t);
        }
        if (batch.empty())
            return batch;
        const PimJobSpec &head = batch.front()->spec;
        const bool coalesce = cfg.batching && cfg.max_batch > 1 &&
            head.deadline == PimJobDeadline::kBatchable;
        if (coalesce) {
            for (auto it = t.queue.begin();
                 it != t.queue.end() && batch.size() < cfg.max_batch;) {
                std::shared_ptr<PimJob> &cand = *it;
                const PimJobState s =
                    cand->state.load(std::memory_order_acquire);
                if (s != PimJobState::kQueued) {
                    it = t.queue.erase(it);
                    reapCancelled(t);
                    continue;
                }
                if (cand->spec.deadline !=
                        PimJobDeadline::kBatchable ||
                    !sameBatchShape(cand->spec, head)) {
                    ++it;
                    continue;
                }
                PimJobState expected = PimJobState::kQueued;
                if (cand->state.compare_exchange_strong(
                        expected, PimJobState::kRunning,
                        std::memory_order_acq_rel)) {
                    batch.push_back(std::move(cand));
                    it = t.queue.erase(it);
                } else {
                    it = t.queue.erase(it);
                    reapCancelled(t);
                }
            }
        }
        uint64_t cost = 0;
        for (const auto &j : batch)
            cost += j->cost;
        w.vclock = t.vtime;
        t.vtime +=
            static_cast<double>(cost) / std::max(t.weight, 1e-9);
        t.queued.fetch_sub(batch.size(), std::memory_order_relaxed);
        return batch;
    }

    /** Execute one claimed dispatch. Runs without the worker's
     *  mutex. */
    void
    executeBatch(TenantRec &t,
                 const std::vector<std::shared_ptr<PimJob>> &batch)
    {
        const uint64_t start = nowNs();
        const uint64_t bsz = batch.size();
        std::vector<const PimJobSpec *> specs;
        std::vector<PimJobOutput *> outs;
        for (const auto &j : batch) {
            specs.push_back(&j->spec);
            outs.push_back(&j->out);
            j->dispatch_ns.store(start, std::memory_order_relaxed);
            j->batch_size.store(bsz, std::memory_order_relaxed);
            const uint64_t waited = start - j->submit_ns;
            queue_ns.record(static_cast<double>(waited));
            PIM_METRIC_RECORD("serve.queue_ns", waited);
        }
        PIM_METRIC_RECORD("serve.batch_size", bsz);
        if (bsz > 1) {
            batches.fetch_add(1, std::memory_order_relaxed);
            PIM_METRIC_COUNT("serve.batches", 1);
            PIM_METRIC_COUNT("serve.batched_jobs", bsz);
            t.batched_jobs.fetch_add(bsz, std::memory_order_relaxed);
        }

        const PimStatus status = serve_detail::runJobs(specs, outs);
        // The jobs' inline runs reach the registry before they
        // complete, so a reader that waits for them sees every one.
        PimMetrics::publishThreadTally();

        PIM_METRIC_RECORD("serve.exec_ns", nowNs() - start);

        std::string why;
        if (status != PimStatus::PIM_OK) {
            why = pimGetLastErrorMessage();
            if (why.empty())
                why = "serve: execution failed";
        }
        for (const auto &j : batch) {
            j->completion_seq.store(
                next_seq.fetch_add(1, std::memory_order_relaxed),
                std::memory_order_relaxed);
            if (status == PimStatus::PIM_OK) {
                j->finish(PimJobState::kDone);
                t.completed.fetch_add(1, std::memory_order_relaxed);
                PIM_METRIC_COUNT("serve.completed", 1);
            } else {
                j->finish(PimJobState::kFailed, why);
                t.failed.fetch_add(1, std::memory_order_relaxed);
                PIM_METRIC_COUNT("serve.failed", 1);
            }
            jobDone();
        }
    }

    void
    workerMain(Worker &w)
    {
        pimSetCurrentContext(w.ctx);
        std::unique_lock<std::mutex> lock(w.mutex);
        for (;;) {
            w.cv.wait(lock, [&] {
                return stop.load(std::memory_order_acquire) ||
                       (!paused.load(std::memory_order_acquire) &&
                        pickTenant(w) != nullptr);
            });
            if (stop.load(std::memory_order_acquire))
                break;
            TenantRec *t = pickTenant(w);
            if (!t)
                continue;
            auto batch = claimBatch(w, *t);
            if (batch.empty())
                continue;
            lock.unlock();
            executeBatch(*t, batch);
            lock.lock();
        }
        pimSetCurrentContext(nullptr);
    }
};

PimServer::PimServer() : impl_(new Impl) {}

std::unique_ptr<PimServer>
PimServer::create(const PimServeConfig &config)
{
    std::unique_ptr<PimServer> server(new PimServer);
    Impl &impl = *server->impl_;
    impl.cfg = config;
    impl.cfg.num_workers = std::max<size_t>(1, config.num_workers);
    impl.cfg.tenant_queue_cap =
        std::max<size_t>(1, config.tenant_queue_cap);
    impl.cfg.max_batch = std::max<size_t>(1, config.max_batch);

    for (size_t i = 0; i < impl.cfg.num_workers; ++i) {
        auto w = std::make_unique<Impl::Worker>();
        w->index = i;
        const std::string label =
            impl.cfg.label_prefix + ".w" + std::to_string(i);
        w->ctx =
            pimCreateContextFromConfig(impl.cfg.device, label.c_str());
        if (!w->ctx)
            return nullptr; // last error already set
        if (impl.cfg.fusion >= 0) {
            PimContextScope scope(w->ctx);
            pimSetFusionEnabled(impl.cfg.fusion != 0);
        }
        impl.workers.push_back(std::move(w));
    }
    for (auto &w : impl.workers) {
        Impl::Worker *raw = w.get();
        raw->thread =
            std::thread([&impl, raw] { impl.workerMain(*raw); });
    }
    return server;
}

PimServer::~PimServer()
{
    Impl &impl = *impl_;
    impl.accepting.store(false, std::memory_order_release);
    resume(); // a paused server must still drain
    drain();
    impl.stop.store(true, std::memory_order_release);
    for (auto &w : impl.workers) {
        {
            std::lock_guard<std::mutex> lock(w->mutex);
        }
        w->cv.notify_all();
    }
    for (auto &w : impl.workers)
        if (w->thread.joinable())
            w->thread.join();
    for (auto &w : impl.workers)
        pimDestroyContext(w->ctx);
}

PimJobHandle
PimServer::submit(const PimJobSpec &spec)
{
    Impl &impl = *impl_;
    auto job = std::make_shared<PimJob>();
    job->spec = spec;
    job->cost = pimJobCostElems(spec);
    job->submit_ns = nowNs();

    Impl::TenantRec *t = impl.tenantFor(spec.tenant.empty()
                                            ? std::string("default")
                                            : spec.tenant);
    Impl::Worker &w = *impl.workers[t->worker];
    PIM_METRIC_COUNT("serve.submitted", 1);
    t->submitted.fetch_add(1, std::memory_order_relaxed);

    std::string why;
    if (!impl.accepting.load(std::memory_order_acquire))
        why = "serve: server is shutting down";
    else if (!pimJobValidate(spec, &why))
        why = "serve: invalid job: " + why;

    if (why.empty()) {
        std::lock_guard<std::mutex> lock(w.mutex);
        if (t->queued.load(std::memory_order_relaxed) >=
            impl.cfg.tenant_queue_cap) {
            why = "serve: tenant '" + t->name +
                  "' at admission bound (" +
                  std::to_string(impl.cfg.tenant_queue_cap) +
                  " queued)";
        } else {
            job->state.store(PimJobState::kQueued,
                             std::memory_order_release);
            // Reactivating an idle tenant clamps its virtual time to
            // the worker clock: idling banks no scheduling credit.
            if (t->queue.empty())
                t->vtime = std::max(t->vtime, w.vclock);
            t->queue.push_back(job);
            t->queued.fetch_add(1, std::memory_order_relaxed);
            t->admitted.fetch_add(1, std::memory_order_relaxed);
            PIM_METRIC_COUNT("serve.admitted", 1);
            impl.in_flight.fetch_add(1, std::memory_order_acq_rel);
            w.cv.notify_one();
            return PimJobHandle(std::move(job));
        }
    }

    t->rejected.fetch_add(1, std::memory_order_relaxed);
    PIM_METRIC_COUNT("serve.rejected", 1);
    fail(why);
    job->finish(PimJobState::kRejected, why);
    return PimJobHandle(std::move(job));
}

PimStatus
PimServer::setTenantWeight(const std::string &tenant, double weight)
{
    if (!(weight > 0.0))
        return fail("serve: tenant weight must be > 0");
    Impl::TenantRec *t = impl_->tenantFor(tenant);
    Impl::Worker &w = *impl_->workers[t->worker];
    std::lock_guard<std::mutex> lock(w.mutex);
    t->weight = weight;
    return PimStatus::PIM_OK;
}

void
PimServer::pause()
{
    impl_->paused.store(true, std::memory_order_release);
}

void
PimServer::resume()
{
    impl_->paused.store(false, std::memory_order_release);
    for (auto &w : impl_->workers) {
        {
            std::lock_guard<std::mutex> lock(w->mutex);
        }
        w->cv.notify_all();
    }
}

void
PimServer::drain()
{
    Impl &impl = *impl_;
    std::unique_lock<std::mutex> lock(impl.drain_mutex);
    impl.drain_cv.wait(lock, [&impl] {
        return impl.in_flight.load(std::memory_order_acquire) == 0;
    });
}

PimServeStats
PimServer::stats() const
{
    Impl &impl = *impl_;
    PimServeStats s;
    std::lock_guard<std::mutex> lock(impl.tenants_mutex);
    for (const auto &entry : impl.tenants) {
        const Impl::TenantRec &t = *entry.second;
        PimServeTenantStats ts;
        ts.submitted = t.submitted.load(std::memory_order_relaxed);
        ts.admitted = t.admitted.load(std::memory_order_relaxed);
        ts.rejected = t.rejected.load(std::memory_order_relaxed);
        ts.completed = t.completed.load(std::memory_order_relaxed);
        ts.failed = t.failed.load(std::memory_order_relaxed);
        ts.cancelled = t.cancelled.load(std::memory_order_relaxed);
        ts.batched_jobs =
            t.batched_jobs.load(std::memory_order_relaxed);
        ts.queued = t.queued.load(std::memory_order_relaxed);
        ts.worker = t.worker;
        {
            Impl::Worker &w = *impl.workers[t.worker];
            std::lock_guard<std::mutex> wlock(w.mutex);
            ts.weight = t.weight;
        }
        s.submitted += ts.submitted;
        s.admitted += ts.admitted;
        s.rejected += ts.rejected;
        s.completed += ts.completed;
        s.failed += ts.failed;
        s.cancelled += ts.cancelled;
        s.batched_jobs += ts.batched_jobs;
        s.tenants.emplace(entry.first, ts);
    }
    s.batches = impl.batches.load(std::memory_order_relaxed);
    s.p50_queue_ns = impl.queue_ns.percentile(0.50);
    s.p99_queue_ns = impl.queue_ns.percentile(0.99);
    return s;
}

PimContext
PimServer::tenantContext(const std::string &tenant) const
{
    Impl &impl = *impl_;
    std::lock_guard<std::mutex> lock(impl.tenants_mutex);
    auto it = impl.tenants.find(tenant);
    if (it == impl.tenants.end())
        return nullptr;
    return impl.workers[it->second->worker]->ctx;
}

size_t
PimServer::numWorkers() const
{
    return impl_->workers.size();
}

// ---------------------------------------------------------------------------
// Process-wide instance
// ---------------------------------------------------------------------------

namespace {
std::mutex g_serve_mutex;
std::unique_ptr<PimServer> g_serve_instance;
} // namespace

PimStatus
pimServeStart(const PimServeConfig &config)
{
    std::lock_guard<std::mutex> lock(g_serve_mutex);
    if (g_serve_instance)
        return fail("pimServeStart: a server is already running");
    auto server = PimServer::create(config);
    if (!server)
        return PimStatus::PIM_ERROR; // last error already set
    g_serve_instance = std::move(server);
    return PimStatus::PIM_OK;
}

bool
pimServeActive()
{
    std::lock_guard<std::mutex> lock(g_serve_mutex);
    return g_serve_instance != nullptr;
}

PimJobHandle
pimServeSubmit(const PimJobSpec &spec)
{
    std::lock_guard<std::mutex> lock(g_serve_mutex);
    if (!g_serve_instance) {
        fail("pimServeSubmit: no server running "
             "(call pimServeStart first)");
        return PimJobHandle();
    }
    return g_serve_instance->submit(spec);
}

PimStatus
pimServeStop()
{
    std::unique_ptr<PimServer> doomed;
    {
        std::lock_guard<std::mutex> lock(g_serve_mutex);
        if (!g_serve_instance)
            return fail("pimServeStop: no server running");
        doomed = std::move(g_serve_instance);
    }
    doomed.reset(); // drains and joins outside the lock
    return PimStatus::PIM_OK;
}

PimServer *
pimServeInstance()
{
    std::lock_guard<std::mutex> lock(g_serve_mutex);
    return g_serve_instance.get();
}

} // namespace pimeval
