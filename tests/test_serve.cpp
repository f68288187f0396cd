/**
 * @file
 * Tests of the serving layer (API v3): bit-identity of served
 * (single and coalesced) execution against the direct path and a host
 * reference, the direct command stream of a job dispatched alone,
 * splitting of batches too big for the device, admission control,
 * weighted fair queuing, per-tenant isolation, per-server stats,
 * cancellation, and registry churn under concurrent submission.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/pim_api.h"
#include "core/pim_context.h"
#include "core/pim_error.h"
#include "serve/pim_job.h"
#include "serve/pim_serve.h"
#include "util/prng.h"

using namespace pimeval;

namespace {

PimDeviceConfig
smallConfig(PimDeviceEnum device = PimDeviceEnum::PIM_DEVICE_FULCRUM)
{
    PimDeviceConfig config;
    config.device = device;
    config.num_ranks = 1;
    config.num_banks_per_rank = 4;
    config.num_subarrays_per_bank = 4;
    config.num_rows_per_subarray = 256;
    config.num_cols_per_row = 256;
    return config;
}

PimServeConfig
serveConfig(size_t workers = 2)
{
    PimServeConfig config;
    config.device = smallConfig();
    config.num_workers = workers;
    config.label_prefix = "tserve";
    return config;
}

/** Deterministic operand pool; keeps pointers stable for job specs. */
struct Operands
{
    std::vector<std::vector<int32_t>> bufs;

    const int32_t *
    vec(Prng &rng, uint64_t count)
    {
        std::vector<int32_t> v(count);
        for (auto &x : v)
            x = static_cast<int32_t>(rng.next());
        bufs.push_back(std::move(v));
        return bufs.back().data();
    }
};

PimJobSpec
makeSpec(PimJobKind kind, uint64_t n, uint64_t cols, Operands &ops,
         Prng &rng, const std::string &tenant = "default")
{
    PimJobSpec spec;
    spec.kind = kind;
    spec.n = n;
    spec.cols = cols;
    spec.a = ops.vec(rng, kind == PimJobKind::kGemv ? n * cols : n);
    spec.b = ops.vec(rng, kind == PimJobKind::kGemv ? cols : n);
    spec.scalar = static_cast<uint64_t>(
        static_cast<int64_t>(static_cast<int32_t>(rng.next())));
    spec.tenant = tenant;
    return spec;
}

/** Wraparound int32 arithmetic, as the device computes it. */
int32_t
wrap(int64_t v)
{
    return static_cast<int32_t>(static_cast<uint32_t>(v));
}

/** Host reference result, computed without the simulator. */
PimJobOutput
hostReference(const PimJobSpec &spec)
{
    PimJobOutput out;
    const int64_t k = static_cast<int32_t>(
        static_cast<uint32_t>(spec.scalar));
    for (uint64_t i = 0; i < spec.n; ++i) {
        const int64_t a = spec.a[i];
        switch (spec.kind) {
          case PimJobKind::kVecAdd:
            out.values.push_back(wrap(a + spec.b[i]));
            break;
          case PimJobKind::kVecMul:
            out.values.push_back(wrap(a * spec.b[i]));
            break;
          case PimJobKind::kVecScaledAdd:
            out.values.push_back(wrap(a * k + spec.b[i]));
            break;
          case PimJobKind::kDot:
            out.scalar += wrap(a * spec.b[i]);
            break;
          case PimJobKind::kGemv: {
            int32_t acc = 0;
            for (uint64_t j = 0; j < spec.cols; ++j)
                acc = wrap(acc +
                           static_cast<int64_t>(wrap(
                               static_cast<int64_t>(
                                   spec.a[j * spec.n + i]) *
                               spec.b[j])));
            out.values.push_back(acc);
            break;
          }
        }
    }
    return out;
}

/** Reference result: the direct path on a private context, checked
 *  against the host reference. */
PimJobOutput
runReference(const PimJobSpec &spec)
{
    PimContext ctx =
        pimCreateContextFromConfig(smallConfig(), "tserve.ref");
    EXPECT_NE(ctx, nullptr);
    PimJobOutput out;
    {
        PimContextScope scope(ctx);
        EXPECT_EQ(pimJobRunDirect(spec, &out), PimStatus::PIM_OK);
    }
    pimDestroyContext(ctx);
    const PimJobOutput host = hostReference(spec);
    EXPECT_EQ(out.values, host.values);
    EXPECT_EQ(out.scalar, host.scalar);
    return out;
}

const PimJobKind kAllKinds[] = {
    PimJobKind::kVecAdd,   PimJobKind::kVecMul,
    PimJobKind::kVecScaledAdd, PimJobKind::kDot,
    PimJobKind::kGemv,
};

} // namespace

/**
 * Served results — including coalesced batches with per-job scalars —
 * are bit-identical to the direct path for every job kind.
 */
TEST(PimServe, BatchedBitIdenticalToDirect)
{
    auto config = serveConfig(1);
    config.max_batch = 8;
    auto server = PimServer::create(config);
    ASSERT_NE(server, nullptr);
    server->pause(); // queue everything, force batches

    Prng rng(7);
    Operands ops;
    const uint64_t n = 192;
    std::vector<PimJobSpec> specs;
    std::vector<PimJobHandle> handles;
    for (const PimJobKind kind : kAllKinds) {
        for (int r = 0; r < 5; ++r)
            specs.push_back(makeSpec(kind, n, 6, ops, rng));
    }
    for (const auto &spec : specs)
        handles.push_back(server->submit(spec));
    server->resume();
    server->drain();

    bool saw_batch = false;
    for (size_t i = 0; i < specs.size(); ++i) {
        ASSERT_EQ(handles[i].wait(), PimJobState::kDone)
            << handles[i].error();
        saw_batch |= handles[i].batchSize() > 1;
        const PimJobOutput ref = runReference(specs[i]);
        EXPECT_EQ(handles[i].output().values, ref.values);
        EXPECT_EQ(handles[i].output().scalar, ref.scalar);
    }
    EXPECT_TRUE(saw_batch); // same-shape runs must have coalesced

    const PimServeStats stats = server->stats();
    EXPECT_EQ(stats.completed, specs.size());
    EXPECT_GT(stats.batched_jobs, 0u);
}

/**
 * A job dispatched alone issues the direct command stream: the op mix
 * of a hand-written job (no coefficient decomposition), and modeled
 * stats equal to pimJobRunDirect on a fresh context, on every target,
 * with fusion off and on.
 */
TEST(PimServe, SingletonDispatchIssuesDirectStream)
{
    const PimDeviceEnum devices[] = {
        PimDeviceEnum::PIM_DEVICE_BITSIMD_V_AP,
        PimDeviceEnum::PIM_DEVICE_FULCRUM,
        PimDeviceEnum::PIM_DEVICE_BANK_LEVEL,
    };
    const uint64_t cols = 4;
    const std::map<PimJobKind, std::map<std::string, uint64_t>> mixes = {
        {PimJobKind::kVecAdd, {{"add", 1}}},
        {PimJobKind::kVecMul, {{"mul", 1}}},
        {PimJobKind::kVecScaledAdd, {{"scaled_add", 1}}},
        {PimJobKind::kDot, {{"mul", 1}, {"redsum", 1}}},
        {PimJobKind::kGemv, {{"broadcast", 1}, {"scaled_add", cols}}},
    };
    for (const PimDeviceEnum device : devices) {
        for (const int fusion : {0, 1}) {
            for (const PimJobKind kind : kAllKinds) {
                SCOPED_TRACE(testing::Message()
                             << "device " << static_cast<int>(device)
                             << " fusion " << fusion << " kind "
                             << static_cast<int>(kind));
                Prng rng(53);
                Operands ops;
                PimJobSpec spec = makeSpec(kind, 128, cols, ops, rng);
                spec.deadline = PimJobDeadline::kInteractive;

                auto config = serveConfig(1);
                config.device = smallConfig(device);
                config.fusion = fusion;
                auto server = PimServer::create(config);
                ASSERT_NE(server, nullptr);
                auto h = server->submit(spec);
                ASSERT_EQ(h.wait(), PimJobState::kDone) << h.error();
                server->drain();
                std::map<std::string, uint64_t> mix;
                PimRunStats served;
                {
                    PimContextScope scope(
                        server->tenantContext("default"));
                    mix = pimGetOpMix();
                    served = pimGetStats();
                }

                PimContext ctx = pimCreateContextFromConfig(
                    smallConfig(device), "tserve.direct");
                ASSERT_NE(ctx, nullptr);
                PimJobOutput out;
                PimRunStats direct;
                {
                    PimContextScope scope(ctx);
                    pimSetFusionEnabled(fusion != 0);
                    EXPECT_EQ(pimJobRunDirect(spec, &out),
                              PimStatus::PIM_OK);
                    direct = pimGetStats();
                }
                pimDestroyContext(ctx);

                EXPECT_EQ(mix, mixes.at(kind));
                EXPECT_EQ(served.kernel_sec, direct.kernel_sec);
                EXPECT_EQ(served.kernel_j, direct.kernel_j);
                EXPECT_EQ(served.copy_sec, direct.copy_sec);
                EXPECT_EQ(served.copy_j, direct.copy_j);
                EXPECT_EQ(served.host_sec, direct.host_sec);
                EXPECT_EQ(served.bytes_h2d, direct.bytes_h2d);
                EXPECT_EQ(served.bytes_d2h, direct.bytes_d2h);
                EXPECT_EQ(served.bytes_d2d, direct.bytes_d2d);
                const PimJobOutput host = hostReference(spec);
                EXPECT_EQ(h.output().values, host.values);
                EXPECT_EQ(h.output().scalar, host.scalar);
                EXPECT_EQ(out.values, host.values);
                EXPECT_EQ(out.scalar, host.scalar);
            }
        }
    }
}

/** A coalesced kGemv batch whose jobs share b scales each column with
 *  one pimScaledAdd: no coefficient vector, so no mul and no add. */
TEST(PimServe, CoalescedGemvSharingBIssuesScaledAdds)
{
    auto config = serveConfig(1);
    config.max_batch = 8;
    auto server = PimServer::create(config);
    ASSERT_NE(server, nullptr);
    server->pause();

    Prng rng(61);
    Operands ops;
    const uint64_t cols = 5;
    const int32_t *b = ops.vec(rng, cols);
    std::vector<PimJobSpec> specs;
    std::vector<PimJobHandle> handles;
    for (int i = 0; i < 4; ++i) {
        specs.push_back(makeSpec(PimJobKind::kGemv, 96, cols, ops, rng));
        // Equal values in a buffer of its own.
        ops.bufs.emplace_back(b, b + cols);
        specs.back().b = ops.bufs.back().data();
    }
    for (const auto &spec : specs)
        handles.push_back(server->submit(spec));
    server->resume();
    server->drain();

    for (size_t i = 0; i < specs.size(); ++i) {
        ASSERT_EQ(handles[i].wait(), PimJobState::kDone)
            << handles[i].error();
        EXPECT_EQ(handles[i].batchSize(), specs.size());
        EXPECT_EQ(handles[i].output().values,
                  hostReference(specs[i]).values);
    }
    PimContextScope scope(server->tenantContext("default"));
    const std::map<std::string, uint64_t> want = {
        {"broadcast", 1}, {"scaled_add", cols}};
    EXPECT_EQ(pimGetOpMix(), want);
}

/**
 * A coalesced batch too big for the device runs as halves. Sixteen
 * scaled-adds with distinct scalars at n = 512 need five objects of
 * 8,192 elements as one batch, more than the small device holds; each
 * job fits alone. Jobs too big even alone still fail.
 */
TEST(PimServe, OversizedBatchSplitsToFit)
{
    auto config = serveConfig(1);
    config.max_batch = 16;
    auto server = PimServer::create(config);
    ASSERT_NE(server, nullptr);
    server->pause();

    Prng rng(67);
    Operands ops;
    const uint64_t n = 512;
    std::vector<PimJobSpec> specs;
    std::vector<PimJobHandle> handles;
    for (int i = 0; i < 16; ++i)
        specs.push_back(
            makeSpec(PimJobKind::kVecScaledAdd, n, 0, ops, rng));
    for (const auto &spec : specs)
        handles.push_back(server->submit(spec));
    server->resume();
    server->drain();

    for (size_t i = 0; i < specs.size(); ++i) {
        ASSERT_EQ(handles[i].wait(), PimJobState::kDone)
            << handles[i].error();
        EXPECT_EQ(handles[i].batchSize(), specs.size());
        EXPECT_EQ(handles[i].output().values,
                  hostReference(specs[i]).values);
    }
    {
        // The attempt that did not fit issued nothing: every job's a,
        // b and coefficient slice went to the device once.
        PimContextScope scope(server->tenantContext("default"));
        const PimRunStats stats = pimGetStats();
        EXPECT_EQ(stats.bytes_h2d, 3 * specs.size() * n * 4);
        EXPECT_EQ(stats.bytes_d2h, specs.size() * n * 4);
    }

    server->pause();
    std::vector<PimJobHandle> huge;
    for (int i = 0; i < 4; ++i)
        huge.push_back(server->submit(
            makeSpec(PimJobKind::kVecAdd, 16384, 0, ops, rng)));
    server->resume();
    server->drain();
    for (auto &h : huge) {
        EXPECT_EQ(h.wait(), PimJobState::kFailed);
        EXPECT_NE(std::string(h.error()).find("capacity exhausted"),
                  std::string::npos)
            << h.error();
    }
}

/** Queue bound: submits past the cap reject immediately with the
 *  thread-local last error set, and never block. */
TEST(PimServe, AdmissionControlRejectsPastBound)
{
    auto config = serveConfig(1);
    config.tenant_queue_cap = 4;
    auto server = PimServer::create(config);
    ASSERT_NE(server, nullptr);
    server->pause();

    Prng rng(3);
    Operands ops;
    std::vector<PimJobHandle> admitted;
    for (int i = 0; i < 4; ++i) {
        auto h = server->submit(
            makeSpec(PimJobKind::kVecAdd, 64, 0, ops, rng));
        EXPECT_EQ(h.poll(), PimJobState::kQueued);
        admitted.push_back(h);
    }
    pimClearLastError();
    auto rejected = server->submit(
        makeSpec(PimJobKind::kVecAdd, 64, 0, ops, rng));
    EXPECT_EQ(rejected.poll(), PimJobState::kRejected);
    EXPECT_EQ(pimGetLastError(), PimStatus::PIM_ERROR);
    EXPECT_NE(std::string(pimGetLastErrorMessage())
                  .find("admission bound"),
              std::string::npos);
    EXPECT_NE(std::string(rejected.error()).find("admission bound"),
              std::string::npos);
    // A rejected handle is final: wait() must not block.
    EXPECT_EQ(rejected.wait(), PimJobState::kRejected);

    server->resume();
    server->drain();
    for (auto &h : admitted)
        EXPECT_EQ(h.wait(), PimJobState::kDone);
    const PimServeStats stats = server->stats();
    EXPECT_EQ(stats.rejected, 1u);
    EXPECT_EQ(stats.admitted, 4u);
}

/** Invalid specs reject through the same error contract. */
TEST(PimServe, InvalidSpecRejects)
{
    auto server = PimServer::create(serveConfig(1));
    ASSERT_NE(server, nullptr);
    PimJobSpec spec; // null operands, n == 0
    pimClearLastError();
    auto h = server->submit(spec);
    EXPECT_EQ(h.wait(), PimJobState::kRejected);
    EXPECT_EQ(pimGetLastError(), PimStatus::PIM_ERROR);
    EXPECT_NE(std::string(h.error()).find("invalid job"),
              std::string::npos);
}

/**
 * Weighted fair queuing: with equal-cost backlogs and weights 2:1 on
 * one worker, the heavy tenant's jobs finish earlier on average (it
 * receives two dispatches for each of the light tenant's).
 */
TEST(PimServe, WeightedFairQueuing)
{
    auto config = serveConfig(1);
    config.batching = false; // one dispatch per job, visible order
    config.tenant_queue_cap = 64;
    auto server = PimServer::create(config);
    ASSERT_NE(server, nullptr);
    server->pause();
    ASSERT_EQ(server->setTenantWeight("heavy", 2.0),
              PimStatus::PIM_OK);
    ASSERT_EQ(server->setTenantWeight("light", 1.0),
              PimStatus::PIM_OK);

    Prng rng(23);
    Operands ops;
    const int per_tenant = 30;
    std::vector<PimJobHandle> heavy, light;
    for (int i = 0; i < per_tenant; ++i) {
        heavy.push_back(server->submit(
            makeSpec(PimJobKind::kVecAdd, 64, 0, ops, rng, "heavy")));
        light.push_back(server->submit(
            makeSpec(PimJobKind::kVecAdd, 64, 0, ops, rng, "light")));
    }
    server->resume();
    server->drain();

    double heavy_mean = 0.0, light_mean = 0.0;
    for (int i = 0; i < per_tenant; ++i) {
        ASSERT_EQ(heavy[i].wait(), PimJobState::kDone);
        ASSERT_EQ(light[i].wait(), PimJobState::kDone);
        heavy_mean += static_cast<double>(heavy[i].completionSeq());
        light_mean += static_cast<double>(light[i].completionSeq());
    }
    heavy_mean /= per_tenant;
    light_mean /= per_tenant;
    EXPECT_LT(heavy_mean, light_mean);

    // 2:1 service means the heavy tenant exhausts its backlog around
    // dispatch 45 of 60; every heavy job must finish by then.
    for (int i = 0; i < per_tenant; ++i)
        EXPECT_LE(heavy[i].completionSeq(),
                  static_cast<uint64_t>(per_tenant * 2));
}

/**
 * Per-tenant isolation: with tenants on separate pool contexts,
 * tenant B's load leaves tenant A's serving counts and its context's
 * modeled stats untouched.
 */
TEST(PimServe, TenantMetricIsolation)
{
    auto server = PimServer::create(serveConfig(2));
    ASSERT_NE(server, nullptr);

    Prng rng(5);
    Operands ops;
    auto submitN = [&](const std::string &tenant, int count) {
        std::vector<PimJobHandle> handles;
        for (int i = 0; i < count; ++i)
            handles.push_back(server->submit(makeSpec(
                PimJobKind::kVecMul, 128, 0, ops, rng, tenant)));
        for (auto &h : handles)
            EXPECT_EQ(h.wait(), PimJobState::kDone) << h.error();
    };

    const auto statsOf = [](PimContext ctx) {
        PimContextScope scope(ctx);
        return pimGetStats();
    };

    submitN("alice", 6);
    server->drain();
    PimContext ctx_a = server->tenantContext("alice");
    ASSERT_NE(ctx_a, nullptr);
    const PimServeTenantStats alice_before =
        server->stats().tenants.at("alice");
    EXPECT_EQ(alice_before.completed, 6u);
    EXPECT_EQ(alice_before.submitted, 6u);
    const PimRunStats modeled_before = statsOf(ctx_a);
    EXPECT_GT(modeled_before.kernel_sec, 0.0);

    submitN("bob", 9);
    server->drain();
    PimContext ctx_b = server->tenantContext("bob");
    ASSERT_NE(ctx_b, nullptr);
    ASSERT_NE(ctx_a, ctx_b); // 2 tenants, 2 workers: private contexts

    // Alice's counts and her context's modeled stats are unchanged by
    // Bob's load.
    const PimServeStats stats = server->stats();
    const PimServeTenantStats &alice = stats.tenants.at("alice");
    EXPECT_EQ(alice.completed, alice_before.completed);
    EXPECT_EQ(alice.submitted, alice_before.submitted);
    const PimRunStats modeled_after = statsOf(ctx_a);
    EXPECT_EQ(modeled_after.kernel_sec, modeled_before.kernel_sec);
    EXPECT_EQ(modeled_after.kernel_j, modeled_before.kernel_j);
    EXPECT_EQ(modeled_after.copy_sec, modeled_before.copy_sec);
    EXPECT_EQ(modeled_after.copy_j, modeled_before.copy_j);
    EXPECT_EQ(modeled_after.host_sec, modeled_before.host_sec);
    EXPECT_EQ(modeled_after.bytes_h2d, modeled_before.bytes_h2d);
    EXPECT_EQ(modeled_after.bytes_d2h, modeled_before.bytes_d2h);
    EXPECT_EQ(modeled_after.bytes_d2d, modeled_before.bytes_d2d);
    EXPECT_EQ(stats.tenants.at("bob").completed, 9u);
    EXPECT_GT(statsOf(ctx_b).kernel_sec, 0.0);
}

/**
 * PimServer::stats() describes this server only: a server created
 * after another one has coalesced batches reports none of them, its
 * queue-delay percentiles come from its own jobs, and
 * pimResetMetrics does not zero them.
 */
TEST(PimServe, StatsArePerServer)
{
    Prng rng(43);
    Operands ops;
    {
        auto config = serveConfig(1);
        config.max_batch = 16;
        auto first = PimServer::create(config);
        ASSERT_NE(first, nullptr);
        first->pause(); // queue everything, force full batches
        std::vector<PimJobHandle> handles;
        for (int i = 0; i < 64; ++i)
            handles.push_back(first->submit(
                makeSpec(PimJobKind::kVecAdd, 64, 0, ops, rng)));
        // Let the queue delays grow well past the second server's.
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        first->resume();
        first->drain();
        for (auto &h : handles)
            EXPECT_EQ(h.wait(), PimJobState::kDone) << h.error();
        const PimServeStats s = first->stats();
        EXPECT_EQ(s.batches, 4u);
        EXPECT_EQ(s.batched_jobs, 64u);
        EXPECT_GE(s.p50_queue_ns, 40e6);
    }

    auto second = PimServer::create(serveConfig(1));
    ASSERT_NE(second, nullptr);
    auto spec = makeSpec(PimJobKind::kVecAdd, 64, 0, ops, rng);
    spec.deadline = PimJobDeadline::kInteractive;
    auto h = second->submit(spec);
    ASSERT_EQ(h.wait(), PimJobState::kDone) << h.error();
    second->drain();

    const PimServeStats s = second->stats();
    EXPECT_EQ(s.completed, 1u);
    EXPECT_EQ(s.batches, 0u);
    EXPECT_EQ(s.batched_jobs, 0u);
    // One sample: percentiles clamp to the observed min = max, so both
    // are exactly that job's queue delay.
    const double queued = static_cast<double>(h.queueNs());
    EXPECT_EQ(s.p99_queue_ns, queued);
    EXPECT_EQ(s.p50_queue_ns, queued);

    // Zeroing the registry leaves the server's own stats alone.
    ASSERT_EQ(pimResetMetrics(), PimStatus::PIM_OK);
    const PimServeStats after_reset = second->stats();
    EXPECT_EQ(after_reset.completed, 1u);
    EXPECT_EQ(after_reset.p99_queue_ns, queued);
}

/** Cancellation: a queued job cancels exactly once, never executes,
 *  and the server's accounting reflects it. */
TEST(PimServe, CancelQueuedJob)
{
    auto config = serveConfig(1);
    config.batching = false;
    auto server = PimServer::create(config);
    ASSERT_NE(server, nullptr);
    server->pause();

    Prng rng(29);
    Operands ops;
    auto h1 = server->submit(
        makeSpec(PimJobKind::kVecAdd, 64, 0, ops, rng));
    auto h2 = server->submit(
        makeSpec(PimJobKind::kVecAdd, 64, 0, ops, rng));
    auto h3 = server->submit(
        makeSpec(PimJobKind::kVecAdd, 64, 0, ops, rng));
    EXPECT_TRUE(h2.cancel());
    EXPECT_FALSE(h2.cancel()); // second cancel loses
    EXPECT_EQ(h2.poll(), PimJobState::kCancelled);

    server->resume();
    server->drain();
    EXPECT_EQ(h1.wait(), PimJobState::kDone);
    EXPECT_EQ(h2.wait(), PimJobState::kCancelled);
    EXPECT_EQ(h3.wait(), PimJobState::kDone);
    EXPECT_FALSE(h1.cancel()); // finished jobs don't cancel

    const PimServeStats stats = server->stats();
    EXPECT_EQ(stats.cancelled, 1u);
    EXPECT_EQ(stats.completed, 2u);
}

/** kInteractive jobs are dispatched alone even when the queue is
 *  full of coalescable same-shape work. */
TEST(PimServe, InteractiveJobsNeverBatch)
{
    auto config = serveConfig(1);
    config.max_batch = 16;
    auto server = PimServer::create(config);
    ASSERT_NE(server, nullptr);
    server->pause();

    Prng rng(31);
    Operands ops;
    std::vector<PimJobHandle> batchable;
    for (int i = 0; i < 3; ++i)
        batchable.push_back(server->submit(
            makeSpec(PimJobKind::kVecAdd, 64, 0, ops, rng)));
    auto interactive_spec =
        makeSpec(PimJobKind::kVecAdd, 64, 0, ops, rng);
    interactive_spec.deadline = PimJobDeadline::kInteractive;
    auto interactive = server->submit(interactive_spec);
    for (int i = 0; i < 3; ++i)
        batchable.push_back(server->submit(
            makeSpec(PimJobKind::kVecAdd, 64, 0, ops, rng)));

    server->resume();
    server->drain();
    EXPECT_EQ(interactive.wait(), PimJobState::kDone);
    EXPECT_EQ(interactive.batchSize(), 1u);
    bool saw_batch = false;
    for (auto &h : batchable) {
        EXPECT_EQ(h.wait(), PimJobState::kDone);
        saw_batch |= h.batchSize() > 1;
    }
    EXPECT_TRUE(saw_batch);
}

/** The process-wide pimServe* surface. */
TEST(PimServe, GlobalInstanceLifecycle)
{
    pimClearLastError();
    auto orphan = pimServeSubmit(PimJobSpec{});
    EXPECT_FALSE(orphan.valid());
    EXPECT_EQ(pimGetLastError(), PimStatus::PIM_ERROR);

    ASSERT_EQ(pimServeStart(serveConfig(1)), PimStatus::PIM_OK);
    EXPECT_TRUE(pimServeActive());
    EXPECT_EQ(pimServeStart(serveConfig(1)), PimStatus::PIM_ERROR);
    ASSERT_NE(pimServeInstance(), nullptr);

    Prng rng(41);
    Operands ops;
    const PimJobSpec spec =
        makeSpec(PimJobKind::kDot, 256, 0, ops, rng);
    auto h = pimServeSubmit(spec);
    ASSERT_TRUE(h.valid());
    EXPECT_EQ(h.wait(), PimJobState::kDone) << h.error();
    EXPECT_EQ(h.output().scalar, runReference(spec).scalar);

    EXPECT_EQ(pimServeStop(), PimStatus::PIM_OK);
    EXPECT_FALSE(pimServeActive());
    EXPECT_EQ(pimServeStop(), PimStatus::PIM_ERROR);
}

/**
 * Registry churn stress: contexts created and destroyed from several
 * threads while submitters keep the server saturated. Nothing may
 * deadlock, and every admitted job must still complete correctly.
 */
TEST(PimServe, RegistryChurnUnderLoad)
{
    auto config = serveConfig(2);
    config.tenant_queue_cap = 512;
    auto server = PimServer::create(config);
    ASSERT_NE(server, nullptr);

    constexpr int kChurnThreads = 3;
    constexpr int kChurnIters = 12;
    constexpr int kSubmitThreads = 2;
    constexpr int kJobsPerThread = 40;

    std::atomic<int> bad_contexts{0};
    std::vector<std::thread> churners;
    for (int c = 0; c < kChurnThreads; ++c) {
        churners.emplace_back([&, c] {
            for (int i = 0; i < kChurnIters; ++i) {
                const std::string label =
                    "churn." + std::to_string(c);
                PimContext ctx = pimCreateContextFromConfig(
                    smallConfig(), label.c_str());
                if (!ctx) {
                    bad_contexts.fetch_add(1);
                    continue;
                }
                PimContextScope scope(ctx);
                const PimObjId obj =
                    pimAlloc(PimAllocEnum::PIM_ALLOC_AUTO, 32, 32,
                             PimDataType::PIM_INT32);
                if (obj < 0 ||
                    pimBroadcastInt(obj, 1) != PimStatus::PIM_OK)
                    bad_contexts.fetch_add(1);
                pimDestroyContext(ctx);
            }
        });
    }

    std::atomic<int> wrong_results{0};
    std::vector<std::thread> submitters;
    for (int s = 0; s < kSubmitThreads; ++s) {
        submitters.emplace_back([&, s] {
            Prng rng(100 + s);
            Operands ops;
            const std::string tenant = "sub" + std::to_string(s);
            std::vector<PimJobSpec> specs;
            std::vector<PimJobHandle> handles;
            for (int i = 0; i < kJobsPerThread; ++i) {
                specs.push_back(makeSpec(PimJobKind::kVecAdd, 64, 0,
                                         ops, rng, tenant));
                handles.push_back(server->submit(specs.back()));
            }
            for (int i = 0; i < kJobsPerThread; ++i) {
                if (handles[i].wait() != PimJobState::kDone) {
                    wrong_results.fetch_add(1);
                    continue;
                }
                const auto &got = handles[i].output().values;
                for (uint64_t k = 0; k < specs[i].n; ++k) {
                    const int32_t want = static_cast<int32_t>(
                        static_cast<uint32_t>(specs[i].a[k]) +
                        static_cast<uint32_t>(specs[i].b[k]));
                    if (got[k] != want) {
                        wrong_results.fetch_add(1);
                        break;
                    }
                }
            }
        });
    }

    for (auto &t : churners)
        t.join();
    for (auto &t : submitters)
        t.join();
    server->drain();
    EXPECT_EQ(bad_contexts.load(), 0);
    EXPECT_EQ(wrong_results.load(), 0);
    const PimServeStats stats = server->stats();
    EXPECT_EQ(stats.completed,
              static_cast<uint64_t>(kSubmitThreads * kJobsPerThread));
}
