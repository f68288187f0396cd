/**
 * @file
 * Tests of the multi-context registry (API v2): context isolation,
 * the global-API shim over per-thread current contexts, concurrent
 * multi-context execution bit-identical to sequential, the sharded
 * execution layer, and thread-local last-error reporting.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/pim_api.h"
#include "core/pim_context.h"
#include "core/pim_error.h"
#include "core/pim_shard.h"
#include "core/pim_sim.h"
#include "util/logging.h"
#include "util/prng.h"

using namespace pimeval;

namespace {

PimDeviceConfig
smallConfig(PimDeviceEnum device)
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

const PimDeviceEnum kTargets[] = {
    PimDeviceEnum::PIM_DEVICE_BITSIMD_V_AP,
    PimDeviceEnum::PIM_DEVICE_FULCRUM,
    PimDeviceEnum::PIM_DEVICE_BANK_LEVEL,
};

/** Everything one workload run produces, for bit-identity checks.
 *  host_sec is measured wall time and deliberately excluded. */
struct RunOutcome
{
    std::vector<int> out;
    int64_t sum = 0;
    PimRunStats stats;
    std::map<std::string, uint64_t> mix;
    bool ok = false;
};

bool
sameModeledStats(const PimRunStats &x, const PimRunStats &y)
{
    return x.kernel_sec == y.kernel_sec && x.kernel_j == y.kernel_j &&
        x.copy_sec == y.copy_sec && x.copy_j == y.copy_j &&
        x.bytes_h2d == y.bytes_h2d && x.bytes_d2h == y.bytes_d2h &&
        x.bytes_d2d == y.bytes_d2d;
}

/**
 * Fixed mixed workload through the *global* C API, so it targets
 * whatever context the calling thread has pinned: elementwise ops, a
 * negative scalar multiply, a scaled add, a reduction, and copies.
 */
RunOutcome
runWorkload(const std::vector<int> &a, const std::vector<int> &b)
{
    RunOutcome r;
    const uint64_t n = a.size();
    const PimObjId oa = pimAlloc(PimAllocEnum::PIM_ALLOC_AUTO, n, 32,
                                 PimDataType::PIM_INT32);
    const PimObjId ob = pimAllocAssociated(32, oa,
                                           PimDataType::PIM_INT32);
    const PimObjId od = pimAllocAssociated(32, oa,
                                           PimDataType::PIM_INT32);
    if (oa < 0 || ob < 0 || od < 0)
        return r;
    pimCopyHostToDevice(a.data(), oa);
    pimCopyHostToDevice(b.data(), ob);
    pimAdd(oa, ob, od);
    pimMulScalar(od, od, static_cast<uint64_t>(int64_t{-3}));
    pimScaledAdd(oa, od, od, static_cast<uint64_t>(int64_t{7}));
    pimMaxScalar(od, od, static_cast<uint64_t>(int64_t{-100000}));
    if (pimRedSum(od, &r.sum) != PimStatus::PIM_OK)
        return r;
    r.out.resize(n);
    if (pimCopyDeviceToHost(od, r.out.data()) != PimStatus::PIM_OK)
        return r;
    r.stats = pimGetStats();
    r.mix = pimGetOpMix();
    pimFree(oa);
    pimFree(ob);
    pimFree(od);
    r.ok = true;
    return r;
}

class ContextTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        LogConfig::setThreshold(LogLevel::Error);
        ASSERT_EQ(PimSim::instance().numContexts(), 0u)
            << "a previous test leaked contexts";
        pimClearLastError();
    }

    void
    TearDown() override
    {
        pimSetCurrentContext(nullptr);
        EXPECT_EQ(PimSim::instance().numContexts(), 0u);
    }
};

} // namespace

TEST_F(ContextTest, CreateDestroyAndIds)
{
    PimContext c1 = pimCreateContext(
        PimDeviceEnum::PIM_DEVICE_FULCRUM, "alpha");
    ASSERT_NE(c1, nullptr);
    PimContext c2 = pimCreateContextFromConfig(
        smallConfig(PimDeviceEnum::PIM_DEVICE_BANK_LEVEL), "beta");
    ASSERT_NE(c2, nullptr);

    EXPECT_NE(pimContextId(c1), 0u);
    EXPECT_LT(pimContextId(c1), pimContextId(c2));
    EXPECT_STREQ(pimContextLabel(c1), "alpha");
    EXPECT_STREQ(pimContextLabel(c2), "beta");
    EXPECT_EQ(pimContextDeviceType(c1),
              PimDeviceEnum::PIM_DEVICE_FULCRUM);
    EXPECT_EQ(pimContextDeviceType(c2),
              PimDeviceEnum::PIM_DEVICE_BANK_LEVEL);
    EXPECT_EQ(PimSim::instance().numContexts(), 2u);

    EXPECT_EQ(pimDestroyContext(c1), PimStatus::PIM_OK);
    EXPECT_EQ(pimDestroyContext(c2), PimStatus::PIM_OK);
    // Double destroy fails and reports through the last-error state.
    pimClearLastError();
    EXPECT_EQ(pimDestroyContext(c1), PimStatus::PIM_ERROR);
    EXPECT_EQ(pimGetLastError(), PimStatus::PIM_ERROR);
    EXPECT_NE(std::string(pimGetLastErrorMessage())
                  .find("pimDestroyContext"),
              std::string::npos);
}

TEST_F(ContextTest, LastErrorReporting)
{
    // No device anywhere: global calls fail and say which call.
    EXPECT_EQ(pimAdd(0, 1, 2), PimStatus::PIM_ERROR);
    EXPECT_EQ(pimGetLastError(), PimStatus::PIM_ERROR);
    EXPECT_NE(std::string(pimGetLastErrorMessage()).find("pimAdd"),
              std::string::npos);

    // Sticky: a successful call does not clear the state.
    PimContext ctx = pimCreateContext(
        PimDeviceEnum::PIM_DEVICE_FULCRUM, "err");
    ASSERT_NE(ctx, nullptr);
    ASSERT_EQ(pimSetCurrentContext(ctx), PimStatus::PIM_OK);
    const PimObjId obj = pimAlloc(PimAllocEnum::PIM_ALLOC_AUTO, 16,
                                  32, PimDataType::PIM_INT32);
    ASSERT_GE(obj, 0);
    EXPECT_EQ(pimGetLastError(), PimStatus::PIM_ERROR);

    // Clear resets to PIM_OK / "".
    pimClearLastError();
    EXPECT_EQ(pimGetLastError(), PimStatus::PIM_OK);
    EXPECT_STREQ(pimGetLastErrorMessage(), "");

    // A fresh failure overwrites: freeing a bogus id names pimFree.
    EXPECT_EQ(pimFree(obj + 1000), PimStatus::PIM_ERROR);
    EXPECT_NE(std::string(pimGetLastErrorMessage()).find("pimFree"),
              std::string::npos);

    // The error state is thread-local: this thread's error is not
    // visible on another thread.
    std::thread([] {
        EXPECT_EQ(pimGetLastError(), PimStatus::PIM_OK);
        EXPECT_STREQ(pimGetLastErrorMessage(), "");
    }).join();

    EXPECT_EQ(pimFree(obj), PimStatus::PIM_OK);
    pimSetCurrentContext(nullptr);
    EXPECT_EQ(pimDestroyContext(ctx), PimStatus::PIM_OK);
}

TEST_F(ContextTest, GlobalApiShimAndPinning)
{
    // Legacy pair manages the process-default context.
    ASSERT_EQ(pimCreateDeviceFromConfig(
                  smallConfig(PimDeviceEnum::PIM_DEVICE_FULCRUM)),
              PimStatus::PIM_OK);
    ASSERT_TRUE(pimIsDeviceActive());
    EXPECT_EQ(pimGetCurrentContext(), nullptr);

    PimContext ctx = pimCreateContextFromConfig(
        smallConfig(PimDeviceEnum::PIM_DEVICE_FULCRUM), "pinned");
    ASSERT_NE(ctx, nullptr);

    // Work pinned to ctx lands in ctx's stats, not the default's.
    {
        PimContextScope scope(ctx);
        EXPECT_EQ(pimGetCurrentContext(), ctx);
        const PimObjId obj = pimAlloc(PimAllocEnum::PIM_ALLOC_AUTO,
                                      256, 32,
                                      PimDataType::PIM_INT32);
        ASSERT_GE(obj, 0);
        EXPECT_EQ(pimBroadcastInt(obj, 42), PimStatus::PIM_OK);
        EXPECT_EQ(pimAddScalar(obj, obj, 1), PimStatus::PIM_OK);
        EXPECT_GT(pimGetStats().kernel_sec, 0.0);
        EXPECT_EQ(pimFree(obj), PimStatus::PIM_OK);
    }
    // Scope restored: back on the default context, which saw nothing.
    EXPECT_EQ(pimGetCurrentContext(), nullptr);
    EXPECT_EQ(pimGetStats().kernel_sec, 0.0);
    EXPECT_TRUE(pimGetOpMix().empty());

    EXPECT_EQ(pimDestroyContext(ctx), PimStatus::PIM_OK);
    EXPECT_EQ(pimDeleteDevice(), PimStatus::PIM_OK);
    EXPECT_FALSE(pimIsDeviceActive());
}

TEST_F(ContextTest, ResourceIsolationAcrossContexts)
{
    PimContext ca = pimCreateContextFromConfig(
        smallConfig(PimDeviceEnum::PIM_DEVICE_FULCRUM), "a");
    PimContext cb = pimCreateContextFromConfig(
        smallConfig(PimDeviceEnum::PIM_DEVICE_FULCRUM), "b");
    ASSERT_NE(ca, nullptr);
    ASSERT_NE(cb, nullptr);

    ASSERT_EQ(pimSetCurrentContext(ca), PimStatus::PIM_OK);
    const PimObjId obj = pimAlloc(PimAllocEnum::PIM_ALLOC_AUTO, 64,
                                  32, PimDataType::PIM_INT32);
    ASSERT_GE(obj, 0);

    // The handle means nothing in context b: object tables (and thus
    // free lists) do not leak across contexts.
    ASSERT_EQ(pimSetCurrentContext(cb), PimStatus::PIM_OK);
    EXPECT_EQ(pimFree(obj), PimStatus::PIM_ERROR);

    ASSERT_EQ(pimSetCurrentContext(ca), PimStatus::PIM_OK);
    EXPECT_EQ(pimFree(obj), PimStatus::PIM_OK);

    pimSetCurrentContext(nullptr);
    EXPECT_EQ(pimDestroyContext(ca), PimStatus::PIM_OK);
    EXPECT_EQ(pimDestroyContext(cb), PimStatus::PIM_OK);
}

TEST_F(ContextTest, InlineRunCountsExactPerContext)
{
    // Each small command runs its kernel inline once. The issuing
    // thread tallies those runs and publishes them in bulk; reads
    // must still see exact counts, per context and in the aggregate.
    // Neither count is a multiple of the publish batch.
    constexpr int kRunsA = 1000, kRunsB = 700;
    PimContext ca = pimCreateContextFromConfig(
        smallConfig(PimDeviceEnum::PIM_DEVICE_FULCRUM), "runs-a");
    PimContext cb = pimCreateContextFromConfig(
        smallConfig(PimDeviceEnum::PIM_DEVICE_FULCRUM), "runs-b");
    ASSERT_NE(ca, nullptr);
    ASSERT_NE(cb, nullptr);
    const auto issue = [](PimContext ctx, int runs) {
        ASSERT_EQ(pimSetCurrentContext(ctx), PimStatus::PIM_OK);
        // Unfused, so every command runs alone (PIMEVAL_FUSION=1 too).
        ASSERT_EQ(pimSetFusionEnabled(false), PimStatus::PIM_OK);
        const PimObjId obj = pimAlloc(PimAllocEnum::PIM_ALLOC_AUTO, 64,
                                      32, PimDataType::PIM_INT32);
        ASSERT_GE(obj, 0);
        for (int i = 0; i < runs; ++i)
            ASSERT_EQ(pimAddScalar(obj, obj, 1), PimStatus::PIM_OK);
        ASSERT_EQ(pimFree(obj), PimStatus::PIM_OK);
    };
    const auto runsIn = [](PimContext ctx) {
        const auto metrics = pimContextMetrics(ctx);
        const auto it = metrics.find("threadpool.inline_runs");
        return it == metrics.end() ? -1.0 : it->second.value;
    };

    ASSERT_EQ(pimResetMetrics(), PimStatus::PIM_OK);
    issue(ca, kRunsA);
    issue(cb, kRunsB);
    EXPECT_EQ(runsIn(ca), kRunsA);
    EXPECT_EQ(runsIn(cb), kRunsB);
    double total = 0.0;
    EXPECT_TRUE(pimGetMetric("threadpool.inline_runs", &total));
    EXPECT_EQ(total, kRunsA + kRunsB);

    pimSetCurrentContext(nullptr);
    EXPECT_EQ(pimDestroyContext(ca), PimStatus::PIM_OK);
    EXPECT_EQ(pimDestroyContext(cb), PimStatus::PIM_OK);
}

TEST_F(ContextTest, ConcurrentContextsBitIdenticalToSequential)
{
    const uint64_t n = 4000;
    Prng rng(7);
    const std::vector<int> a = rng.intVector(n, -100000, 100000);
    const std::vector<int> b = rng.intVector(n, -100000, 100000);

    // Sequential baselines: one fresh context per target.
    RunOutcome seq[3];
    for (size_t t = 0; t < 3; ++t) {
        PimContext ctx = pimCreateContextFromConfig(
            smallConfig(kTargets[t]), "seq");
        ASSERT_NE(ctx, nullptr);
        {
            PimContextScope scope(ctx);
            seq[t] = runWorkload(a, b);
        }
        ASSERT_TRUE(seq[t].ok);
        EXPECT_EQ(pimDestroyContext(ctx), PimStatus::PIM_OK);
    }
    // All three targets agree functionally.
    EXPECT_EQ(seq[0].out, seq[1].out);
    EXPECT_EQ(seq[0].out, seq[2].out);
    EXPECT_EQ(seq[0].sum, seq[1].sum);
    EXPECT_EQ(seq[0].sum, seq[2].sum);

    // The same three workloads on three concurrent host threads,
    // one context each, through the global API.
    RunOutcome par[3];
    std::vector<std::thread> threads;
    for (size_t t = 0; t < 3; ++t) {
        threads.emplace_back([&, t] {
            PimContext ctx = pimCreateContextFromConfig(
                smallConfig(kTargets[t]), "par");
            ASSERT_NE(ctx, nullptr);
            ASSERT_EQ(pimSetCurrentContext(ctx), PimStatus::PIM_OK);
            par[t] = runWorkload(a, b);
            pimSetCurrentContext(nullptr);
            EXPECT_EQ(pimDestroyContext(ctx), PimStatus::PIM_OK);
        });
    }
    for (auto &th : threads)
        th.join();

    for (size_t t = 0; t < 3; ++t) {
        ASSERT_TRUE(par[t].ok);
        EXPECT_EQ(par[t].out, seq[t].out);
        EXPECT_EQ(par[t].sum, seq[t].sum);
        EXPECT_TRUE(sameModeledStats(par[t].stats, seq[t].stats))
            << "target " << t << " modeled stats diverged under "
            << "concurrency";
        EXPECT_EQ(par[t].mix, seq[t].mix);
    }
}

TEST_F(ContextTest, ShardedExecutionMatchesUnsharded)
{
    const uint64_t n = 3001; // deliberately not divisible by 3
    Prng rng(11);
    const std::vector<int> a = rng.intVector(n, -100000, 100000);
    const std::vector<int> b = rng.intVector(n, -100000, 100000);
    const PimDeviceConfig config =
        smallConfig(PimDeviceEnum::PIM_DEVICE_FULCRUM);

    // Unsharded baseline.
    RunOutcome base;
    {
        PimContext ctx = pimCreateContextFromConfig(config, "base");
        ASSERT_NE(ctx, nullptr);
        PimContextScope scope(ctx);
        base = runWorkload(a, b);
        ASSERT_TRUE(base.ok);
        pimSetCurrentContext(nullptr);
        EXPECT_EQ(pimDestroyContext(ctx), PimStatus::PIM_OK);
    }

    for (const PimShardPartition partition :
         {PimShardPartition::kBlock, PimShardPartition::kRoundRobin}) {
        auto group = PimShardGroup::create(config, 3, partition);
        ASSERT_NE(group, nullptr);

        const PimObjId oa = group->alloc(
            PimAllocEnum::PIM_ALLOC_AUTO, n, PimDataType::PIM_INT32);
        const PimObjId ob =
            group->allocAssociated(oa, PimDataType::PIM_INT32);
        const PimObjId od =
            group->allocAssociated(oa, PimDataType::PIM_INT32);
        ASSERT_GE(oa, 0);
        ASSERT_GE(ob, 0);
        ASSERT_GE(od, 0);
        EXPECT_EQ(group->numElements(oa), n);

        ASSERT_EQ(group->copyHostToDevice(a.data(), oa),
                  PimStatus::PIM_OK);
        ASSERT_EQ(group->copyHostToDevice(b.data(), ob),
                  PimStatus::PIM_OK);
        ASSERT_EQ(group->executeBinary(PimCmdEnum::kAdd, oa, ob, od),
                  PimStatus::PIM_OK);
        ASSERT_EQ(group->executeScalar(
                      PimCmdEnum::kMulScalar, od, od,
                      static_cast<uint64_t>(int64_t{-3})),
                  PimStatus::PIM_OK);
        ASSERT_EQ(group->executeScaledAdd(
                      oa, od, od, static_cast<uint64_t>(int64_t{7})),
                  PimStatus::PIM_OK);
        ASSERT_EQ(group->executeScalar(
                      PimCmdEnum::kMaxScalar, od, od,
                      static_cast<uint64_t>(int64_t{-100000})),
                  PimStatus::PIM_OK);

        int64_t sum = 0;
        ASSERT_EQ(group->executeRedSum(od, &sum), PimStatus::PIM_OK);
        EXPECT_EQ(sum, base.sum);

        std::vector<int> out(n, 0);
        ASSERT_EQ(group->copyDeviceToHost(od, out.data()),
                  PimStatus::PIM_OK);
        EXPECT_EQ(out, base.out);

        // Aggregated fleet stats equal the manual sum over shards.
        const PimRunStats fleet = group->aggregatedStats();
        PimRunStats manual;
        for (size_t s = 0; s < group->numShards(); ++s)
            manual += group->shard(s)->device->stats().snapshot();
        EXPECT_TRUE(sameModeledStats(fleet, manual));
        EXPECT_GT(fleet.kernel_sec, 0.0);
        EXPECT_EQ(fleet.bytes_h2d, base.stats.bytes_h2d);
        EXPECT_EQ(fleet.bytes_d2h, base.stats.bytes_d2h);

        EXPECT_EQ(group->free(oa), PimStatus::PIM_OK);
        EXPECT_EQ(group->free(ob), PimStatus::PIM_OK);
        EXPECT_EQ(group->free(od), PimStatus::PIM_OK);
    }
}

TEST_F(ContextTest, SingleShardGroupMatchesPlainContextStats)
{
    const uint64_t n = 512;
    Prng rng(13);
    const std::vector<int> a = rng.intVector(n, -1000, 1000);
    const PimDeviceConfig config =
        smallConfig(PimDeviceEnum::PIM_DEVICE_BANK_LEVEL);

    // Plain context.
    PimRunStats plain;
    std::vector<int> plain_out(n, 0);
    {
        PimContext ctx = pimCreateContextFromConfig(config, "plain");
        ASSERT_NE(ctx, nullptr);
        PimContextScope scope(ctx);
        const PimObjId oa = pimAlloc(PimAllocEnum::PIM_ALLOC_AUTO, n,
                                     32, PimDataType::PIM_INT32);
        ASSERT_GE(oa, 0);
        pimCopyHostToDevice(a.data(), oa);
        pimAddScalar(oa, oa, static_cast<uint64_t>(int64_t{-17}));
        pimCopyDeviceToHost(oa, plain_out.data());
        plain = pimGetStats();
        pimFree(oa);
        pimSetCurrentContext(nullptr);
        EXPECT_EQ(pimDestroyContext(ctx), PimStatus::PIM_OK);
    }

    // K=1 shard group: the degenerate sharding is exactly the plain
    // context, down to every modeled stat.
    auto group = PimShardGroup::create(config, 1,
                                       PimShardPartition::kBlock);
    ASSERT_NE(group, nullptr);
    const PimObjId oa = group->alloc(PimAllocEnum::PIM_ALLOC_AUTO, n,
                                     PimDataType::PIM_INT32);
    ASSERT_GE(oa, 0);
    ASSERT_EQ(group->copyHostToDevice(a.data(), oa),
              PimStatus::PIM_OK);
    ASSERT_EQ(group->executeScalar(PimCmdEnum::kAddScalar, oa, oa,
                                   static_cast<uint64_t>(int64_t{-17})),
              PimStatus::PIM_OK);
    std::vector<int> out(n, 0);
    ASSERT_EQ(group->copyDeviceToHost(oa, out.data()),
              PimStatus::PIM_OK);
    EXPECT_EQ(out, plain_out);
    EXPECT_TRUE(sameModeledStats(group->aggregatedStats(), plain));
    EXPECT_EQ(group->free(oa), PimStatus::PIM_OK);
}
