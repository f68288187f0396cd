/**
 * @file
 * Tests of the multi-context registry (API v2): context isolation,
 * the global-API shim over per-thread current contexts, concurrent
 * multi-context execution bit-identical to sequential, exact
 * inline-run counts across contexts and threads, and thread-local
 * last-error reporting.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/pim_api.h"
#include "core/pim_context.h"
#include "core/pim_error.h"
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

/** Issue @p runs unfused scalar adds on a 64-element object in
 *  @p ctx: each runs its kernel inline once (PIMEVAL_FUSION=1 too). */
void
issueInlineRuns(PimContext ctx, int runs)
{
    ASSERT_EQ(pimSetCurrentContext(ctx), PimStatus::PIM_OK);
    ASSERT_EQ(pimSetFusionEnabled(false), PimStatus::PIM_OK);
    const PimObjId obj = pimAlloc(PimAllocEnum::PIM_ALLOC_AUTO, 64, 32,
                                  PimDataType::PIM_INT32);
    ASSERT_GE(obj, 0);
    for (int i = 0; i < runs; ++i)
        ASSERT_EQ(pimAddScalar(obj, obj, 1), PimStatus::PIM_OK);
    ASSERT_EQ(pimFree(obj), PimStatus::PIM_OK);
}

/** threadpool.inline_runs as read on the calling thread. */
double
inlineRunsTotal()
{
    double total = -1.0;
    EXPECT_TRUE(pimGetMetric("threadpool.inline_runs", &total));
    return total;
}

/** context.live must be a gauge reading the live context count. */
void
expectLiveGauge(size_t live)
{
    const auto all = pimGetAllMetrics();
    const auto it = all.find("context.live");
    ASSERT_NE(it, all.end());
    EXPECT_EQ(it->second.kind, PimMetricValue::Kind::kGauge);
    EXPECT_EQ(it->second.value, static_cast<double>(live));
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
    expectLiveGauge(1);
    PimContext c2 = pimCreateContextFromConfig(
        smallConfig(PimDeviceEnum::PIM_DEVICE_BANK_LEVEL), "beta");
    ASSERT_NE(c2, nullptr);
    expectLiveGauge(2);

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
    expectLiveGauge(1);
    EXPECT_EQ(pimDestroyContext(c2), PimStatus::PIM_OK);
    expectLiveGauge(0);
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

TEST_F(ContextTest, DeviceConfigWithoutDeviceIsNone)
{
    // No device anywhere: the config query reports through the
    // last-error state and returns a config naming no device.
    const PimDeviceConfig &none = pimGetDeviceConfig();
    EXPECT_EQ(none.device, PimDeviceEnum::PIM_DEVICE_NONE);
    EXPECT_EQ(pimGetLastError(), PimStatus::PIM_ERROR);
    EXPECT_STREQ(pimGetLastErrorMessage(),
                 "pimGetDeviceConfig: no active PIM device");

    // A pinned context answers with its own config.
    PimContext ctx = pimCreateContextFromConfig(
        smallConfig(PimDeviceEnum::PIM_DEVICE_FULCRUM), "cfg");
    ASSERT_NE(ctx, nullptr);
    ASSERT_EQ(pimSetCurrentContext(ctx), PimStatus::PIM_OK);
    EXPECT_EQ(pimGetDeviceConfig().device,
              PimDeviceEnum::PIM_DEVICE_FULCRUM);
    EXPECT_EQ(pimGetDeviceConfig().num_cols_per_row, 256u);
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
    // must still see exact counts after each context's runs. Neither
    // count is a multiple of the publish batch.
    constexpr int kRunsA = 1000, kRunsB = 700;
    PimContext ca = pimCreateContextFromConfig(
        smallConfig(PimDeviceEnum::PIM_DEVICE_FULCRUM), "runs-a");
    PimContext cb = pimCreateContextFromConfig(
        smallConfig(PimDeviceEnum::PIM_DEVICE_FULCRUM), "runs-b");
    ASSERT_NE(ca, nullptr);
    ASSERT_NE(cb, nullptr);

    ASSERT_EQ(pimResetMetrics(), PimStatus::PIM_OK);
    issueInlineRuns(ca, kRunsA);
    EXPECT_EQ(inlineRunsTotal(), kRunsA);
    issueInlineRuns(cb, kRunsB);
    EXPECT_EQ(inlineRunsTotal(), kRunsA + kRunsB);

    // A thread that exits with a partial batch still tallied publishes
    // it on exit, so a read after join() is exact too.
    ASSERT_EQ(pimResetMetrics(), PimStatus::PIM_OK);
    std::thread issuer([cb] { issueInlineRuns(cb, kRunsB); });
    issuer.join();
    EXPECT_EQ(inlineRunsTotal(), kRunsB);

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
