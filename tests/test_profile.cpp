/**
 * @file
 * Tests of the phase-scoped profiler (docs/OBSERVABILITY.md): phase
 * nesting and cross-thread aggregation, log-bucket percentile
 * accuracy against an exact sorted reference, the background sampler
 * lifecycle, per-context metric-domain isolation, the
 * PROFILE.json/HTML export round-trip, and the reset-vs-sampler
 * atomicity contract (the TSan regression for concurrent
 * pimResetMetrics / registry snapshots). Built only when the
 * PIMEVAL_TRACING CMake option is ON; under -DPIMEVAL_TRACING=OFF
 * the profile API is inline no-op stubs and there is nothing to
 * exercise.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/pim_api.h"
#include "core/pim_context.h"
#include "core/pim_metrics.h"
#include "core/pim_profile.h"
#include "util/logging.h"

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

/** Temp file path that cleans itself up (and its HTML sibling). */
class TempFile
{
  public:
    explicit TempFile(const std::string &name)
        : path_(::testing::TempDir() + name)
    {
    }
    ~TempFile()
    {
        std::remove(path_.c_str());
        std::remove(htmlPath().c_str());
    }
    const std::string &path() const { return path_; }
    std::string htmlPath() const
    {
        const size_t dot = path_.rfind('.');
        return (dot == std::string::npos ? path_
                                         : path_.substr(0, dot)) +
            ".html";
    }

  private:
    std::string path_;
};

/** Find a phase by name; -1 when absent. */
int
findPhase(const PimProfileSnapshot &snap, const std::string &name)
{
    for (size_t i = 0; i < snap.phases.size(); ++i) {
        if (snap.phases[i].name == name)
            return static_cast<int>(i);
    }
    return -1;
}

/** Exact quantile of a sorted sample (nearest-rank). */
double
exactPercentile(const std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    const size_t rank = static_cast<size_t>(std::ceil(
        q * static_cast<double>(sorted.size())));
    return sorted[std::min(sorted.size() - 1,
                           rank == 0 ? 0 : rank - 1)];
}

class ProfileDeviceTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        LogConfig::setThreshold(LogLevel::Error);
        ASSERT_EQ(pimCreateDeviceFromConfig(
                      smallConfig(PimDeviceEnum::PIM_DEVICE_FULCRUM)),
                  PimStatus::PIM_OK);
    }

    void
    TearDown() override
    {
        if (pimProfileActive())
            PimProfiler::instance().stop("");
        pimResetProfile();
        pimDeleteDevice();
    }
};

} // namespace

// ---------------------------------------------------------------------------
// Log-bucket histogram percentiles
// ---------------------------------------------------------------------------

/** Every bucket's midpoint stays within the bucket's own relative
 *  width of any value that maps into it. */
TEST(ProfileHistogramTest, BucketMidpointRelativeError)
{
    for (double v :
         {1.0, 3.0, 42.0, 1e3, 12345.0, 6.02e8, 2.5e12, 7.7e-5}) {
        const int idx = MetricHistogram::bucketIndex(v);
        const double mid = MetricHistogram::bucketMid(idx);
        EXPECT_LE(std::abs(mid - v) / v,
                  1.0 / MetricHistogram::kSubBuckets + 1e-12)
            << "value " << v;
    }
}

/** Percentile estimates stay within 10% of the exact sorted
 *  reference across a log-uniform distribution spanning octaves. */
TEST(ProfileHistogramTest, PercentileAccuracyVsSortedReference)
{
    MetricHistogram h("test.latency");
    std::vector<double> values;
    // Deterministic LCG; log-uniform over [1e2, 1e8).
    uint64_t state = 0x2545F4914F6CDD1Dull;
    for (int i = 0; i < 20000; ++i) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        const double u =
            static_cast<double>(state >> 11) / 9007199254740992.0;
        const double v = std::pow(10.0, 2.0 + 6.0 * u);
        values.push_back(v);
        h.record(v);
    }
    std::sort(values.begin(), values.end());

    EXPECT_EQ(h.count(), values.size());
    EXPECT_DOUBLE_EQ(h.min(), values.front());
    EXPECT_DOUBLE_EQ(h.max(), values.back());

    for (double q : {0.5, 0.9, 0.99, 0.999}) {
        const double exact = exactPercentile(values, q);
        const double est = h.percentile(q);
        EXPECT_LE(std::abs(est - exact) / exact, 0.10)
            << "q=" << q << " exact=" << exact << " est=" << est;
    }
}

/** A constant sample is reported exactly: the midpoint estimate is
 *  clamped to the observed min/max. */
TEST(ProfileHistogramTest, ConstantSampleIsExact)
{
    MetricHistogram h("test.constant");
    for (int i = 0; i < 100; ++i)
        h.record(777.0);
    for (double q : {0.5, 0.9, 0.99, 0.999})
        EXPECT_DOUBLE_EQ(h.percentile(q), 777.0);
    EXPECT_DOUBLE_EQ(h.mean(), 777.0);
}

// ---------------------------------------------------------------------------
// Phase tree
// ---------------------------------------------------------------------------

TEST_F(ProfileDeviceTest, PhaseNestingAndCounts)
{
    TempFile out("profile_nesting.json");
    ASSERT_EQ(pimProfileStart(out.path().c_str()), PimStatus::PIM_OK);

    for (int i = 0; i < 3; ++i) {
        PIM_PROFILE_SCOPE("outer");
        for (int j = 0; j < 2; ++j) {
            PIM_PROFILE_SCOPE("inner");
        }
    }
    // Unbalanced end is harmless.
    EXPECT_EQ(pimProfileEnd(), PimStatus::PIM_OK);

    const PimProfileSnapshot snap = pimProfileSnapshot();
    EXPECT_TRUE(snap.active);
    const int outer = findPhase(snap, "outer");
    const int inner = findPhase(snap, "inner");
    ASSERT_GE(outer, 0);
    ASSERT_GE(inner, 0);
    EXPECT_EQ(snap.phases[outer].parent, -1);
    EXPECT_EQ(snap.phases[outer].depth, 0);
    EXPECT_EQ(snap.phases[outer].count, 3u);
    EXPECT_EQ(snap.phases[inner].parent, outer);
    EXPECT_EQ(snap.phases[inner].depth, 1);
    EXPECT_EQ(snap.phases[inner].count, 6u);
    EXPECT_GT(snap.phases[outer].host_ns_total, 0u);
    // Parents precede children in the snapshot.
    for (const PimProfilePhase &p : snap.phases) {
        if (p.parent >= 0) {
            EXPECT_LT(p.parent, findPhase(snap, p.name));
        }
    }
}

/** Modeled time committed inside a phase lands in that phase's
 *  compute/transfer split. */
TEST_F(ProfileDeviceTest, ModeledTimeAttribution)
{
    TempFile out("profile_attribution.json");
    ASSERT_EQ(pimProfileStart(out.path().c_str()), PimStatus::PIM_OK);

    constexpr uint64_t kN = 1024;
    std::vector<int> host(kN, 7);
    const PimObjId a = pimAlloc(PimAllocEnum::PIM_ALLOC_AUTO, kN, 32,
                                PimDataType::PIM_INT32);
    const PimObjId b =
        pimAllocAssociated(32, a, PimDataType::PIM_INT32);
    ASSERT_GE(a, 0);
    ASSERT_GE(b, 0);
    {
        PIM_PROFILE_SCOPE("xfer");
        pimCopyHostToDevice(host.data(), a);
        pimCopyHostToDevice(host.data(), b);
        pimSync();
    }
    {
        PIM_PROFILE_SCOPE("math");
        pimAdd(a, b, b);
        pimSync();
    }
    pimFree(a);
    pimFree(b);

    const PimProfileSnapshot snap = pimProfileSnapshot();
    const int xfer = findPhase(snap, "xfer");
    const int math = findPhase(snap, "math");
    ASSERT_GE(xfer, 0);
    ASSERT_GE(math, 0);
    EXPECT_GT(snap.phases[xfer].copy_sec, 0.0);
    EXPECT_EQ(snap.phases[xfer].bytes_h2d, 2 * kN * sizeof(int));
    EXPECT_GT(snap.phases[math].kernel_sec, 0.0);
    EXPECT_EQ(snap.phases[math].bytes_h2d, 0u);
}

/** Concurrent threads aggregate into one tree: same name and nesting
 *  share a node, distinct roots stay disjoint. */
TEST_F(ProfileDeviceTest, PhasesAcrossThreads)
{
    TempFile out("profile_threads.json");
    ASSERT_EQ(pimProfileStart(out.path().c_str()), PimStatus::PIM_OK);

    constexpr int kThreads = 4;
    constexpr int kIters = 50;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([t]() {
            for (int i = 0; i < kIters; ++i) {
                PIM_PROFILE_SCOPE("shared");
                PIM_PROFILE_SCOPE("leaf");
                (void)t;
            }
        });
    }
    for (auto &th : threads)
        th.join();

    const PimProfileSnapshot snap = pimProfileSnapshot();
    const int shared = findPhase(snap, "shared");
    const int leaf = findPhase(snap, "leaf");
    ASSERT_GE(shared, 0);
    ASSERT_GE(leaf, 0);
    EXPECT_EQ(snap.phases[shared].count,
              static_cast<uint64_t>(kThreads * kIters));
    EXPECT_EQ(snap.phases[leaf].count,
              static_cast<uint64_t>(kThreads * kIters));
    EXPECT_EQ(snap.phases[leaf].parent, shared);
}

TEST_F(ProfileDeviceTest, ResetClearsPhases)
{
    TempFile out("profile_reset.json");
    ASSERT_EQ(pimProfileStart(out.path().c_str()), PimStatus::PIM_OK);
    {
        PIM_PROFILE_SCOPE("gone");
    }
    ASSERT_GE(findPhase(pimProfileSnapshot(), "gone"), 0);
    EXPECT_EQ(pimResetProfile(), PimStatus::PIM_OK);
    EXPECT_EQ(findPhase(pimProfileSnapshot(), "gone"), -1);
    EXPECT_TRUE(pimProfileActive());
}

// ---------------------------------------------------------------------------
// Sampler lifecycle
// ---------------------------------------------------------------------------

TEST_F(ProfileDeviceTest, SamplerCollectsTimeSeries)
{
    TempFile out("profile_sampler.json");
    ASSERT_EQ(pimProfileStart(out.path().c_str()), PimStatus::PIM_OK);
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
        6 * PimProfiler::kSamplePeriodMs));
    const PimProfileSnapshot snap = pimProfileSnapshot();
    EXPECT_DOUBLE_EQ(snap.sample_period_ms, PimProfiler::kSamplePeriodMs);
    EXPECT_GE(snap.samples.size(), 2u);
    for (size_t i = 1; i < snap.samples.size(); ++i)
        EXPECT_GE(snap.samples[i].t_ns, snap.samples[i - 1].t_ns);

    // Stop joins the sampler.
    EXPECT_EQ(pimProfileStop(), PimStatus::PIM_OK);
    EXPECT_FALSE(pimProfileActive());
}

/** Satellite regression: a concurrent pimResetMetrics never gives the
 *  sampler (or any snapshot reader) a torn view — run under TSan. */
TEST_F(ProfileDeviceTest, ResetVsSamplerRace)
{
    TempFile out("profile_race.json");
    ASSERT_EQ(pimProfileStart(out.path().c_str()), PimStatus::PIM_OK);

    std::atomic<bool> stop{false};
    std::thread resetter([&]() {
        while (!stop.load(std::memory_order_relaxed))
            pimResetMetrics();
    });
    std::thread recorder([&]() {
        MetricHistogram &h =
            PimMetrics::instance().histogram("test.race_hist");
        MetricCounter &c =
            PimMetrics::instance().counter("test.race_count");
        while (!stop.load(std::memory_order_relaxed)) {
            h.record(123.0);
            c.add(1);
        }
    });
    std::thread snapshotter([&]() {
        while (!stop.load(std::memory_order_relaxed)) {
            const auto all = PimMetrics::instance().snapshotAll();
            const auto it = all.find("test.race_hist");
            if (it != all.end()) {
                // Percentiles derive from the bins alone, so even
                // mid-reset the answer is self-consistent: an empty
                // histogram reports 0, a non-empty one something
                // within the recorded range.
                EXPECT_GE(it->second.p50, 0.0);
                EXPECT_LE(it->second.p50, 123.0 * 1.1);
            }
        }
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    stop.store(true);
    resetter.join();
    recorder.join();
    snapshotter.join();
    EXPECT_EQ(pimProfileStop(), PimStatus::PIM_OK);
}

// ---------------------------------------------------------------------------
// Two live contexts: per-context stats, one process-wide registry
// ---------------------------------------------------------------------------

TEST(ProfileContextTest, TwoLiveContextIsolation)
{
    LogConfig::setThreshold(LogLevel::Error);
    PimContext c1 = pimCreateContextFromConfig(
        smallConfig(PimDeviceEnum::PIM_DEVICE_FULCRUM), "iso-a");
    PimContext c2 = pimCreateContextFromConfig(
        smallConfig(PimDeviceEnum::PIM_DEVICE_FULCRUM), "iso-b");
    ASSERT_NE(c1, nullptr);
    ASSERT_NE(c2, nullptr);
    pimResetMetrics();

    constexpr uint64_t kN1 = 1024, kN2 = 256;
    std::vector<int> host(kN1, 3);
    {
        PimContextScope scope(c1);
        const PimObjId a = pimAlloc(PimAllocEnum::PIM_ALLOC_AUTO, kN1,
                                    32, PimDataType::PIM_INT32);
        ASSERT_GE(a, 0);
        pimCopyHostToDevice(host.data(), a);
        pimSync();
        pimFree(a);
    }
    {
        PimContextScope scope(c2);
        const PimObjId a = pimAlloc(PimAllocEnum::PIM_ALLOC_AUTO, kN2,
                                    32, PimDataType::PIM_INT32);
        ASSERT_GE(a, 0);
        pimCopyHostToDevice(host.data(), a);
        pimSync();
        pimFree(a);
    }

    // Each context's own stats hold only its own copy.
    {
        PimContextScope scope(c1);
        EXPECT_EQ(pimGetStats().bytes_h2d, kN1 * sizeof(int));
    }
    {
        PimContextScope scope(c2);
        EXPECT_EQ(pimGetStats().bytes_h2d, kN2 * sizeof(int));
    }
    // The process-wide registry sees both.
    double total = 0.0;
    EXPECT_TRUE(pimGetMetric("copy.bytes_h2d", &total));
    EXPECT_EQ(total, static_cast<double>((kN1 + kN2) * sizeof(int)));

    EXPECT_EQ(pimDestroyContext(c1), PimStatus::PIM_OK);
    EXPECT_EQ(pimDestroyContext(c2), PimStatus::PIM_OK);
}

// ---------------------------------------------------------------------------
// Export round-trip
// ---------------------------------------------------------------------------

TEST_F(ProfileDeviceTest, ProfileJsonAndHtmlRoundTrip)
{
    TempFile out("profile_roundtrip.json");
    ASSERT_EQ(pimProfileStart(out.path().c_str()), PimStatus::PIM_OK);

    constexpr uint64_t kN = 512;
    std::vector<int> host(kN, 1);
    {
        PIM_PROFILE_SCOPE("work");
        const PimObjId a = pimAlloc(PimAllocEnum::PIM_ALLOC_AUTO, kN,
                                    32, PimDataType::PIM_INT32);
        ASSERT_GE(a, 0);
        pimCopyHostToDevice(host.data(), a);
        pimAddScalar(a, a, 1);
        pimSync();
        pimFree(a);
    }

    ASSERT_EQ(pimDumpProfile(out.path().c_str()), PimStatus::PIM_OK);

    std::string error;
    EXPECT_TRUE(pimValidateProfileFile(out.path(), &error)) << error;

    // The HTML sibling is self-contained and embeds the same JSON.
    std::ifstream html(out.htmlPath());
    ASSERT_TRUE(html.good()) << out.htmlPath();
    std::stringstream ss;
    ss << html.rdbuf();
    const std::string page = ss.str();
    EXPECT_NE(page.find("application/json"), std::string::npos);
    EXPECT_NE(page.find("pimeval_profile_version"), std::string::npos);
    EXPECT_NE(page.find("\"work\""), std::string::npos);

    // pimProfileStop re-exports to the same path and disarms.
    EXPECT_EQ(pimProfileStop(), PimStatus::PIM_OK);
    EXPECT_FALSE(pimProfileActive());
    EXPECT_TRUE(pimValidateProfileFile(out.path(), &error)) << error;
}

TEST(ProfileValidateTest, RejectsMalformedFiles)
{
    TempFile out("profile_bad.json");
    std::string error;

    EXPECT_FALSE(pimValidateProfileFile(out.path(), &error));
    EXPECT_NE(error.find("cannot open"), std::string::npos);

    {
        std::ofstream os(out.path());
        os << "{not json";
    }
    EXPECT_FALSE(pimValidateProfileFile(out.path(), &error));
    EXPECT_NE(error.find("parse"), std::string::npos);

    {
        std::ofstream os(out.path());
        os << "{\"pimeval_profile_version\": 1, \"phases\": "
              "[{\"name\": \"x\"}]}";
    }
    EXPECT_FALSE(pimValidateProfileFile(out.path(), &error));
    EXPECT_NE(error.find("phases[0]"), std::string::npos);
}
