/**
 * @file
 * Functional tests of the public PIM API, parameterized across all
 * three simulated architectures and multiple data types — the same
 * program must produce identical results everywhere (the portability
 * claim of the paper's API).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <sstream>

#include "core/pim_api.h"
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

class PimApiTest : public ::testing::TestWithParam<PimDeviceEnum>
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
        pimDeleteDevice();
    }
};

} // namespace

TEST_P(PimApiTest, AllocCopyRoundTrip)
{
    const uint64_t n = 1000;
    Prng rng(1);
    const std::vector<int> data = rng.intVector(n, -1000000, 1000000);

    const PimObjId obj = pimAlloc(PimAllocEnum::PIM_ALLOC_AUTO, n, 32,
                                  PimDataType::PIM_INT32);
    ASSERT_GE(obj, 0);
    ASSERT_EQ(pimCopyHostToDevice(data.data(), obj), PimStatus::PIM_OK);

    std::vector<int> out(n, 0);
    ASSERT_EQ(pimCopyDeviceToHost(obj, out.data()), PimStatus::PIM_OK);
    EXPECT_EQ(data, out);
    EXPECT_EQ(pimFree(obj), PimStatus::PIM_OK);
}

TEST_P(PimApiTest, RangedCopy)
{
    const uint64_t n = 100;
    std::vector<int> data(n);
    std::iota(data.begin(), data.end(), 0);

    const PimObjId obj = pimAlloc(PimAllocEnum::PIM_ALLOC_AUTO, n, 32,
                                  PimDataType::PIM_INT32);
    ASSERT_GE(obj, 0);
    pimBroadcastInt(obj, 7);
    // Overwrite elements [10, 20) only.
    ASSERT_EQ(pimCopyHostToDevice(data.data(), obj, 10, 20),
              PimStatus::PIM_OK);

    std::vector<int> out(n);
    pimCopyDeviceToHost(obj, out.data());
    for (uint64_t i = 0; i < n; ++i) {
        if (i >= 10 && i < 20)
            EXPECT_EQ(out[i], data[i - 10]);
        else
            EXPECT_EQ(out[i], 7);
    }

    // Partial read-back.
    std::vector<int> partial(5);
    ASSERT_EQ(pimCopyDeviceToHost(obj, partial.data(), 12, 17),
              PimStatus::PIM_OK);
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(partial[i], out[12 + i]);

    pimFree(obj);
}

TEST_P(PimApiTest, BinaryArithmetic)
{
    const uint64_t n = 513; // deliberately not row-aligned
    Prng rng(2);
    const std::vector<int> a = rng.intVector(n, -10000, 10000);
    const std::vector<int> b = rng.intVector(n, -10000, 10000);

    const PimObjId oa = pimAlloc(PimAllocEnum::PIM_ALLOC_AUTO, n, 32,
                                 PimDataType::PIM_INT32);
    const PimObjId ob =
        pimAllocAssociated(32, oa, PimDataType::PIM_INT32);
    const PimObjId oc =
        pimAllocAssociated(32, oa, PimDataType::PIM_INT32);
    ASSERT_GE(oa, 0);
    ASSERT_GE(ob, 0);
    ASSERT_GE(oc, 0);
    pimCopyHostToDevice(a.data(), oa);
    pimCopyHostToDevice(b.data(), ob);

    std::vector<int> out(n);
    auto check = [&](auto fn) {
        pimCopyDeviceToHost(oc, out.data());
        for (uint64_t i = 0; i < n; ++i)
            ASSERT_EQ(out[i], fn(a[i], b[i])) << "i=" << i;
    };

    ASSERT_EQ(pimAdd(oa, ob, oc), PimStatus::PIM_OK);
    check([](int x, int y) { return x + y; });
    ASSERT_EQ(pimSub(oa, ob, oc), PimStatus::PIM_OK);
    check([](int x, int y) { return x - y; });
    ASSERT_EQ(pimMul(oa, ob, oc), PimStatus::PIM_OK);
    check([](int x, int y) { return x * y; });
    ASSERT_EQ(pimDiv(oa, ob, oc), PimStatus::PIM_OK);
    check([](int x, int y) { return y == 0 ? 0 : x / y; });
    ASSERT_EQ(pimMin(oa, ob, oc), PimStatus::PIM_OK);
    check([](int x, int y) { return std::min(x, y); });
    ASSERT_EQ(pimMax(oa, ob, oc), PimStatus::PIM_OK);
    check([](int x, int y) { return std::max(x, y); });

    pimFree(oa);
    pimFree(ob);
    pimFree(oc);
}

TEST_P(PimApiTest, BinaryLogicalAndCompare)
{
    const uint64_t n = 256;
    Prng rng(3);
    std::vector<uint32_t> a(n), b(n);
    for (uint64_t i = 0; i < n; ++i) {
        a[i] = static_cast<uint32_t>(rng.next());
        b[i] = (i % 5 == 0) ? a[i] : static_cast<uint32_t>(rng.next());
    }

    const PimObjId oa = pimAlloc(PimAllocEnum::PIM_ALLOC_AUTO, n, 32,
                                 PimDataType::PIM_UINT32);
    const PimObjId ob =
        pimAllocAssociated(32, oa, PimDataType::PIM_UINT32);
    const PimObjId oc =
        pimAllocAssociated(32, oa, PimDataType::PIM_UINT32);
    pimCopyHostToDevice(a.data(), oa);
    pimCopyHostToDevice(b.data(), ob);

    std::vector<uint32_t> out(n);
    auto check = [&](auto fn) {
        pimCopyDeviceToHost(oc, out.data());
        for (uint64_t i = 0; i < n; ++i)
            ASSERT_EQ(out[i], fn(a[i], b[i])) << "i=" << i;
    };

    pimAnd(oa, ob, oc);
    check([](uint32_t x, uint32_t y) { return x & y; });
    pimOr(oa, ob, oc);
    check([](uint32_t x, uint32_t y) { return x | y; });
    pimXor(oa, ob, oc);
    check([](uint32_t x, uint32_t y) { return x ^ y; });
    pimXnor(oa, ob, oc);
    check([](uint32_t x, uint32_t y) { return ~(x ^ y); });
    pimGT(oa, ob, oc);
    check([](uint32_t x, uint32_t y) -> uint32_t { return x > y; });
    pimLT(oa, ob, oc);
    check([](uint32_t x, uint32_t y) -> uint32_t { return x < y; });
    pimEQ(oa, ob, oc);
    check([](uint32_t x, uint32_t y) -> uint32_t { return x == y; });
    pimNE(oa, ob, oc);
    check([](uint32_t x, uint32_t y) -> uint32_t { return x != y; });

    pimFree(oa);
    pimFree(ob);
    pimFree(oc);
}

TEST_P(PimApiTest, ScalarOpsAndScaledAdd)
{
    const uint64_t n = 300;
    Prng rng(4);
    const std::vector<int> a = rng.intVector(n, -5000, 5000);
    const std::vector<int> b = rng.intVector(n, -5000, 5000);
    const int scalar = -37;
    const uint64_t uscalar =
        static_cast<uint64_t>(static_cast<int64_t>(scalar));

    const PimObjId oa = pimAlloc(PimAllocEnum::PIM_ALLOC_AUTO, n, 32,
                                 PimDataType::PIM_INT32);
    const PimObjId ob =
        pimAllocAssociated(32, oa, PimDataType::PIM_INT32);
    const PimObjId oc =
        pimAllocAssociated(32, oa, PimDataType::PIM_INT32);
    pimCopyHostToDevice(a.data(), oa);
    pimCopyHostToDevice(b.data(), ob);

    std::vector<int> out(n);
    auto check = [&](auto fn) {
        pimCopyDeviceToHost(oc, out.data());
        for (uint64_t i = 0; i < n; ++i)
            ASSERT_EQ(out[i], fn(a[i])) << "i=" << i;
    };

    pimAddScalar(oa, oc, uscalar);
    check([&](int x) { return x + scalar; });
    pimSubScalar(oa, oc, uscalar);
    check([&](int x) { return x - scalar; });
    pimMulScalar(oa, oc, uscalar);
    check([&](int x) { return x * scalar; });
    pimDivScalar(oa, oc, uscalar);
    check([&](int x) { return x / scalar; });
    pimMinScalar(oa, oc, uscalar);
    check([&](int x) { return std::min(x, scalar); });
    pimMaxScalar(oa, oc, uscalar);
    check([&](int x) { return std::max(x, scalar); });
    pimGTScalar(oa, oc, uscalar);
    check([&](int x) -> int { return x > scalar; });
    pimLTScalar(oa, oc, uscalar);
    check([&](int x) -> int { return x < scalar; });
    pimEQScalar(oa, oc, uscalar);
    check([&](int x) -> int { return x == scalar; });

    pimScaledAdd(oa, ob, oc, uscalar);
    pimCopyDeviceToHost(oc, out.data());
    for (uint64_t i = 0; i < n; ++i)
        ASSERT_EQ(out[i], a[i] * scalar + b[i]);

    pimFree(oa);
    pimFree(ob);
    pimFree(oc);
}

TEST_P(PimApiTest, UnaryOpsShiftsPopcount)
{
    const uint64_t n = 300;
    Prng rng(5);
    const std::vector<int> a = rng.intVector(n, -100000, 100000);

    const PimObjId oa = pimAlloc(PimAllocEnum::PIM_ALLOC_AUTO, n, 32,
                                 PimDataType::PIM_INT32);
    const PimObjId oc =
        pimAllocAssociated(32, oa, PimDataType::PIM_INT32);
    pimCopyHostToDevice(a.data(), oa);

    std::vector<int> out(n);
    pimAbs(oa, oc);
    pimCopyDeviceToHost(oc, out.data());
    for (uint64_t i = 0; i < n; ++i)
        ASSERT_EQ(out[i], std::abs(a[i]));

    pimNot(oa, oc);
    pimCopyDeviceToHost(oc, out.data());
    for (uint64_t i = 0; i < n; ++i)
        ASSERT_EQ(out[i], ~a[i]);

    pimShiftBitsLeft(oa, oc, 3);
    pimCopyDeviceToHost(oc, out.data());
    for (uint64_t i = 0; i < n; ++i)
        ASSERT_EQ(out[i], a[i] << 3);

    pimShiftBitsRight(oa, oc, 3);
    pimCopyDeviceToHost(oc, out.data());
    for (uint64_t i = 0; i < n; ++i)
        ASSERT_EQ(out[i], a[i] >> 3); // arithmetic for signed

    pimPopCount(oa, oc);
    pimCopyDeviceToHost(oc, out.data());
    for (uint64_t i = 0; i < n; ++i)
        ASSERT_EQ(out[i], __builtin_popcount(
                              static_cast<uint32_t>(a[i])));

    pimFree(oa);
    pimFree(oc);
}

TEST_P(PimApiTest, ReductionAndBroadcast)
{
    const uint64_t n = 1234;
    Prng rng(6);
    const std::vector<int> a = rng.intVector(n, -1000, 1000);

    const PimObjId oa = pimAlloc(PimAllocEnum::PIM_ALLOC_AUTO, n, 32,
                                 PimDataType::PIM_INT32);
    pimCopyHostToDevice(a.data(), oa);

    int64_t sum = 0;
    ASSERT_EQ(pimRedSum(oa, &sum), PimStatus::PIM_OK);
    EXPECT_EQ(sum, std::accumulate(a.begin(), a.end(), int64_t{0}));

    int64_t ranged = 0;
    ASSERT_EQ(pimRedSumRanged(oa, 100, 200, &ranged),
              PimStatus::PIM_OK);
    EXPECT_EQ(ranged, std::accumulate(a.begin() + 100,
                                      a.begin() + 200, int64_t{0}));

    pimBroadcastInt(oa, static_cast<uint64_t>(int64_t{-42}));
    std::vector<int> out(n);
    pimCopyDeviceToHost(oa, out.data());
    for (uint64_t i = 0; i < n; ++i)
        ASSERT_EQ(out[i], -42);

    pimFree(oa);
}

TEST_P(PimApiTest, DataTypesUint8Int16Int64)
{
    // uint8
    {
        const uint64_t n = 200;
        Prng rng(7);
        const std::vector<uint8_t> a = rng.byteVector(n);
        const PimObjId oa = pimAlloc(PimAllocEnum::PIM_ALLOC_AUTO, n,
                                     8, PimDataType::PIM_UINT8);
        const PimObjId oc =
            pimAllocAssociated(8, oa, PimDataType::PIM_UINT8);
        pimCopyHostToDevice(a.data(), oa);
        pimAddScalar(oa, oc, 200); // wraps mod 256
        std::vector<uint8_t> out(n);
        pimCopyDeviceToHost(oc, out.data());
        for (uint64_t i = 0; i < n; ++i)
            ASSERT_EQ(out[i], static_cast<uint8_t>(a[i] + 200));
        pimFree(oa);
        pimFree(oc);
    }
    // int16
    {
        const uint64_t n = 200;
        std::vector<int16_t> a(n);
        for (uint64_t i = 0; i < n; ++i)
            a[i] = static_cast<int16_t>(i * 7 - 500);
        const PimObjId oa = pimAlloc(PimAllocEnum::PIM_ALLOC_AUTO, n,
                                     16, PimDataType::PIM_INT16);
        const PimObjId oc =
            pimAllocAssociated(16, oa, PimDataType::PIM_INT16);
        pimCopyHostToDevice(a.data(), oa);
        pimAbs(oa, oc);
        std::vector<int16_t> out(n);
        pimCopyDeviceToHost(oc, out.data());
        for (uint64_t i = 0; i < n; ++i)
            ASSERT_EQ(out[i], static_cast<int16_t>(std::abs(a[i])));
        pimFree(oa);
        pimFree(oc);
    }
    // int64
    {
        const uint64_t n = 100;
        std::vector<int64_t> a(n);
        for (uint64_t i = 0; i < n; ++i)
            a[i] = static_cast<int64_t>(i) * 1000000007LL - 50;
        const PimObjId oa = pimAlloc(PimAllocEnum::PIM_ALLOC_AUTO, n,
                                     64, PimDataType::PIM_INT64);
        const PimObjId oc =
            pimAllocAssociated(64, oa, PimDataType::PIM_INT64);
        pimCopyHostToDevice(a.data(), oa);
        pimMulScalar(oa, oc, 3);
        std::vector<int64_t> out(n);
        pimCopyDeviceToHost(oc, out.data());
        for (uint64_t i = 0; i < n; ++i)
            ASSERT_EQ(out[i], a[i] * 3);
        pimFree(oa);
        pimFree(oc);
    }
}

TEST_P(PimApiTest, ErrorHandling)
{
    // Mismatched bits/type.
    EXPECT_EQ(pimAlloc(PimAllocEnum::PIM_ALLOC_AUTO, 10, 16,
                       PimDataType::PIM_INT32),
              -1);
    // Unknown object ids.
    EXPECT_EQ(pimFree(9999), PimStatus::PIM_ERROR);
    EXPECT_EQ(pimAdd(9999, 9998, 9997), PimStatus::PIM_ERROR);
    int64_t sum;
    EXPECT_EQ(pimRedSum(9999, &sum), PimStatus::PIM_ERROR);
    // Size mismatch between operands.
    const PimObjId small = pimAlloc(PimAllocEnum::PIM_ALLOC_AUTO, 10,
                                    32, PimDataType::PIM_INT32);
    const PimObjId big = pimAlloc(PimAllocEnum::PIM_ALLOC_AUTO, 20, 32,
                                  PimDataType::PIM_INT32);
    EXPECT_EQ(pimAdd(small, big, small), PimStatus::PIM_ERROR);
    // Bad copy range.
    int buf[4] = {0, 0, 0, 0};
    EXPECT_EQ(pimCopyHostToDevice(buf, small, 8, 30),
              PimStatus::PIM_ERROR);
    pimFree(small);
    pimFree(big);
    // Double device creation fails.
    EXPECT_EQ(pimCreateDevice(GetParam()), PimStatus::PIM_ERROR);
}

TEST_P(PimApiTest, StatsAccounting)
{
    pimResetStats();
    const uint64_t n = 512;
    std::vector<int> a(n, 1), b(n, 2);
    const PimObjId oa = pimAlloc(PimAllocEnum::PIM_ALLOC_AUTO, n, 32,
                                 PimDataType::PIM_INT32);
    const PimObjId ob =
        pimAllocAssociated(32, oa, PimDataType::PIM_INT32);
    pimCopyHostToDevice(a.data(), oa);
    pimCopyHostToDevice(b.data(), ob);
    pimAdd(oa, ob, ob);
    pimMul(oa, ob, ob);
    pimCopyDeviceToHost(ob, b.data());

    const PimRunStats stats = pimGetStats();
    EXPECT_EQ(stats.bytes_h2d, 2 * n * sizeof(int));
    EXPECT_EQ(stats.bytes_d2h, n * sizeof(int));
    EXPECT_GT(stats.kernel_sec, 0.0);
    EXPECT_GT(stats.kernel_j, 0.0);
    EXPECT_GT(stats.copy_sec, 0.0);

    const auto mix = pimGetOpMix();
    EXPECT_EQ(mix.at("add"), 1u);
    EXPECT_EQ(mix.at("mul"), 1u);

    pimResetStats();
    const PimRunStats zeroed = pimGetStats();
    EXPECT_EQ(zeroed.bytes_h2d, 0u);
    EXPECT_EQ(zeroed.kernel_sec, 0.0);

    pimFree(oa);
    pimFree(ob);
}

namespace {

/**
 * Run pim{Add,Sub,Mul,Div,Min,Max,GT,LT}Scalar with a *negative*
 * scalar on a signed type and verify against the CPU reference:
 * the uint64_t scalar argument must sign-extend to the element width
 * end to end (API entry, fusion tape, and the per-target kernels).
 */
template <typename T>
void
checkNegativeScalars(PimDataType dtype, unsigned bits)
{
    const uint64_t n = 257;
    const T scalar = static_cast<T>(-23);
    const uint64_t raw =
        static_cast<uint64_t>(static_cast<int64_t>(scalar));
    std::vector<T> a(n);
    for (uint64_t i = 0; i < n; ++i)
        a[i] = static_cast<T>(static_cast<int64_t>(i) * 7 - 800);

    const PimObjId oa =
        pimAlloc(PimAllocEnum::PIM_ALLOC_AUTO, n, bits, dtype);
    const PimObjId od = pimAllocAssociated(bits, oa, dtype);
    ASSERT_GE(oa, 0);
    ASSERT_GE(od, 0);
    ASSERT_EQ(pimCopyHostToDevice(a.data(), oa), PimStatus::PIM_OK);

    struct Case
    {
        const char *name;
        PimStatus (*run)(PimObjId, PimObjId, uint64_t);
        T (*ref)(T, T);
    };
    const Case cases[] = {
        {"add", pimAddScalar, [](T x, T s) -> T { return x + s; }},
        {"sub", pimSubScalar, [](T x, T s) -> T { return x - s; }},
        {"mul", pimMulScalar, [](T x, T s) -> T { return x * s; }},
        {"div", pimDivScalar, [](T x, T s) -> T { return x / s; }},
        {"min", pimMinScalar,
         [](T x, T s) -> T { return x < s ? x : s; }},
        {"max", pimMaxScalar,
         [](T x, T s) -> T { return x > s ? x : s; }},
        {"gt", pimGTScalar, [](T x, T s) -> T { return x > s; }},
        {"lt", pimLTScalar, [](T x, T s) -> T { return x < s; }},
    };

    std::vector<T> out(n);
    for (const Case &c : cases) {
        ASSERT_EQ(c.run(oa, od, raw), PimStatus::PIM_OK) << c.name;
        ASSERT_EQ(pimCopyDeviceToHost(od, out.data()),
                  PimStatus::PIM_OK);
        for (uint64_t i = 0; i < n; ++i)
            ASSERT_EQ(out[i], c.ref(a[i], scalar))
                << c.name << " scalar mismatch at " << i;
    }

    // dest = a * (-23) + a through the three-operand path.
    ASSERT_EQ(pimScaledAdd(oa, oa, od, raw), PimStatus::PIM_OK);
    ASSERT_EQ(pimCopyDeviceToHost(od, out.data()), PimStatus::PIM_OK);
    for (uint64_t i = 0; i < n; ++i)
        ASSERT_EQ(out[i], static_cast<T>(a[i] * scalar + a[i]))
            << "scaled_add mismatch at " << i;

    pimFree(oa);
    pimFree(od);
}

} // namespace

TEST_P(PimApiTest, NegativeScalarSignExtension)
{
    // Plain path plus the fusion-capture path: the masked scalar must
    // survive capture and replay.
    checkNegativeScalars<int8_t>(PimDataType::PIM_INT8, 8);
    checkNegativeScalars<int16_t>(PimDataType::PIM_INT16, 16);
    checkNegativeScalars<int32_t>(PimDataType::PIM_INT32, 32);

    ASSERT_EQ(pimSetFusionEnabled(true), PimStatus::PIM_OK);
    checkNegativeScalars<int8_t>(PimDataType::PIM_INT8, 8);
    checkNegativeScalars<int32_t>(PimDataType::PIM_INT32, 32);
    ASSERT_EQ(pimSetFusionEnabled(false), PimStatus::PIM_OK);
}

TEST_P(PimApiTest, SyncWithNothingPendingSucceeds)
{
    const uint64_t n = 256;
    const PimObjId a = pimAlloc(PimAllocEnum::PIM_ALLOC_AUTO, n, 32,
                                PimDataType::PIM_INT32);
    ASSERT_GE(a, 0);
    pimBroadcastInt(a, 5);
    pimAddScalar(a, a, 2);
    // Nothing is buffered: pimSync is a no-op that succeeds, and the
    // commands issued before it already ran.
    EXPECT_EQ(pimSync(), PimStatus::PIM_OK);
    std::vector<int> out(n, 0);
    pimCopyDeviceToHost(a, out.data());
    EXPECT_EQ(out.front(), 7);
    EXPECT_EQ(pimSync(), PimStatus::PIM_OK);
    pimFree(a);
}

TEST_P(PimApiTest, HostTimerMeasuresElapsed)
{
    ASSERT_EQ(pimResetStats(), PimStatus::PIM_OK);
    ASSERT_EQ(pimStartHostTimer(), PimStatus::PIM_OK);
    volatile double sink = 0;
    for (int i = 0; i < 100000; ++i)
        sink = sink + i;
    ASSERT_EQ(pimStopHostTimer(), PimStatus::PIM_OK);
    const double host_sec = pimGetStats().host_sec;
    EXPECT_GT(host_sec, 0.0);
    // A stop without a matching start adds nothing.
    ASSERT_EQ(pimStopHostTimer(), PimStatus::PIM_OK);
    EXPECT_EQ(pimGetStats().host_sec, host_sec);
}

TEST_P(PimApiTest, ShiftByWidthOrMoreSaturates)
{
    // An amount of the element width or more shifts every bit out:
    // left shifts give 0, right shifts the sign fill (0 for unsigned).
    // Amounts of 2^bits and more must not wrap back into range.
    const uint64_t n = 300;
    std::vector<int8_t> x(n);
    std::vector<uint8_t> flags(n);
    for (uint64_t i = 0; i < n; ++i) {
        x[i] = static_cast<int8_t>(i * 37 - 90);
        flags[i] = static_cast<uint8_t>(i % 2);
    }
    const PimObjId a =
        pimAlloc(PimAllocEnum::PIM_ALLOC_AUTO, n, 8, PimDataType::PIM_INT8);
    const PimObjId d = pimAllocAssociated(8, a, PimDataType::PIM_INT8);
    const PimObjId ba =
        pimAlloc(PimAllocEnum::PIM_ALLOC_AUTO, n, 1, PimDataType::PIM_BOOL);
    const PimObjId bd = pimAllocAssociated(1, ba, PimDataType::PIM_BOOL);
    ASSERT_GE(a, 0);
    ASSERT_GE(d, 0);
    ASSERT_GE(ba, 0);
    ASSERT_GE(bd, 0);
    ASSERT_EQ(pimCopyHostToDevice(x.data(), a), PimStatus::PIM_OK);
    ASSERT_EQ(pimCopyHostToDevice(flags.data(), ba), PimStatus::PIM_OK);

    for (const bool region : {false, true}) {
        // Inside a region the shift is captured and runs at the end.
        const auto shift = [region](auto fn, PimObjId src, PimObjId dst,
                                    unsigned amount) {
            if (region) {
                ASSERT_EQ(pimBeginFusion(), PimStatus::PIM_OK);
            }
            ASSERT_EQ(fn(src, dst, amount), PimStatus::PIM_OK);
            if (region) {
                ASSERT_EQ(pimEndFusion(), PimStatus::PIM_OK);
            }
        };
        std::vector<int8_t> out(n);
        for (const unsigned amount : {8u, 255u, 256u, 257u}) {
            shift(pimShiftBitsLeft, a, d, amount);
            ASSERT_EQ(pimCopyDeviceToHost(d, out.data()),
                      PimStatus::PIM_OK);
            for (uint64_t i = 0; i < n; ++i)
                ASSERT_EQ(out[i], 0) << "left by " << amount
                                     << " region " << region;
            shift(pimShiftBitsRight, a, d, amount);
            ASSERT_EQ(pimCopyDeviceToHost(d, out.data()),
                      PimStatus::PIM_OK);
            for (uint64_t i = 0; i < n; ++i)
                ASSERT_EQ(out[i], x[i] < 0 ? -1 : 0)
                    << "right by " << amount << " region " << region;
        }
        std::vector<uint8_t> bout(n, 1);
        shift(pimShiftBitsLeft, ba, bd, 2);
        ASSERT_EQ(pimCopyDeviceToHost(bd, bout.data()), PimStatus::PIM_OK);
        for (uint64_t i = 0; i < n; ++i)
            ASSERT_EQ(bout[i], 0) << "bool left, region " << region;
        std::fill(bout.begin(), bout.end(), 1);
        shift(pimShiftBitsRight, ba, bd, 2);
        ASSERT_EQ(pimCopyDeviceToHost(bd, bout.data()), PimStatus::PIM_OK);
        for (uint64_t i = 0; i < n; ++i)
            ASSERT_EQ(bout[i], 0) << "bool right, region " << region;
    }
    for (const PimObjId id : {a, d, ba, bd})
        pimFree(id);
}

namespace {

/** One row of the per-command golden table: exact modeled cost. */
struct CmdGolden
{
    const char *key;
    uint64_t count;
    double runtime_sec;
    double energy_j;
};

/** Golden modeled stats of issueEveryDeviceCommand on one target. */
struct TargetGolden
{
    PimDeviceEnum device;
    std::vector<CmdGolden> cmds;
    double kernel_sec;
    double kernel_j;
    double copy_sec;
    double copy_j;
    uint64_t bytes_h2d;
    uint64_t bytes_d2h;
    uint64_t bytes_d2d;
};

/**
 * Issue every PimDevice command once on n = 3,001 int32 elements.
 * With @p regions each command sits in its own fusion region, so the
 * fusable ones are captured and run as singleton chains.
 */
void
issueEveryDeviceCommand(bool regions)
{
    constexpr uint64_t n = 3001;
    Prng rng(11);
    const std::vector<int> x = rng.intVector(n, -5000, 5000);
    const std::vector<int> y = rng.intVector(n, 1, 5000);
    const PimObjId a = pimAlloc(PimAllocEnum::PIM_ALLOC_AUTO, n, 32,
                                PimDataType::PIM_INT32);
    const PimObjId b = pimAllocAssociated(32, a, PimDataType::PIM_INT32);
    const PimObjId d = pimAllocAssociated(32, a, PimDataType::PIM_INT32);
    ASSERT_GE(a, 0);
    ASSERT_GE(b, 0);
    ASSERT_GE(d, 0);
    const auto run = [regions](auto &&cmd) {
        if (regions) {
            ASSERT_EQ(pimBeginFusion(), PimStatus::PIM_OK);
        }
        ASSERT_EQ(cmd(), PimStatus::PIM_OK);
        if (regions) {
            ASSERT_EQ(pimEndFusion(), PimStatus::PIM_OK);
        }
    };
    run([&] { return pimCopyHostToDevice(x.data(), a); });
    run([&] { return pimCopyHostToDevice(y.data(), b); });
    run([&] { return pimCopyHostToDevice(x.data(), d, 17, 2900); });
    for (auto fn : {pimAdd, pimSub, pimMul, pimDiv, pimMin, pimMax, pimAnd,
                    pimOr, pimXor, pimXnor, pimGT, pimLT, pimEQ, pimNE})
        run([&] { return fn(a, b, d); });
    for (auto fn : {pimAbs, pimNot, pimPopCount})
        run([&] { return fn(a, d); });
    const uint64_t neg = static_cast<uint64_t>(int64_t{-7});
    for (const PimCmdEnum cmd :
         {PimCmdEnum::kAddScalar, PimCmdEnum::kSubScalar,
          PimCmdEnum::kMulScalar, PimCmdEnum::kDivScalar,
          PimCmdEnum::kMinScalar, PimCmdEnum::kMaxScalar,
          PimCmdEnum::kAndScalar, PimCmdEnum::kOrScalar,
          PimCmdEnum::kXorScalar, PimCmdEnum::kGTScalar,
          PimCmdEnum::kLTScalar, PimCmdEnum::kEQScalar})
        run([&] { return pimOpScalar(cmd, a, d, neg); });
    for (const unsigned amount : {0u, 3u, 32u}) {
        run([&] { return pimShiftBitsLeft(a, d, amount); });
        run([&] { return pimShiftBitsRight(a, d, amount); });
    }
    run([&] { return pimScaledAdd(a, b, d, neg); });
    run([&] { return pimBroadcastInt(d, neg); });
    int64_t sum = 0;
    run([&] { return pimRedSum(a, &sum); });
    run([&] { return pimRedSumRanged(a, 5, 2000, &sum); });
    std::vector<int> out(n);
    run([&] { return pimCopyDeviceToHost(d, out.data()); });
    run([&] { return pimCopyDeviceToDevice(a, d); });
    for (auto fn : {pimShiftElementsLeft, pimShiftElementsRight,
                    pimRotateElementsLeft, pimRotateElementsRight})
        run([&] { return fn(d); });
    for (const PimObjId id : {a, b, d})
        pimFree(id);
}

/** Exact modeled stats of issueEveryDeviceCommand per target, under
 *  analytical transfer timing. Change them only with an intended
 *  model change; a failure prints the actual table in this format. */
const std::vector<TargetGolden> &
perCommandGolden()
{
    // clang-format off
    static const std::vector<TargetGolden> golden = {
    {PimDeviceEnum::PIM_DEVICE_BITSIMD_V_AP,
     {
      {"abs.int32.v", 1, 0x1.576563ff504f2p-19, 0x1.87a4b74bec486p-21},
      {"add.int32.v", 1, 0x1.c540d622d0a94p-19, 0x1.1a9ce06caea2ep-20},
      {"add_scalar.int32.v", 1, 0x1.46d1f68252d61p-19, 0x1.7df0c11a5a296p-21},
      {"and.int32.v", 1, 0x1.b83bf11ce33abp-19, 0x1.1890254e80e63p-20},
      {"and_scalar.int32.v", 1, 0x1.39aab5649519dp-19, 0x1.79cc792745009p-21},
      {"broadcast.int32.v", 1, 0x1.7e4088ed60267p-20, 0x1.877a76369587bp-22},
      {"div.int32.v", 1, 0x1.16402ab4d6d94p-12, 0x1.5e2cf77a7858p-14},
      {"div_scalar.int32.v", 1, 0x1.16402ab4d6d94p-12, 0x1.5e2cf77a7858p-14},
      {"eq.int32.v", 1, 0x1.07ce10d5cc61p-19, 0x1.764038bfb6ea2p-21},
      {"eq_scalar.int32.v", 1, 0x1.1acbf7ff6f504p-20, 0x1.807798d4ecb9ap-22},
      {"gt.int32.v", 1, 0x1.10cc2b1150b55p-19, 0x1.79151b924fd45p-21},
      {"gt_scalar.int32.v", 1, 0x1.2c837446d75d8p-20, 0x1.860bbb0cab2f5p-22},
      {"lt.int32.v", 1, 0x1.10cc2b1150b55p-19, 0x1.79151b924fd45p-21},
      {"lt_scalar.int32.v", 1, 0x1.2c837446d75d8p-20, 0x1.860bbb0cab2f5p-22},
      {"max.int32.v", 1, 0x1.61878d053f37bp-18, 0x1.d20bbe2b3ba56p-20},
      {"max_scalar.int32.v", 1, 0x1.cb7e907626c54p-19, 0x1.1db6a70fd57d7p-20},
      {"min.int32.v", 1, 0x1.61878d053f37bp-18, 0x1.d20bbe2b3ba56p-20},
      {"min_scalar.int32.v", 1, 0x1.cb7e907626c54p-19, 0x1.1db6a70fd57d7p-20},
      {"mul.int32.v", 1, 0x1.e726d161424b7p-15, 0x1.2f4568cdd031p-16},
      {"mul_scalar.int32.v", 1, 0x1.c8b9e50afe832p-17, 0x1.153801c2b09d7p-18},
      {"ne.int32.v", 1, 0x1.07ce10d5cc61p-19, 0x1.764038bfb6ea2p-21},
      {"not.int32.v", 1, 0x1.39aab5649519dp-19, 0x1.79cc792745009p-21},
      {"or.int32.v", 1, 0x1.b85e4d34b3885p-19, 0x1.18958e29ddbdep-20},
      {"or_scalar.int32.v", 1, 0x1.39aab5649519dp-19, 0x1.79cc792745009p-21},
      {"popcount.int32.v", 1, 0x1.1f3e2294435d4p-16, 0x1.4e99713ef2e6ep-18},
      {"redsum.int32.v", 2, 0x1.28bb64bb19ff3p-19, 0x1.4c498754a75cp-21},
      {"rotate_elem_l.int32.v", 1, 0x1.d132da6a3baa7p-20, 0x1.3917c24323a64p-21},
      {"rotate_elem_r.int32.v", 1, 0x1.d132da6a3baa7p-20, 0x1.3917c24323a64p-21},
      {"scaled_add.int32.v", 1, 0x1.1d050d49d956cp-16, 0x1.5bdf39dddc463p-18},
      {"shift_bits_l.int32.v", 3, 0x1.8d1de03abdc12p-18, 0x1.d120f839774e9p-20},
      {"shift_bits_r.int32.v", 3, 0x1.94f7ebabd7813p-18, 0x1.dc917990e1de8p-20},
      {"shift_elem_l.int32.v", 1, 0x1.d132da6a3baa7p-20, 0x1.3917c24323a64p-21},
      {"shift_elem_r.int32.v", 1, 0x1.d132da6a3baa7p-20, 0x1.3917c24323a64p-21},
      {"sub.int32.v", 1, 0x1.c98c591cda5efp-19, 0x1.1b49fbd84999ep-20},
      {"sub_scalar.int32.v", 1, 0x1.4a71ad054b076p-19, 0x1.7f14df5fefaa4p-21},
      {"xnor.int32.v", 1, 0x1.b83bf11ce33abp-19, 0x1.1890254e80e63p-20},
      {"xor.int32.v", 1, 0x1.bca9d02ebd3ep-19, 0x1.1942a99578b4ep-20},
      {"xor_scalar.int32.v", 1, 0x1.39aab5649519dp-19, 0x1.79cc792745009p-21},
     },
     0x1.7bd1e01ce781ep-11, 0x1.dbe48b68eceep-13,
     0x1.e1321ac086d48p-19, 0x1.42512b6e50879p-19,
     35540, 12004, 12004},
    {PimDeviceEnum::PIM_DEVICE_FULCRUM,
     {
      {"abs.int32.h", 1, 0x1.7a3119f20dc6p-18, 0x1.d7c345a3a2156p-21},
      {"add.int32.h", 1, 0x1.d415893f44fddp-18, 0x1.4abf4396c4b67p-20},
      {"add_scalar.int32.h", 1, 0x1.7a3119f20dc6p-18, 0x1.d7c345a3a2156p-21},
      {"and.int32.h", 1, 0x1.d415893f44fddp-18, 0x1.4abf4396c4b67p-20},
      {"and_scalar.int32.h", 1, 0x1.7a3119f20dc6p-18, 0x1.d7c345a3a2156p-21},
      {"broadcast.int32.h", 1, 0x1.204caaa4d68e4p-18, 0x1.1a080419babep-21},
      {"div.int32.h", 1, 0x1.55d07cb0d7d69p-15, 0x1.bb5e7a954de42p-19},
      {"div_scalar.int32.h", 1, 0x1.4a93eec730ef9p-15, 0x1.8befaa32d40e3p-19},
      {"eq.int32.h", 1, 0x1.d415893f44fddp-18, 0x1.4abf4396c4b67p-20},
      {"eq_scalar.int32.h", 1, 0x1.7a3119f20dc6p-18, 0x1.d7c345a3a2156p-21},
      {"gt.int32.h", 1, 0x1.d415893f44fddp-18, 0x1.4abf4396c4b67p-20},
      {"gt_scalar.int32.h", 1, 0x1.7a3119f20dc6p-18, 0x1.d7c345a3a2156p-21},
      {"lt.int32.h", 1, 0x1.d415893f44fddp-18, 0x1.4abf4396c4b67p-20},
      {"lt_scalar.int32.h", 1, 0x1.7a3119f20dc6p-18, 0x1.d7c345a3a2156p-21},
      {"max.int32.h", 1, 0x1.d415893f44fddp-18, 0x1.4abf4396c4b67p-20},
      {"max_scalar.int32.h", 1, 0x1.7a3119f20dc6p-18, 0x1.d7c345a3a2156p-21},
      {"min.int32.h", 1, 0x1.d415893f44fddp-18, 0x1.4abf4396c4b67p-20},
      {"min_scalar.int32.h", 1, 0x1.7a3119f20dc6p-18, 0x1.d7c345a3a2156p-21},
      {"mul.int32.h", 1, 0x1.d415893f44fddp-18, 0x1.4abf4396c4b67p-20},
      {"mul_scalar.int32.h", 1, 0x1.7a3119f20dc6p-18, 0x1.d7c345a3a2156p-21},
      {"ne.int32.h", 1, 0x1.d415893f44fddp-18, 0x1.4abf4396c4b67p-20},
      {"not.int32.h", 1, 0x1.7a3119f20dc6p-18, 0x1.d7c345a3a2156p-21},
      {"or.int32.h", 1, 0x1.d415893f44fddp-18, 0x1.4abf4396c4b67p-20},
      {"or_scalar.int32.h", 1, 0x1.7a3119f20dc6p-18, 0x1.d7c345a3a2156p-21},
      {"popcount.int32.h", 1, 0x1.fe0f7101157dbp-16, 0x1.41cdd6c9c8724p-19},
      {"redsum.int32.h", 2, 0x1.9130f0704c74p-18, 0x1.b74640bb70cd4p-21},
      {"rotate_elem_l.int32.h", 1, 0x1.c68741050b8b4p-19, 0x1.37c25c4830c33p-21},
      {"rotate_elem_r.int32.h", 1, 0x1.c68741050b8b4p-19, 0x1.37c25c4830c33p-21},
      {"scaled_add.int32.h", 1, 0x1.3596fae648afap-17, 0x1.6fd02d4b4a846p-20},
      {"shift_bits_l.int32.h", 3, 0x1.1ba4d3758a548p-16, 0x1.61d2743ab99p-19},
      {"shift_bits_r.int32.h", 3, 0x1.1ba4d3758a548p-16, 0x1.61d2743ab99p-19},
      {"shift_elem_l.int32.h", 1, 0x1.c68741050b8b4p-19, 0x1.37c25c4830c33p-21},
      {"shift_elem_r.int32.h", 1, 0x1.c68741050b8b4p-19, 0x1.37c25c4830c33p-21},
      {"sub.int32.h", 1, 0x1.d415893f44fddp-18, 0x1.4abf4396c4b67p-20},
      {"sub_scalar.int32.h", 1, 0x1.7a3119f20dc6p-18, 0x1.d7c345a3a2156p-21},
      {"xnor.int32.h", 1, 0x1.d415893f44fddp-18, 0x1.4abf4396c4b67p-20},
      {"xor.int32.h", 1, 0x1.d415893f44fddp-18, 0x1.4abf4396c4b67p-20},
      {"xor_scalar.int32.h", 1, 0x1.7a3119f20dc6p-18, 0x1.d7c345a3a2156p-21},
     },
     0x1.65ef605f77b91p-12, 0x1.853d4c1d24bd1p-15,
     0x1.5fbaea65fea65p-18, 0x1.42512b6e50879p-19,
     35540, 12004, 12004},
    {PimDeviceEnum::PIM_DEVICE_BANK_LEVEL,
     {
      {"abs.int32.h", 1, 0x1.2eb83ac38a0dap-17, 0x1.b0520fcca07cep-21},
      {"add.int32.h", 1, 0x1.9b89632e7c0ddp-17, 0x1.3d21e3b796b61p-20},
      {"add_scalar.int32.h", 1, 0x1.2eb83ac38a0dap-17, 0x1.b0520fcca07cep-21},
      {"and.int32.h", 1, 0x1.9b89632e7c0ddp-17, 0x1.3d21e3b796b61p-20},
      {"and_scalar.int32.h", 1, 0x1.2eb83ac38a0dap-17, 0x1.b0520fcca07cep-21},
      {"broadcast.int32.h", 1, 0x1.83ce24b1301bp-18, 0x1.ccc0b054271b3p-22},
      {"div.int32.h", 1, 0x1.e9127d202d3dcp-16, 0x1.ce3e96de9b21ep-20},
      {"div_scalar.int32.h", 1, 0x1.b2a9e8eab43dap-16, 0x1.6945bb0d54aa4p-20},
      {"eq.int32.h", 1, 0x1.9b89632e7c0ddp-17, 0x1.3d21e3b796b61p-20},
      {"eq_scalar.int32.h", 1, 0x1.2eb83ac38a0dap-17, 0x1.b0520fcca07cep-21},
      {"gt.int32.h", 1, 0x1.9b89632e7c0ddp-17, 0x1.3d21e3b796b61p-20},
      {"gt_scalar.int32.h", 1, 0x1.2eb83ac38a0dap-17, 0x1.b0520fcca07cep-21},
      {"lt.int32.h", 1, 0x1.9b89632e7c0ddp-17, 0x1.3d21e3b796b61p-20},
      {"lt_scalar.int32.h", 1, 0x1.2eb83ac38a0dap-17, 0x1.b0520fcca07cep-21},
      {"max.int32.h", 1, 0x1.9b89632e7c0ddp-17, 0x1.3d21e3b796b61p-20},
      {"max_scalar.int32.h", 1, 0x1.2eb83ac38a0dap-17, 0x1.b0520fcca07cep-21},
      {"min.int32.h", 1, 0x1.9b89632e7c0ddp-17, 0x1.3d21e3b796b61p-20},
      {"min_scalar.int32.h", 1, 0x1.2eb83ac38a0dap-17, 0x1.b0520fcca07cep-21},
      {"mul.int32.h", 1, 0x1.9b89632e7c0ddp-17, 0x1.3d21e3b796b61p-20},
      {"mul_scalar.int32.h", 1, 0x1.2eb83ac38a0dap-17, 0x1.b0520fcca07cep-21},
      {"ne.int32.h", 1, 0x1.9b89632e7c0ddp-17, 0x1.3d21e3b796b61p-20},
      {"not.int32.h", 1, 0x1.2eb83ac38a0dap-17, 0x1.b0520fcca07cep-21},
      {"or.int32.h", 1, 0x1.9b89632e7c0ddp-17, 0x1.3d21e3b796b61p-20},
      {"or_scalar.int32.h", 1, 0x1.2eb83ac38a0dap-17, 0x1.b0520fcca07cep-21},
      {"popcount.int32.h", 1, 0x1.2eb83ac38a0dap-17, 0x1.b0520fcca07cep-21},
      {"redsum.int32.h", 2, 0x1.e815283ede0a2p-18, 0x1.70672843486dep-21},
      {"rotate_elem_l.int32.h", 1, 0x1.c646d45864f98p-18, 0x1.3717a94ab751bp-21},
      {"rotate_elem_r.int32.h", 1, 0x1.c646d45864f98p-18, 0x1.3717a94ab751bp-21},
      {"scaled_add.int32.h", 1, 0x1.c14f7e51cf263p-17, 0x1.46ce7831a8129p-20},
      {"shift_bits_l.int32.h", 3, 0x1.c61458254f147p-16, 0x1.443d8bd9785dap-19},
      {"shift_bits_r.int32.h", 3, 0x1.c61458254f147p-16, 0x1.443d8bd9785dap-19},
      {"shift_elem_l.int32.h", 1, 0x1.c646d45864f98p-18, 0x1.3717a94ab751bp-21},
      {"shift_elem_r.int32.h", 1, 0x1.c646d45864f98p-18, 0x1.3717a94ab751bp-21},
      {"sub.int32.h", 1, 0x1.9b89632e7c0ddp-17, 0x1.3d21e3b796b61p-20},
      {"sub_scalar.int32.h", 1, 0x1.2eb83ac38a0dap-17, 0x1.b0520fcca07cep-21},
      {"xnor.int32.h", 1, 0x1.9b89632e7c0ddp-17, 0x1.3d21e3b796b61p-20},
      {"xor.int32.h", 1, 0x1.9b89632e7c0ddp-17, 0x1.3d21e3b796b61p-20},
      {"xor_scalar.int32.h", 1, 0x1.2eb83ac38a0dap-17, 0x1.b0520fcca07cep-21},
     },
     0x1.d63d31d19bc76p-12, 0x1.48ae9859d5048p-15,
     0x1.2169cbe560056p-17, 0x1.42512b6e50879p-19,
     35540, 12004, 12004},
    {PimDeviceEnum::PIM_DEVICE_SIMDRAM,
     {
      {"abs.int32.v", 1, 0x1.ae998e8f82f2fp-15, 0x1.cbc49c2d406a9p-17},
      {"add.int32.v", 1, 0x1.7d79e483b3e56p-15, 0x1.9ab51bd0133f4p-17},
      {"add_scalar.int32.v", 1, 0x1.9609b9899b6c3p-15, 0x1.b33cdbfea9d4ep-17},
      {"and.int32.v", 1, 0x1.ba1cfa6a477a2p-17, 0x1.e12c7c9741d42p-19},
      {"and_scalar.int32.v", 1, 0x1.0e2e2740f2caap-16, 0x1.21a5bea8ce157p-18},
      {"broadcast.int32.v", 1, 0x1.88fd505e786c9p-19, 0x1.887c02e9695b1p-21},
      {"div.int32.v", 1, 0x1.2846f99738c9ep-9, 0x1.3bb5fada4e148p-11},
      {"div_scalar.int32.v", 1, 0x1.2846f99738c9ep-9, 0x1.3bb5fada4e148p-11},
      {"eq.int32.v", 1, 0x1.a3daa15ceda8p-15, 0x1.caf1766d095c7p-17},
      {"eq_scalar.int32.v", 1, 0x1.bc6a7662d52ecp-15, 0x1.e379369b9ff23p-17},
      {"gt.int32.v", 1, 0x1.114021e1afbb8p-16, 0x1.24b6b6aea0e82p-18},
      {"gt_scalar.int32.v", 1, 0x1.425fcbed7ec91p-16, 0x1.55c6370bce139p-18},
      {"lt.int32.v", 1, 0x1.114021e1afbb8p-16, 0x1.24b6b6aea0e82p-18},
      {"lt_scalar.int32.v", 1, 0x1.425fcbed7ec91p-16, 0x1.55c6370bce139p-18},
      {"max.int32.v", 1, 0x1.d435ccc08d795p-15, 0x1.fb3cb8c8c1d32p-17},
      {"max_scalar.int32.v", 1, 0x1.737f75f94dd6ap-16, 0x1.86d5b768fb3efp-18},
      {"min.int32.v", 1, 0x1.d435ccc08d795p-15, 0x1.fb3cb8c8c1d32p-17},
      {"min_scalar.int32.v", 1, 0x1.737f75f94dd6ap-16, 0x1.86d5b768fb3efp-18},
      {"mul.int32.v", 1, 0x1.ff31818ae2a54p-11, 0x1.13b3a8726759dp-12},
      {"mul_scalar.int32.v", 1, 0x1.005d3f6da08edp-10, 0x1.1477e673dc0e7p-12},
      {"ne.int32.v", 1, 0x1.a3daa15ceda8p-15, 0x1.caf1766d095c7p-17},
      {"not.int32.v", 1, 0x1.88fd505e786c9p-18, 0x1.887c02e9695b1p-20},
      {"or.int32.v", 1, 0x1.ba1cfa6a477a2p-17, 0x1.e12c7c9741d42p-19},
      {"or_scalar.int32.v", 1, 0x1.0e2e2740f2caap-16, 0x1.21a5bea8ce157p-18},
      {"popcount.int32.v", 1, 0x1.2ff3ec291123fp-12, 0x1.45da767de7d81p-14},
      {"redsum.int32.v", 2, 0x1.1d83f3436fe98p-19, 0x1.e14a3616ab44p-21},
      {"rotate_elem_l.int32.v", 1, 0x1.d132da6a3baa7p-20, 0x1.3917c24323a64p-21},
      {"rotate_elem_r.int32.v", 1, 0x1.d132da6a3baa7p-20, 0x1.3917c24323a64p-21},
      {"scaled_add.int32.v", 1, 0x1.0c490e91be2ep-10, 0x1.214d8f525ca86p-12},
      {"shift_bits_l.int32.v", 3, 0x1.26bdfc46da517p-17, 0x1.265d022f0f045p-19},
      {"shift_bits_r.int32.v", 3, 0x1.2ff3ec291123fp-17, 0x1.2f8fea40877c7p-19},
      {"shift_elem_l.int32.v", 1, 0x1.d132da6a3baa7p-20, 0x1.3917c24323a64p-21},
      {"shift_elem_r.int32.v", 1, 0x1.d132da6a3baa7p-20, 0x1.3917c24323a64p-21},
      {"sub.int32.v", 1, 0x1.ae998e8f82f2fp-15, 0x1.cbc49c2d406a9p-17},
      {"sub_scalar.int32.v", 1, 0x1.c72963956a79cp-15, 0x1.e44c5c5bd7003p-17},
      {"xnor.int32.v", 1, 0x1.642590d59d226p-15, 0x1.81691da007f4cp-17},
      {"xor.int32.v", 1, 0x1.3305e6c9ce14dp-15, 0x1.50599d42dac96p-17},
      {"xor_scalar.int32.v", 1, 0x1.4b95bbcfb59bap-15, 0x1.68e15d71715fp-17},
     },
     0x1.1acfe1463b5ecp-7, 0x1.2f0c31d3bca0cp-9,
     0x1.e1321ac086d48p-19, 0x1.42512b6e50879p-19,
     35540, 12004, 12004},
    };
    // clang-format on
    return golden;
}

/** Compare the active device's stats with @p g exactly; on a mismatch
 *  the failure message holds the actual table in the golden format. */
void
expectPerCommandGolden(const TargetGolden &g, const char *mode)
{
    const auto table =
        PimSim::instance().device()->stats().cmdStats();
    const PimRunStats s = pimGetStats();
    bool match = table.size() == g.cmds.size() &&
        s.kernel_sec == g.kernel_sec && s.kernel_j == g.kernel_j &&
        s.copy_sec == g.copy_sec && s.copy_j == g.copy_j &&
        s.host_sec == 0.0 && s.bytes_h2d == g.bytes_h2d &&
        s.bytes_d2h == g.bytes_d2h && s.bytes_d2d == g.bytes_d2d;
    for (const CmdGolden &row : g.cmds) {
        const auto it = table.find(row.key);
        match = match && it != table.end() &&
            it->second.count == row.count &&
            it->second.runtime_sec == row.runtime_sec &&
            it->second.energy_j == row.energy_j;
    }
    if (match)
        return;
    std::ostringstream actual;
    actual << std::hexfloat;
    for (const auto &[key, stat] : table)
        actual << "    {\"" << key << "\", " << stat.count << ", "
               << stat.runtime_sec << ", " << stat.energy_j << "},\n";
    actual << "    totals " << s.kernel_sec << ", " << s.kernel_j << ", "
           << s.copy_sec << ", " << s.copy_j << ", " << std::dec
           << s.bytes_h2d << ", " << s.bytes_d2h << ", " << s.bytes_d2d
           << ", host_sec " << std::hexfloat << s.host_sec << "\n";
    ADD_FAILURE() << mode << ": per-command modeled stats differ from "
                  << "the golden table; actual:\n"
                  << actual.str();
}

} // namespace

TEST_P(PimApiTest, PerCommandModeledCostGolden)
{
    // Analytical transfer timing: the golden holds under every
    // PIMEVAL_MEM_BACKEND setting.
    pimDeleteDevice();
    PimDeviceConfig config = smallConfig(GetParam());
    config.mem_backend = PimMemBackend::PIM_MEM_BACKEND_ANALYTICAL;
    ASSERT_EQ(pimCreateDeviceFromConfig(config), PimStatus::PIM_OK);
    const PimDeviceEnum device = GetParam();
    const auto &all = perCommandGolden();
    const auto it = std::find_if(
        all.begin(), all.end(),
        [device](const TargetGolden &g) { return g.device == device; });
    const TargetGolden empty{device, {}, 0, 0, 0, 0, 0, 0, 0};
    const TargetGolden &g = it != all.end() ? *it : empty;
    for (const bool regions : {false, true}) {
        ASSERT_EQ(pimResetStats(), PimStatus::PIM_OK);
        issueEveryDeviceCommand(regions);
        expectPerCommandGolden(g, regions ? "fusion regions" : "unfused");
    }
}

TEST_P(PimApiTest, CostMemoExactUnderEviction)
{
    // Half again as many distinct scalars as the device's cost memo
    // holds, issued twice: the memo must evict in both rounds, and
    // every recorded cost must still be exactly what the model
    // computes for the same profile.
    constexpr uint64_t n = 3001;
    constexpr size_t kScalars =
        PimCostMemo::kCapacity + PimCostMemo::kCapacity / 2;
    const PimObjId a = pimAlloc(PimAllocEnum::PIM_ALLOC_AUTO, n, 32,
                                PimDataType::PIM_INT32);
    const PimObjId d = pimAllocAssociated(32, a, PimDataType::PIM_INT32);
    ASSERT_GE(a, 0);
    ASSERT_GE(d, 0);
    PimDevice *dev = PimSim::instance().device();
    const PimDataObject *obj = dev->object(a);
    PimOpProfile profile;
    profile.cmd = PimCmdEnum::kMulScalar;
    profile.bits = 32;
    profile.num_elements = n;
    profile.max_elems_per_core = obj->maxElementsPerRegion();
    profile.cores_used = obj->numCoresUsed();

    ASSERT_EQ(pimResetStats(), PimStatus::PIM_OK);
    double misses0 = 0.0; // unset until the first miss registers it
    pimGetMetric("cache.cost_memo.miss", &misses0);
    PimCmdStat want;
    for (int round = 0; round < 2; ++round) {
        for (size_t i = 0; i < kScalars; ++i) {
            // An odd multiplier permutes the 32-bit values: distinct.
            const uint64_t scalar = (i * 2654435761u + 1) & 0xffffffffu;
            ASSERT_EQ(pimMulScalar(a, d, scalar), PimStatus::PIM_OK);
            profile.scalar = scalar;
            const PimOpCost cost = dev->model()->costOp(profile);
            ++want.count;
            want.runtime_sec += cost.runtime_sec;
            want.energy_j += cost.energy_j;
        }
    }
    // Under PIMEVAL_FUSION=1 the last commands wait in the window.
    ASSERT_EQ(pimSync(), PimStatus::PIM_OK);
    const auto table = dev->stats().cmdStats();
    ASSERT_EQ(table.size(), 1u);
    const PimCmdStat &got = table.begin()->second;
    EXPECT_EQ(got.count, want.count);
    EXPECT_EQ(got.runtime_sec, want.runtime_sec);
    EXPECT_EQ(got.energy_j, want.energy_j);
    double misses = 0.0;
    ASSERT_TRUE(pimGetMetric("cache.cost_memo.miss", &misses));
    // Round one misses on every scalar; round two on each one evicted.
    EXPECT_GT(misses - misses0, static_cast<double>(kScalars));
    pimFree(a);
    pimFree(d);
}

TEST_P(PimApiTest, OpScalarEntryPoint)
{
    // The consolidated entry point rejects non-scalar commands and
    // reports through the last-error state.
    pimClearLastError();
    EXPECT_EQ(pimOpScalar(PimCmdEnum::kAdd, 0, 0, 1),
              PimStatus::PIM_ERROR);
    EXPECT_EQ(pimGetLastError(), PimStatus::PIM_ERROR);
    EXPECT_NE(
        std::string(pimGetLastErrorMessage()).find("pimOpScalar"),
        std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(
    Devices, PimApiTest,
    ::testing::Values(PimDeviceEnum::PIM_DEVICE_BITSIMD_V_AP,
                      PimDeviceEnum::PIM_DEVICE_FULCRUM,
                      PimDeviceEnum::PIM_DEVICE_BANK_LEVEL,
                      PimDeviceEnum::PIM_DEVICE_SIMDRAM),
    [](const auto &info) {
        switch (info.param) {
          case PimDeviceEnum::PIM_DEVICE_BITSIMD_V_AP:
            return "BitSerial";
          case PimDeviceEnum::PIM_DEVICE_FULCRUM:
            return "Fulcrum";
          case PimDeviceEnum::PIM_DEVICE_SIMDRAM:
            return "Simdram";
          default:
            return "BankLevel";
        }
    });
