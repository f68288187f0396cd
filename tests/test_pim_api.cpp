/**
 * @file
 * Functional tests of the public PIM API, parameterized across all
 * three simulated architectures and multiple data types — the same
 * program must produce identical results everywhere (the portability
 * claim of the paper's API).
 */

#include <gtest/gtest.h>

#include <numeric>

#include "core/pim_api.h"
#include "core/pim_error.h"
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
