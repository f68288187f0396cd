/**
 * @file
 * Functional tests of the public PIM API, parameterized across all
 * three simulated architectures and multiple data types — the same
 * program must produce identical results everywhere (the portability
 * claim of the paper's API).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <map>
#include <numeric>
#include <sstream>
#include <string>

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

namespace {

constexpr PimDataType kEveryType[] = {
    PimDataType::PIM_BOOL,   PimDataType::PIM_INT8,
    PimDataType::PIM_INT16,  PimDataType::PIM_INT32,
    PimDataType::PIM_INT64,  PimDataType::PIM_UINT8,
    PimDataType::PIM_UINT16, PimDataType::PIM_UINT32,
    PimDataType::PIM_UINT64,
};

/** Host bytes per element of a @p bits-wide type. */
unsigned
laneBytes(unsigned bits)
{
    return (bits + 7) / 8;
}

/**
 * @p n packed host lanes of a @p bits-wide type. Random bytes, with
 * every lane i % 4 == 0 all ones (-1 signed, the maximum unsigned),
 * i % 4 == 1 the top bit alone (the most negative signed value) and
 * i % 4 == 2 random with the top bit set. Bool lanes are the bytes
 * 0-255 in turn.
 */
std::vector<uint8_t>
hostLanes(uint64_t n, unsigned bits, uint64_t seed)
{
    const unsigned stride = laneBytes(bits);
    Prng rng(seed);
    std::vector<uint8_t> host = rng.byteVector(n * stride);
    for (uint64_t i = 0; i < n; ++i) {
        uint8_t *lane = host.data() + i * stride;
        if (bits == 1) {
            lane[0] = static_cast<uint8_t>(i);
        } else if (i % 4 == 0) {
            std::fill(lane, lane + stride, 0xff);
        } else if (i % 4 == 1) {
            std::fill(lane, lane + stride, 0);
            lane[stride - 1] = 0x80;
        } else if (i % 4 == 2) {
            lane[stride - 1] |= 0x80;
        }
    }
    return host;
}

/** The reference device value of host lane @p i: its bytes
 *  zero-extended to 64 bits, then masked to the element width. */
uint64_t
laneRef(const std::vector<uint8_t> &host, uint64_t i, unsigned bits)
{
    const unsigned stride = laneBytes(bits);
    uint64_t v = 0;
    for (unsigned k = 0; k < stride; ++k)
        v |= uint64_t{host[i * stride + k]} << (8 * k);
    return bits == 64 ? v : v & ((1ull << bits) - 1);
}

/** Device lanes of @p obj against @p want, and a D2H of [lo, hi)
 *  against their low bytes. */
void
expectLanes(PimObjId obj, const std::vector<uint64_t> &want,
            unsigned bits, uint64_t lo, uint64_t hi)
{
    const unsigned stride = laneBytes(bits);
    std::vector<uint8_t> out((hi - lo) * stride, 0xcd);
    ASSERT_EQ(pimCopyDeviceToHost(obj, out.data(), lo, hi),
              PimStatus::PIM_OK);
    // The D2H flushed any captured copy: the lanes are in place.
    const std::vector<uint64_t> &raw =
        PimSim::instance().device()->object(obj)->raw();
    ASSERT_EQ(raw.size(), want.size());
    for (uint64_t i = 0; i < want.size(); ++i) {
        ASSERT_EQ(raw[i], want[i]) << "lane " << i;
    }
    for (uint64_t i = lo; i < hi; ++i) {
        for (unsigned k = 0; k < stride; ++k) {
            ASSERT_EQ(out[(i - lo) * stride + k],
                      static_cast<uint8_t>(want[i] >> (8 * k)))
                << "element " << i << " byte " << k;
        }
    }
}

} // namespace

TEST_P(PimApiTest, HostLanesZeroExtendEveryType)
{
    // Every element type through a full and a ranged [3, n - 2) H2D,
    // each read back by D2H. The sizes cover a vector body, its
    // remainder and the pool's 2,048-element split. A device lane
    // holds the host lane zero-extended and masked to the element
    // width, whatever its top bit; D2H returns the lane's low bytes.
    for (const PimDataType type : kEveryType) {
        const unsigned bits = pimBitsOfDataType(type);
        for (const uint64_t n : {uint64_t{1}, uint64_t{7}, uint64_t{8},
                                 uint64_t{9}, uint64_t{33},
                                 uint64_t{1000}, uint64_t{3001}}) {
            SCOPED_TRACE(pimDataTypeName(type) + " n=" +
                         std::to_string(n));
            const PimObjId obj =
                pimAlloc(PimAllocEnum::PIM_ALLOC_AUTO, n, bits, type);
            ASSERT_GE(obj, 0);
            const std::vector<uint8_t> full = hostLanes(n, bits, n);
            std::vector<uint64_t> want(n);
            for (uint64_t i = 0; i < n; ++i)
                want[i] = laneRef(full, i, bits);
            ASSERT_EQ(pimCopyHostToDevice(full.data(), obj),
                      PimStatus::PIM_OK);
            expectLanes(obj, want, bits, 0, n);
            if (n > 5) {
                const std::vector<uint8_t> part =
                    hostLanes(n - 5, bits, n + 1);
                for (uint64_t i = 3; i < n - 2; ++i)
                    want[i] = laneRef(part, i - 3, bits);
                ASSERT_EQ(pimCopyHostToDevice(part.data(), obj, 3, n - 2),
                          PimStatus::PIM_OK);
                expectLanes(obj, want, bits, 3, n - 2);
                expectLanes(obj, want, bits, 0, n);
            }
            ASSERT_EQ(pimFree(obj), PimStatus::PIM_OK);
        }
    }
}

namespace {

/** Result lanes and modeled stats of one runHostLaneChain. */
struct HostLaneChainOutcome
{
    std::vector<uint8_t> acc;
    PimRunStats stats;
    std::map<std::string, uint64_t> op_mix;
};

/**
 * Per column pair j: copy column 2j into staging object sa and
 * scaled-add it into acc by scalars[j], then copy column 2j + 1 into
 * sb and add it. With @p fused the sweep is one fusion region: the
 * copies capture as loads, and each one the next copy shadows elides,
 * so the tape reads its host lanes directly (the inline host-source
 * scaled-add, and a host-source operand of the add).
 */
HostLaneChainOutcome
runHostLaneChain(PimDataType type, unsigned bits, uint64_t m,
                 const std::vector<uint8_t> &cols,
                 const std::vector<uint64_t> &scalars, bool fused)
{
    const unsigned stride = laneBytes(bits);
    HostLaneChainOutcome o;
    const PimObjId sa = pimAlloc(PimAllocEnum::PIM_ALLOC_AUTO, m, bits,
                                 type);
    const PimObjId sb = pimAllocAssociated(bits, sa, type);
    const PimObjId acc = pimAllocAssociated(bits, sa, type);
    EXPECT_TRUE(sa >= 0 && sb >= 0 && acc >= 0);
    pimResetStats();
    if (fused)
        pimBeginFusion();
    pimBroadcastInt(acc, 0);
    for (size_t j = 0; j < scalars.size(); ++j) {
        pimCopyHostToDevice(cols.data() + 2 * j * m * stride, sa);
        pimScaledAdd(sa, acc, acc, scalars[j]);
        pimCopyHostToDevice(cols.data() + (2 * j + 1) * m * stride, sb);
        pimAdd(sb, acc, acc);
    }
    if (fused)
        pimEndFusion();
    o.acc.assign(m * stride, 0);
    pimCopyDeviceToHost(acc, o.acc.data());
    o.stats = pimGetStats();
    o.op_mix = pimGetOpMix();
    for (const PimObjId id : {sa, sb, acc})
        pimFree(id);
    return o;
}

} // namespace

TEST_P(PimApiTest, CapturedCopyChainsEveryWidth)
{
    // Captured copies feeding scaled-add and add at every element
    // width, signed and unsigned, with top-bit host lanes: fused and
    // unfused runs agree bit for bit on results and modeled stats,
    // and both match a scalar reference that zero-extends each lane
    // and masks to the element width. 1,537 lanes leave a tail past
    // the fusion tile; 20 column pairs cross the fusion window.
    constexpr uint64_t m = 1537;
    constexpr size_t kPairs = 20;
    for (const PimDataType type : kEveryType) {
        SCOPED_TRACE(pimDataTypeName(type));
        const unsigned bits = pimBitsOfDataType(type);
        const unsigned stride = laneBytes(bits);
        const uint64_t mask = bits == 64 ? ~0ull : (1ull << bits) - 1;
        const std::vector<uint8_t> cols =
            hostLanes(2 * kPairs * m, bits, bits);
        std::vector<uint64_t> scalars(kPairs);
        Prng rng(bits + 1);
        for (uint64_t &s : scalars)
            s = rng.next(); // top bits set half the time: -s signed

        const HostLaneChainOutcome unfused =
            runHostLaneChain(type, bits, m, cols, scalars, false);
        const HostLaneChainOutcome fused =
            runHostLaneChain(type, bits, m, cols, scalars, true);
        EXPECT_EQ(unfused.acc, fused.acc);
        EXPECT_EQ(unfused.stats.kernel_sec, fused.stats.kernel_sec);
        EXPECT_EQ(unfused.stats.kernel_j, fused.stats.kernel_j);
        EXPECT_EQ(unfused.stats.copy_sec, fused.stats.copy_sec);
        EXPECT_EQ(unfused.stats.copy_j, fused.stats.copy_j);
        EXPECT_EQ(unfused.stats.bytes_h2d, fused.stats.bytes_h2d);
        EXPECT_EQ(unfused.stats.bytes_d2h, fused.stats.bytes_d2h);
        EXPECT_EQ(unfused.op_mix, fused.op_mix);

        for (uint64_t i = 0; i < m; ++i) {
            uint64_t want = 0;
            for (size_t j = 0; j < kPairs; ++j) {
                want += laneRef(cols, 2 * j * m + i, bits) *
                        (scalars[j] & mask) +
                    laneRef(cols, (2 * j + 1) * m + i, bits);
            }
            want &= mask;
            uint64_t got = 0;
            for (unsigned k = 0; k < stride; ++k)
                got |= uint64_t{fused.acc[i * stride + k]} << (8 * k);
            ASSERT_EQ(got, want) << "lane " << i;
        }
    }
}

TEST_P(PimApiTest, CopyCostMemoExactUnderEviction)
{
    // The copy twin of CostMemoExactUnderEviction: ranged H2D and D2H
    // copies of half again as many distinct lengths as the device's
    // cost memo holds, issued twice, then the four element shifts.
    // The memo evicts, and every recorded copy and shift must still
    // cost exactly what the model's costCopy computes, summed in
    // issue order.
    constexpr uint64_t n = 3001;
    constexpr uint64_t kLengths =
        PimCostMemo::kCapacity + PimCostMemo::kCapacity / 2;
    const PimObjId a = pimAlloc(PimAllocEnum::PIM_ALLOC_AUTO, n, 32,
                                PimDataType::PIM_INT32);
    ASSERT_GE(a, 0);
    PimDevice *dev = PimSim::instance().device();
    const PerfEnergyModel &model = *dev->model();
    std::vector<int> host(n, -3);

    ASSERT_EQ(pimResetStats(), PimStatus::PIM_OK);
    double misses0 = 0.0; // unset until the first miss registers it
    pimGetMetric("cache.cost_memo.miss", &misses0);
    PimRunStats want;
    const auto add = [&want](const PimOpCost &cost) {
        want.copy_sec += cost.runtime_sec;
        want.copy_j += cost.energy_j;
    };
    for (int round = 0; round < 2; ++round) {
        for (uint64_t len = 1; len <= kLengths; ++len) {
            const uint64_t bytes = len * sizeof(int);
            ASSERT_EQ(pimCopyHostToDevice(host.data(), a, 0, len),
                      PimStatus::PIM_OK);
            add(model.costCopy(PimCopyEnum::PIM_COPY_H2D, bytes));
            want.bytes_h2d += bytes;
            ASSERT_EQ(pimCopyDeviceToHost(a, host.data(), 0, len),
                      PimStatus::PIM_OK);
            add(model.costCopy(PimCopyEnum::PIM_COPY_D2H, bytes));
            want.bytes_d2h += bytes;
        }
    }
    for (auto fn : {pimShiftElementsLeft, pimShiftElementsRight,
                    pimRotateElementsLeft, pimRotateElementsRight})
        ASSERT_EQ(fn(a), PimStatus::PIM_OK);

    const PimRunStats got = pimGetStats();
    EXPECT_EQ(got.copy_sec, want.copy_sec);
    EXPECT_EQ(got.copy_j, want.copy_j);
    EXPECT_EQ(got.bytes_h2d, want.bytes_h2d);
    EXPECT_EQ(got.bytes_d2h, want.bytes_d2h);
    EXPECT_EQ(got.bytes_d2d, 0u);

    // Each shift rewrites the object in place and fixes one boundary
    // element per core through the host interface.
    const PimDataObject *obj = dev->object(a);
    const uint64_t boundary = obj->numCoresUsed() * sizeof(int);
    PimOpCost shift =
        model.costCopy(PimCopyEnum::PIM_COPY_D2D, obj->payloadBytes());
    shift += model.costCopy(PimCopyEnum::PIM_COPY_D2H, boundary);
    shift += model.costCopy(PimCopyEnum::PIM_COPY_H2D, boundary);
    const auto table = dev->stats().cmdStats();
    ASSERT_EQ(table.size(), 4u);
    for (const auto &[key, stat] : table) {
        EXPECT_EQ(stat.count, 1u) << key;
        EXPECT_EQ(stat.runtime_sec, shift.runtime_sec) << key;
        EXPECT_EQ(stat.energy_j, shift.energy_j) << key;
    }

    double misses = 0.0;
    ASSERT_TRUE(pimGetMetric("cache.cost_memo.miss", &misses));
    // Round one misses on every (direction, length); round two on
    // each one evicted.
    EXPECT_GT(misses - misses0, static_cast<double>(2 * kLengths));
    pimFree(a);
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

/** Bytes counted so far by copy.bytes_h2d, _d2h and _d2d (a metric
 *  reads 0 until its first copy registers it). */
std::array<double, 3>
copyMetricBytes()
{
    std::array<double, 3> bytes{};
    pimGetMetric("copy.bytes_h2d", &bytes[0]);
    pimGetMetric("copy.bytes_d2h", &bytes[1]);
    pimGetMetric("copy.bytes_d2d", &bytes[2]);
    return bytes;
}

/** The copy metrics grew by exactly @p s's byte totals since
 *  @p before. */
void
expectCopyMetricsMatchStats(const std::array<double, 3> &before,
                            const PimRunStats &s, const char *mode)
{
    const std::array<double, 3> after = copyMetricBytes();
    EXPECT_EQ(after[0] - before[0], static_cast<double>(s.bytes_h2d))
        << mode;
    EXPECT_EQ(after[1] - before[1], static_cast<double>(s.bytes_d2h))
        << mode;
    EXPECT_EQ(after[2] - before[2], static_cast<double>(s.bytes_d2d))
        << mode;
}

/**
 * The whole stats record of one command issued alone: the command
 * key it counts under and the run totals it leaves behind.
 */
struct CmdRecordGolden
{
    const char *call;
    double scale;
    const char *key; ///< "" for a copy
    double kernel_sec;
    double kernel_j;
    double copy_sec;
    double copy_j;
    uint64_t bytes_h2d;
    uint64_t bytes_d2h;
    uint64_t bytes_d2d;
};

struct TargetRecordGolden
{
    PimDeviceEnum device;
    std::vector<CmdRecordGolden> rows;
};

/** Exact records of the copies, element shifts and ranged reduction
 *  on n = 3,001 int32 elements at modeling scales 1 and 1,024, under
 *  analytical transfer timing. The scaled rows pin the unscaled terms
 *  (an element shift's per-core boundary fix-up, a ranged sum's range
 *  fraction) next to the scaled payload. */
const std::vector<TargetRecordGolden> &
cmdRecordGolden()
{
    // clang-format off
    static const std::vector<TargetRecordGolden> golden = {
    {PimDeviceEnum::PIM_DEVICE_BITSIMD_V_AP,
     {
      {"pimCopyDeviceToHost", 1, "", 0x0p+0, 0x0p+0, 0x1.f77bf7f31637ap-22, 0x1.002c3bcd31659p-21, 0, 12004, 0},
      {"pimCopyDeviceToHost[17,2900)", 1, "", 0x0p+0, 0x0p+0, 0x1.e3afe83a91766p-22, 0x1.ec3335398d0f2p-22, 0, 11532, 0},
      {"pimCopyDeviceToDevice", 1, "", 0x0p+0, 0x0p+0, 0x1.cfdb417c18a1bp-20, 0x1.366cf64d3de03p-21, 0, 0, 12004},
      {"pimShiftElementsLeft", 1, "shift_elem_l.int32.v", 0x1.d132da6a3baa7p-20, 0x1.3917c24323a64p-21, 0x0p+0, 0x0p+0, 0, 0, 0},
      {"pimShiftElementsRight", 1, "shift_elem_r.int32.v", 0x1.d132da6a3baa7p-20, 0x1.3917c24323a64p-21, 0x0p+0, 0x0p+0, 0, 0, 0},
      {"pimRotateElementsLeft", 1, "rotate_elem_l.int32.v", 0x1.d132da6a3baa7p-20, 0x1.3917c24323a64p-21, 0x0p+0, 0x0p+0, 0, 0, 0},
      {"pimRotateElementsRight", 1, "rotate_elem_r.int32.v", 0x1.d132da6a3baa7p-20, 0x1.3917c24323a64p-21, 0x0p+0, 0x0p+0, 0, 0, 0},
      {"pimRedSumRanged[5,2000)", 1, "redsum.int32.v", 0x1.d9f6a4ca1c339p-21, 0x1.0960a42353719p-22, 0x0p+0, 0x0p+0, 0, 0, 0},
      {"pimCopyDeviceToHost", 1024, "", 0x0p+0, 0x0p+0, 0x1.f77bf7f31637ap-12, 0x1.002c3bcd31659p-11, 0, 12292096, 0},
      {"pimCopyDeviceToHost[17,2900)", 1024, "", 0x0p+0, 0x0p+0, 0x1.e3afe83a91766p-12, 0x1.ec3335398d0f2p-12, 0, 11808768, 0},
      {"pimCopyDeviceToDevice", 1024, "", 0x0p+0, 0x0p+0, 0x1.c522c58dfa655p-10, 0x1.35b407171ac0dp-11, 0, 0, 12292096},
      {"pimShiftElementsLeft", 1024, "shift_elem_l.int32.v", 0x1.c5231b7435ee1p-10, 0x1.35b4b1ca183a4p-11, 0x0p+0, 0x0p+0, 0, 0, 0},
      {"pimShiftElementsRight", 1024, "shift_elem_r.int32.v", 0x1.c5231b7435ee1p-10, 0x1.35b4b1ca183a4p-11, 0x0p+0, 0x0p+0, 0, 0, 0},
      {"pimRotateElementsLeft", 1024, "rotate_elem_l.int32.v", 0x1.c5231b7435ee1p-10, 0x1.35b4b1ca183a4p-11, 0x0p+0, 0x0p+0, 0, 0, 0},
      {"pimRotateElementsRight", 1024, "rotate_elem_r.int32.v", 0x1.c5231b7435ee1p-10, 0x1.35b4b1ca183a4p-11, 0x0p+0, 0x0p+0, 0, 0, 0},
      {"pimRedSumRanged[5,2000)", 1024, "redsum.int32.v", 0x1.5b9aa35b3a2edp-11, 0x1.f0549656f243cp-13, 0x0p+0, 0x0p+0, 0, 0, 0},
     }},
    {PimDeviceEnum::PIM_DEVICE_FULCRUM,
     {
      {"pimCopyDeviceToHost", 1, "", 0x0p+0, 0x0p+0, 0x1.f77bf7f31637ap-22, 0x1.002c3bcd31659p-21, 0, 12004, 0},
      {"pimCopyDeviceToHost[17,2900)", 1, "", 0x0p+0, 0x0p+0, 0x1.e3afe83a91766p-22, 0x1.ec3335398d0f2p-22, 0, 11532, 0},
      {"pimCopyDeviceToDevice", 1, "", 0x0p+0, 0x0p+0, 0x1.c6315ac982c9p-19, 0x1.366cf64d3de03p-21, 0, 0, 12004},
      {"pimShiftElementsLeft", 1, "shift_elem_l.int32.h", 0x1.c68741050b8b4p-19, 0x1.37c25c4830c33p-21, 0x0p+0, 0x0p+0, 0, 0, 0},
      {"pimShiftElementsRight", 1, "shift_elem_r.int32.h", 0x1.c68741050b8b4p-19, 0x1.37c25c4830c33p-21, 0x0p+0, 0x0p+0, 0, 0, 0},
      {"pimRotateElementsLeft", 1, "rotate_elem_l.int32.h", 0x1.c68741050b8b4p-19, 0x1.37c25c4830c33p-21, 0x0p+0, 0x0p+0, 0, 0, 0},
      {"pimRotateElementsRight", 1, "rotate_elem_r.int32.h", 0x1.c68741050b8b4p-19, 0x1.37c25c4830c33p-21, 0x0p+0, 0x0p+0, 0, 0, 0},
      {"pimRedSumRanged[5,2000)", 1, "redsum.int32.h", 0x1.4068292b91b56p-19, 0x1.5ed25790fbb3bp-22, 0x0p+0, 0x0p+0, 0, 0, 0},
      {"pimCopyDeviceToHost", 1024, "", 0x0p+0, 0x0p+0, 0x1.f77bf7f31637ap-12, 0x1.002c3bcd31659p-11, 0, 12292096, 0},
      {"pimCopyDeviceToHost[17,2900)", 1024, "", 0x0p+0, 0x0p+0, 0x1.e3afe83a91766p-12, 0x1.ec3335398d0f2p-12, 0, 11808768, 0},
      {"pimCopyDeviceToDevice", 1024, "", 0x0p+0, 0x0p+0, 0x1.c522c58dfa655p-9, 0x1.35b407171ac0dp-11, 0, 0, 12292096},
      {"pimShiftElementsLeft", 1024, "shift_elem_l.int32.h", 0x1.c522db0789479p-9, 0x1.35b45c70997d9p-11, 0x0p+0, 0x0p+0, 0, 0, 0},
      {"pimShiftElementsRight", 1024, "shift_elem_r.int32.h", 0x1.c522db0789479p-9, 0x1.35b45c70997d9p-11, 0x0p+0, 0x0p+0, 0, 0, 0},
      {"pimRotateElementsLeft", 1024, "rotate_elem_l.int32.h", 0x1.c522db0789479p-9, 0x1.35b45c70997d9p-11, 0x0p+0, 0x0p+0, 0, 0, 0},
      {"pimRotateElementsRight", 1024, "rotate_elem_r.int32.h", 0x1.c522db0789479p-9, 0x1.35b45c70997d9p-11, 0x0p+0, 0x0p+0, 0, 0, 0},
      {"pimRedSumRanged[5,2000)", 1024, "redsum.int32.h", 0x1.3fa947b6724e4p-9, 0x1.5e0e1a7c66adap-12, 0x0p+0, 0x0p+0, 0, 0, 0},
     }},
    {PimDeviceEnum::PIM_DEVICE_BANK_LEVEL,
     {
      {"pimCopyDeviceToHost", 1, "", 0x0p+0, 0x0p+0, 0x1.f77bf7f31637ap-22, 0x1.002c3bcd31659p-21, 0, 12004, 0},
      {"pimCopyDeviceToHost[17,2900)", 1, "", 0x0p+0, 0x0p+0, 0x1.e3afe83a91766p-22, 0x1.ec3335398d0f2p-22, 0, 11532, 0},
      {"pimCopyDeviceToDevice", 1, "", 0x0p+0, 0x0p+0, 0x1.c6315ac982c9p-18, 0x1.366cf64d3de03p-21, 0, 0, 12004},
      {"pimShiftElementsLeft", 1, "shift_elem_l.int32.h", 0x1.c646d45864f98p-18, 0x1.3717a94ab751bp-21, 0x0p+0, 0x0p+0, 0, 0, 0},
      {"pimShiftElementsRight", 1, "shift_elem_r.int32.h", 0x1.c646d45864f98p-18, 0x1.3717a94ab751bp-21, 0x0p+0, 0x0p+0, 0, 0, 0},
      {"pimRotateElementsLeft", 1, "rotate_elem_l.int32.h", 0x1.c646d45864f98p-18, 0x1.3717a94ab751bp-21, 0x0p+0, 0x0p+0, 0, 0, 0},
      {"pimRotateElementsRight", 1, "rotate_elem_r.int32.h", 0x1.c646d45864f98p-18, 0x1.3717a94ab751bp-21, 0x0p+0, 0x0p+0, 0, 0, 0},
      {"pimRedSumRanged[5,2000)", 1, "redsum.int32.h", 0x1.85cd4244a7b23p-19, 0x1.26388f59318b4p-22, 0x0p+0, 0x0p+0, 0, 0, 0},
      {"pimCopyDeviceToHost", 1024, "", 0x0p+0, 0x0p+0, 0x1.f77bf7f31637ap-12, 0x1.002c3bcd31659p-11, 0, 12292096, 0},
      {"pimCopyDeviceToHost[17,2900)", 1024, "", 0x0p+0, 0x0p+0, 0x1.e3afe83a91766p-12, 0x1.ec3335398d0f2p-12, 0, 11808768, 0},
      {"pimCopyDeviceToDevice", 1024, "", 0x0p+0, 0x0p+0, 0x1.c522c58dfa655p-8, 0x1.35b407171ac0dp-11, 0, 0, 12292096},
      {"pimShiftElementsLeft", 1024, "shift_elem_l.int32.h", 0x1.c522caec5e1ddp-8, 0x1.35b431c3da1f2p-11, 0x0p+0, 0x0p+0, 0, 0, 0},
      {"pimShiftElementsRight", 1024, "shift_elem_r.int32.h", 0x1.c522caec5e1ddp-8, 0x1.35b431c3da1f2p-11, 0x0p+0, 0x0p+0, 0, 0, 0},
      {"pimRotateElementsLeft", 1024, "rotate_elem_l.int32.h", 0x1.c522caec5e1ddp-8, 0x1.35b431c3da1f2p-11, 0x0p+0, 0x0p+0, 0, 0, 0},
      {"pimRotateElementsRight", 1024, "rotate_elem_r.int32.h", 0x1.c522caec5e1ddp-8, 0x1.35b431c3da1f2p-11, 0x0p+0, 0x0p+0, 0, 0, 0},
      {"pimRedSumRanged[5,2000)", 1024, "redsum.int32.h", 0x1.84e50959174e6p-9, 0x1.258ebfa5f3742p-12, 0x0p+0, 0x0p+0, 0, 0, 0},
     }},
    {PimDeviceEnum::PIM_DEVICE_SIMDRAM,
     {
      {"pimCopyDeviceToHost", 1, "", 0x0p+0, 0x0p+0, 0x1.f77bf7f31637ap-22, 0x1.002c3bcd31659p-21, 0, 12004, 0},
      {"pimCopyDeviceToHost[17,2900)", 1, "", 0x0p+0, 0x0p+0, 0x1.e3afe83a91766p-22, 0x1.ec3335398d0f2p-22, 0, 11532, 0},
      {"pimCopyDeviceToDevice", 1, "", 0x0p+0, 0x0p+0, 0x1.cfdb417c18a1bp-20, 0x1.366cf64d3de03p-21, 0, 0, 12004},
      {"pimShiftElementsLeft", 1, "shift_elem_l.int32.v", 0x1.d132da6a3baa7p-20, 0x1.3917c24323a64p-21, 0x0p+0, 0x0p+0, 0, 0, 0},
      {"pimShiftElementsRight", 1, "shift_elem_r.int32.v", 0x1.d132da6a3baa7p-20, 0x1.3917c24323a64p-21, 0x0p+0, 0x0p+0, 0, 0, 0},
      {"pimRotateElementsLeft", 1, "rotate_elem_l.int32.v", 0x1.d132da6a3baa7p-20, 0x1.3917c24323a64p-21, 0x0p+0, 0x0p+0, 0, 0, 0},
      {"pimRotateElementsRight", 1, "rotate_elem_r.int32.v", 0x1.d132da6a3baa7p-20, 0x1.3917c24323a64p-21, 0x0p+0, 0x0p+0, 0, 0, 0},
      {"pimRedSumRanged[5,2000)", 1, "redsum.int32.v", 0x1.c80c26af8f176p-21, 0x1.8060780f07a6fp-22, 0x0p+0, 0x0p+0, 0, 0, 0},
      {"pimCopyDeviceToHost", 1024, "", 0x0p+0, 0x0p+0, 0x1.f77bf7f31637ap-12, 0x1.002c3bcd31659p-11, 0, 12292096, 0},
      {"pimCopyDeviceToHost[17,2900)", 1024, "", 0x0p+0, 0x0p+0, 0x1.e3afe83a91766p-12, 0x1.ec3335398d0f2p-12, 0, 11808768, 0},
      {"pimCopyDeviceToDevice", 1024, "", 0x0p+0, 0x0p+0, 0x1.c522c58dfa655p-10, 0x1.35b407171ac0dp-11, 0, 0, 12292096},
      {"pimShiftElementsLeft", 1024, "shift_elem_l.int32.v", 0x1.c5231b7435ee1p-10, 0x1.35b4b1ca183a4p-11, 0x0p+0, 0x0p+0, 0, 0, 0},
      {"pimShiftElementsRight", 1024, "shift_elem_r.int32.v", 0x1.c5231b7435ee1p-10, 0x1.35b4b1ca183a4p-11, 0x0p+0, 0x0p+0, 0, 0, 0},
      {"pimRotateElementsLeft", 1024, "rotate_elem_l.int32.v", 0x1.c5231b7435ee1p-10, 0x1.35b4b1ca183a4p-11, 0x0p+0, 0x0p+0, 0, 0, 0},
      {"pimRotateElementsRight", 1024, "rotate_elem_r.int32.v", 0x1.c5231b7435ee1p-10, 0x1.35b4b1ca183a4p-11, 0x0p+0, 0x0p+0, 0, 0, 0},
      {"pimRedSumRanged[5,2000)", 1024, "redsum.int32.v", 0x1.c80c26af8f176p-11, 0x1.8060780f07a6fp-12, 0x0p+0, 0x0p+0, 0, 0, 0},
     }},
    };
    // clang-format on
    return golden;
}

/** Issue each golden call alone at each scale and compare its record
 *  with @p rows exactly; a mismatch prints the actual rows. */
void
expectCmdRecordGolden(const std::vector<CmdRecordGolden> &rows)
{
    constexpr uint64_t n = 3001;
    Prng rng(11);
    const std::vector<int> x = rng.intVector(n, -5000, 5000);
    const PimObjId a = pimAlloc(PimAllocEnum::PIM_ALLOC_AUTO, n, 32,
                                PimDataType::PIM_INT32);
    const PimObjId d = pimAllocAssociated(32, a, PimDataType::PIM_INT32);
    ASSERT_GE(a, 0);
    ASSERT_GE(d, 0);
    ASSERT_EQ(pimCopyHostToDevice(x.data(), a), PimStatus::PIM_OK);
    std::vector<int> out(n);
    int64_t sum = 0;
    const std::vector<std::pair<const char *, std::function<PimStatus()>>>
        calls = {
            {"pimCopyDeviceToHost",
             [&] { return pimCopyDeviceToHost(a, out.data()); }},
            {"pimCopyDeviceToHost[17,2900)",
             [&] { return pimCopyDeviceToHost(a, out.data(), 17, 2900); }},
            {"pimCopyDeviceToDevice",
             [&] { return pimCopyDeviceToDevice(a, d); }},
            {"pimShiftElementsLeft", [&] { return pimShiftElementsLeft(d); }},
            {"pimShiftElementsRight",
             [&] { return pimShiftElementsRight(d); }},
            {"pimRotateElementsLeft",
             [&] { return pimRotateElementsLeft(d); }},
            {"pimRotateElementsRight",
             [&] { return pimRotateElementsRight(d); }},
            {"pimRedSumRanged[5,2000)",
             [&] { return pimRedSumRanged(a, 5, 2000, &sum); }},
        };
    const std::array<double, 2> scales = {1.0, 1024.0};
    bool match = rows.size() == scales.size() * calls.size();
    std::ostringstream actual;
    size_t i = 0;
    for (const double scale : scales) {
        ASSERT_EQ(pimSetModelingScale(scale), PimStatus::PIM_OK);
        for (const auto &[call, fn] : calls) {
            ASSERT_EQ(pimResetStats(), PimStatus::PIM_OK);
            const std::array<double, 3> metrics0 = copyMetricBytes();
            ASSERT_EQ(fn(), PimStatus::PIM_OK) << call;
            const PimRunStats s = pimGetStats();
            expectCopyMetricsMatchStats(metrics0, s, call);
            // A lone command leaves one count under its key; a copy
            // leaves the command table empty.
            std::string key;
            for (const auto &[k, stat] : PimSim::instance()
                                             .device()
                                             ->stats()
                                             .cmdStats())
                key += stat.count == 1 ? k
                                       : strCat(k, " x", stat.count);
            if (i < rows.size()) {
                const CmdRecordGolden &g = rows[i];
                match = match && g.call == std::string(call) &&
                    g.scale == scale && g.key == key &&
                    g.kernel_sec == s.kernel_sec &&
                    g.kernel_j == s.kernel_j && g.copy_sec == s.copy_sec &&
                    g.copy_j == s.copy_j && g.bytes_h2d == s.bytes_h2d &&
                    g.bytes_d2h == s.bytes_d2h && g.bytes_d2d == s.bytes_d2d;
            }
            ++i;
            actual << "      {\"" << call << "\", " << scale << ", \""
                   << key << "\", " << std::hexfloat << s.kernel_sec
                   << ", " << s.kernel_j << ", " << s.copy_sec << ", "
                   << s.copy_j << ", " << std::defaultfloat << s.bytes_h2d
                   << ", " << s.bytes_d2h << ", " << s.bytes_d2d << "},\n";
        }
    }
    ASSERT_EQ(pimSetModelingScale(1.0), PimStatus::PIM_OK);
    pimFree(a);
    pimFree(d);
    if (!match)
        ADD_FAILURE() << "lone-command records differ from the golden "
                      << "table; actual:\n"
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
        const char *mode = regions ? "fusion regions" : "unfused";
        ASSERT_EQ(pimResetStats(), PimStatus::PIM_OK);
        const std::array<double, 3> metrics0 = copyMetricBytes();
        issueEveryDeviceCommand(regions);
        expectPerCommandGolden(g, mode);
        expectCopyMetricsMatchStats(metrics0, pimGetStats(), mode);
    }

    const auto &records = cmdRecordGolden();
    const auto rit = std::find_if(
        records.begin(), records.end(),
        [device](const TargetRecordGolden &r) { return r.device == device; });
    expectCmdRecordGolden(rit != records.end()
                              ? rit->rows
                              : std::vector<CmdRecordGolden>{});
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

namespace {

/** Replace the active device with a same-shape one under analytical
 *  transfer timing, so exact costs hold under every
 *  PIMEVAL_MEM_BACKEND setting. */
void
useAnalyticalDevice(PimDeviceEnum device)
{
    pimDeleteDevice();
    PimDeviceConfig config = smallConfig(device);
    config.mem_backend = PimMemBackend::PIM_MEM_BACKEND_ANALYTICAL;
    ASSERT_EQ(pimCreateDeviceFromConfig(config), PimStatus::PIM_OK);
}

/** A counter's value; 0 before its first update registers it. */
double
metricValue(const char *name)
{
    double value = 0.0;
    pimGetMetric(name, &value);
    return value;
}

/** Two int32 inputs and a destination, all associated with a. */
struct Operands3
{
    PimObjId a = -1, b = -1, d = -1;
};

Operands3
allocOperands(uint64_t n)
{
    Operands3 o;
    o.a = pimAlloc(PimAllocEnum::PIM_ALLOC_AUTO, n, 32,
                   PimDataType::PIM_INT32);
    o.b = pimAllocAssociated(32, o.a, PimDataType::PIM_INT32);
    o.d = pimAllocAssociated(32, o.a, PimDataType::PIM_INT32);
    EXPECT_GE(o.a, 0);
    EXPECT_GE(o.b, 0);
    EXPECT_GE(o.d, 0);
    Prng rng(5);
    EXPECT_EQ(pimCopyHostToDevice(rng.intVector(n, -900, 900).data(), o.a),
              PimStatus::PIM_OK);
    EXPECT_EQ(pimCopyHostToDevice(rng.intVector(n, -900, 900).data(), o.b),
              PimStatus::PIM_OK);
    return o;
}

void
freeOperands(const Operands3 &o)
{
    EXPECT_EQ(pimFree(o.a), PimStatus::PIM_OK);
    EXPECT_EQ(pimFree(o.b), PimStatus::PIM_OK);
    EXPECT_EQ(pimFree(o.d), PimStatus::PIM_OK);
}

/** One command's whole stats record when it is issued alone. */
struct LoneRecord
{
    std::string key;
    uint64_t count = 0;
    double runtime_sec = 0.0;
    double energy_j = 0.0;
};

/** Issue elementwise, scalar, shift, scaled-add, broadcast and full
 *  reduction commands on @p o one at a time, each after a stats reset,
 *  and return each one's record. */
std::vector<LoneRecord>
loneRecords(const Operands3 &o)
{
    int64_t sum = 0;
    const std::vector<std::function<PimStatus()>> calls = {
        [&] { return pimAdd(o.a, o.b, o.d); },
        [&] { return pimMulScalar(o.a, o.d, 77); },
        [&] { return pimAndScalar(o.a, o.d, 0xf0f0); },
        [&] { return pimShiftBitsLeft(o.a, o.d, 3); },
        [&] { return pimShiftBitsRight(o.a, o.d, 31); },
        [&] { return pimScaledAdd(o.a, o.b, o.d, 9); },
        [&] { return pimBroadcastInt(o.d, 12); },
        [&] { return pimRedSum(o.a, &sum); },
    };
    std::vector<LoneRecord> out;
    for (const auto &call : calls) {
        EXPECT_EQ(pimResetStats(), PimStatus::PIM_OK);
        EXPECT_EQ(call(), PimStatus::PIM_OK);
        // Under PIMEVAL_FUSION=1 the command may wait in the window.
        EXPECT_EQ(pimSync(), PimStatus::PIM_OK);
        const auto table = PimSim::instance().device()->stats().cmdStats();
        EXPECT_EQ(table.size(), 1u);
        for (const auto &[key, stat] : table)
            out.push_back({key, stat.count, stat.runtime_sec, stat.energy_j});
    }
    return out;
}

void
expectSameRecords(const std::vector<LoneRecord> &got,
                  const std::vector<LoneRecord> &want, const std::string &what)
{
    ASSERT_EQ(got.size(), want.size()) << what;
    for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].key, want[i].key) << what;
        EXPECT_EQ(got[i].count, want[i].count) << what << " " << want[i].key;
        EXPECT_EQ(got[i].runtime_sec, want[i].runtime_sec)
            << what << " " << want[i].key;
        EXPECT_EQ(got[i].energy_j, want[i].energy_j)
            << what << " " << want[i].key;
    }
}

} // namespace

TEST_P(PimApiTest, ModelingScaleSwitchMatchesFreshDevice)
{
    // Objects carry their cost shape from allocation; a modeling-scale
    // change must still cost every later command at the new scale,
    // whether its objects were allocated before the change or came
    // off the free list after it. Reference: the same commands on a
    // fresh device already at that scale.
    constexpr uint64_t n = 3001;
    const std::array<double, 2> scales = {1024.0, 1.0};
    std::map<double, std::vector<LoneRecord>> fresh;
    for (const double scale : scales) {
        ASSERT_NO_FATAL_FAILURE(useAnalyticalDevice(GetParam()));
        ASSERT_EQ(pimSetModelingScale(scale), PimStatus::PIM_OK);
        fresh[scale] = loneRecords(allocOperands(n));
        ASSERT_EQ(fresh[scale].size(), 8u);
    }
    ASSERT_NE(fresh[1024.0][0].runtime_sec, fresh[1.0][0].runtime_sec);

    ASSERT_NO_FATAL_FAILURE(useAnalyticalDevice(GetParam()));
    const Operands3 live = allocOperands(n);
    Operands3 parked = allocOperands(n);
    for (const double scale : scales) {
        ASSERT_EQ(pimSetModelingScale(scale), PimStatus::PIM_OK);
        const std::string at = strCat("scale ", scale, ", ");
        expectSameRecords(loneRecords(live), fresh[scale],
                          at + "allocated before the switch");
        freeOperands(parked);
        const double hits0 = metricValue("freelist.hit");
        parked = allocOperands(n);
        EXPECT_EQ(metricValue("freelist.hit") - hits0, 3.0) << at;
        expectSameRecords(loneRecords(parked), fresh[scale],
                          at + "recycled after the switch");
    }
    freeOperands(live);
    freeOperands(parked);
}

TEST_P(PimApiTest, SameWidthRecycleTakesNewType)
{
    // A freed int32 object recycled as uint32 keeps its storage and
    // cost shape, but what follows from the type must follow the new
    // one: unsigned semantics and uint32 stats keys.
    ASSERT_NO_FATAL_FAILURE(useAnalyticalDevice(GetParam()));
    constexpr uint64_t n = 1000;
    PimDevice *dev = PimSim::instance().device();
    const PimObjId s = pimAlloc(PimAllocEnum::PIM_ALLOC_AUTO, n, 32,
                                PimDataType::PIM_INT32);
    ASSERT_GE(s, 0);
    const std::vector<int32_t> neg(n, -8);
    ASSERT_EQ(pimCopyHostToDevice(neg.data(), s), PimStatus::PIM_OK);
    int64_t sum = 0;
    ASSERT_EQ(pimRedSum(s, &sum), PimStatus::PIM_OK);
    EXPECT_EQ(sum, -8 * static_cast<int64_t>(n));
    const PimDataObject *parked = dev->object(s);
    ASSERT_EQ(pimFree(s), PimStatus::PIM_OK);

    const PimObjId u = pimAlloc(PimAllocEnum::PIM_ALLOC_AUTO, n, 32,
                                PimDataType::PIM_UINT32);
    ASSERT_GE(u, 0);
    ASSERT_EQ(dev->object(u), parked) << "not taken from the free list";
    const PimObjId v = pimAllocAssociated(32, u, PimDataType::PIM_UINT32);
    ASSERT_GE(v, 0);
    std::vector<uint32_t> x(n);
    int64_t want_sum = 0;
    for (uint64_t i = 0; i < n; ++i) {
        x[i] = 0x80000000u + static_cast<uint32_t>(i) * 7919u;
        want_sum += x[i];
    }
    ASSERT_EQ(pimCopyHostToDevice(x.data(), u), PimStatus::PIM_OK);

    ASSERT_EQ(pimResetStats(), PimStatus::PIM_OK);
    ASSERT_EQ(pimRedSum(u, &sum), PimStatus::PIM_OK);
    EXPECT_EQ(sum, want_sum);
    std::vector<uint32_t> out(n);
    ASSERT_EQ(pimShiftBitsRight(u, v, 4), PimStatus::PIM_OK);
    ASSERT_EQ(pimCopyDeviceToHost(v, out.data()), PimStatus::PIM_OK);
    for (uint64_t i = 0; i < n; ++i)
        ASSERT_EQ(out[i], x[i] >> 4) << "logical shift, lane " << i;
    ASSERT_EQ(pimGTScalar(u, v, 0x7fffffffu), PimStatus::PIM_OK);
    ASSERT_EQ(pimCopyDeviceToHost(v, out.data()), PimStatus::PIM_OK);
    for (uint64_t i = 0; i < n; ++i)
        ASSERT_EQ(out[i], 1u) << "unsigned compare, lane " << i;

    const auto table = dev->stats().cmdStats();
    EXPECT_EQ(table.size(), 3u);
    for (const auto &[key, stat] : table) {
        EXPECT_NE(key.find(".uint32."), std::string::npos) << key;
        EXPECT_EQ(stat.count, 1u) << key;
    }
    pimFree(u);
    pimFree(v);
}

TEST_P(PimApiTest, CostMemoExactAcrossTwoShapes)
{
    // The memo keys on the command, the cost shape's width and count,
    // the scalar and aux. Two shapes of one width, interleaved, each
    // with half again as many distinct scalars as the memo holds and
    // issued twice: one key per (shape, scalar), evictions in both
    // rounds, and every record exactly the direct costOp sum in issue
    // order.
    ASSERT_NO_FATAL_FAILURE(useAnalyticalDevice(GetParam()));
    constexpr size_t kScalars =
        PimCostMemo::kCapacity + PimCostMemo::kCapacity / 2;
    PimDevice *dev = PimSim::instance().device();
    std::vector<std::pair<PimObjId, PimOpProfile>> shapes;
    for (const uint64_t n : {3001u, 517u}) {
        const PimObjId a = pimAlloc(PimAllocEnum::PIM_ALLOC_AUTO, n, 32,
                                    PimDataType::PIM_INT32);
        ASSERT_GE(a, 0);
        const PimDataObject *obj = dev->object(a);
        PimOpProfile profile;
        profile.cmd = PimCmdEnum::kMulScalar;
        profile.bits = 32;
        profile.num_elements = n;
        profile.max_elems_per_core = obj->maxElementsPerRegion();
        profile.cores_used = obj->numCoresUsed();
        shapes.emplace_back(a, profile);
    }
    const PimOpCost a0 = dev->model()->costOp(shapes[0].second);
    const PimOpCost b0 = dev->model()->costOp(shapes[1].second);
    ASSERT_TRUE(a0.runtime_sec != b0.runtime_sec ||
                a0.energy_j != b0.energy_j)
        << "the two shapes must cost differently";

    // Direct costs per (scalar, shape), in issue order.
    std::vector<PimOpCost> direct;
    for (size_t i = 0; i < kScalars; ++i) {
        for (auto &[a, profile] : shapes) {
            // An odd multiplier permutes the 32-bit values: distinct.
            profile.scalar = (i * 2654435761u + 1) & 0xffffffffu;
            direct.push_back(dev->model()->costOp(profile));
        }
    }

    ASSERT_EQ(pimResetStats(), PimStatus::PIM_OK);
    const double misses0 = metricValue("cache.cost_memo.miss");
    PimCmdStat want;
    for (int round = 0; round < 2; ++round) {
        size_t k = 0;
        for (size_t i = 0; i < kScalars; ++i) {
            for (const auto &[a, profile] : shapes) {
                const uint64_t scalar = (i * 2654435761u + 1) & 0xffffffffu;
                ASSERT_EQ(pimMulScalar(a, a, scalar), PimStatus::PIM_OK);
                const PimOpCost &cost = direct[k++];
                ++want.count;
                want.runtime_sec += cost.runtime_sec;
                want.energy_j += cost.energy_j;
            }
        }
    }
    ASSERT_EQ(pimSync(), PimStatus::PIM_OK);
    const auto table = dev->stats().cmdStats();
    ASSERT_EQ(table.size(), 1u);
    const PimCmdStat &got = table.begin()->second;
    EXPECT_EQ(got.count, want.count);
    EXPECT_EQ(got.runtime_sec, want.runtime_sec);
    EXPECT_EQ(got.energy_j, want.energy_j);
    // Round one misses on every (shape, scalar); round two on each one
    // evicted.
    EXPECT_GT(metricValue("cache.cost_memo.miss") - misses0,
              static_cast<double>(2 * kScalars));
    for (const auto &[a, profile] : shapes)
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
