/**
 * @file
 * Tests of layout overrides and cross-layout behaviour: vertical
 * allocation on bit-parallel devices, horizontal on bit-serial
 * (PIMeval supports both layouts on any target, Section V-A),
 * PIM_BOOL objects, and the stats key layout suffix.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/pim_api.h"
#include "core/pim_error.h"
#include "util/logging.h"
#include "util/prng.h"

using namespace pimeval;

namespace {

class LayoutTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        LogConfig::setThreshold(LogLevel::Error);
        PimDeviceConfig config;
        config.device = PimDeviceEnum::PIM_DEVICE_FULCRUM;
        config.num_ranks = 1;
        config.num_banks_per_rank = 4;
        config.num_subarrays_per_bank = 4;
        config.num_rows_per_subarray = 256;
        config.num_cols_per_row = 256;
        ASSERT_EQ(pimCreateDeviceFromConfig(config),
                  PimStatus::PIM_OK);
    }

    void
    TearDown() override
    {
        pimDeleteDevice();
    }
};

} // namespace

TEST_F(LayoutTest, ExplicitVerticalOnBitParallelDevice)
{
    // PIM_ALLOC_V forces vertical layout even on Fulcrum.
    const uint64_t n = 200;
    Prng rng(1);
    const std::vector<int> a = rng.intVector(n, -100, 100);

    const PimObjId oa = pimAlloc(PimAllocEnum::PIM_ALLOC_V, n, 32,
                                 PimDataType::PIM_INT32);
    const PimObjId ob =
        pimAllocAssociated(32, oa, PimDataType::PIM_INT32);
    ASSERT_GE(oa, 0);
    ASSERT_GE(ob, 0);
    pimCopyHostToDevice(a.data(), oa);
    pimResetStats();
    pimAddScalar(oa, ob, 5);

    std::vector<int> out(n);
    pimCopyDeviceToHost(ob, out.data());
    for (uint64_t i = 0; i < n; ++i)
        EXPECT_EQ(out[i], a[i] + 5);

    // Stats key carries the layout suffix.
    const auto mix = pimGetOpMix();
    EXPECT_EQ(mix.at("add_scalar"), 1u);

    pimFree(oa);
    pimFree(ob);
}

TEST_F(LayoutTest, ExplicitHorizontalWorks)
{
    const uint64_t n = 150;
    const PimObjId oa = pimAlloc(PimAllocEnum::PIM_ALLOC_H, n, 16,
                                 PimDataType::PIM_INT16);
    ASSERT_GE(oa, 0);
    pimBroadcastInt(oa, static_cast<uint64_t>(int64_t{-3}));
    std::vector<int16_t> out(n);
    pimCopyDeviceToHost(oa, out.data());
    for (uint64_t i = 0; i < n; ++i)
        EXPECT_EQ(out[i], -3);
    pimFree(oa);
}

TEST_F(LayoutTest, BoolObjectsThroughTheApi)
{
    const uint64_t n = 300;
    Prng rng(2);
    std::vector<uint8_t> a(n), b(n);
    for (uint64_t i = 0; i < n; ++i) {
        a[i] = rng.next() & 1;
        b[i] = rng.next() & 1;
    }

    const PimObjId oa = pimAlloc(PimAllocEnum::PIM_ALLOC_AUTO, n, 1,
                                 PimDataType::PIM_BOOL);
    const PimObjId ob =
        pimAllocAssociated(1, oa, PimDataType::PIM_BOOL);
    const PimObjId oc =
        pimAllocAssociated(1, oa, PimDataType::PIM_BOOL);
    ASSERT_GE(oa, 0);
    pimCopyHostToDevice(a.data(), oa);
    pimCopyHostToDevice(b.data(), ob);

    std::vector<uint8_t> out(n);
    pimAnd(oa, ob, oc);
    pimCopyDeviceToHost(oc, out.data());
    for (uint64_t i = 0; i < n; ++i)
        EXPECT_EQ(out[i], a[i] & b[i]);

    pimXor(oa, ob, oc);
    pimCopyDeviceToHost(oc, out.data());
    for (uint64_t i = 0; i < n; ++i)
        EXPECT_EQ(out[i], a[i] ^ b[i]);

    // Bool xor-scalar inverts; wraps to one bit.
    pimXorScalar(oa, oc, 1);
    pimCopyDeviceToHost(oc, out.data());
    for (uint64_t i = 0; i < n; ++i)
        EXPECT_EQ(out[i], a[i] ^ 1);

    // Reduction counts set bits.
    int64_t sum = 0;
    pimRedSum(oa, &sum);
    int64_t expect = 0;
    for (uint8_t v : a)
        expect += v;
    EXPECT_EQ(sum, expect);

    pimFree(oa);
    pimFree(ob);
    pimFree(oc);
}

TEST_F(LayoutTest, MixedWidthAssociatedObjects)
{
    // An int8 mask associated with an int32 data object: the common
    // masked-reduction idiom (K-means / filter style) across widths.
    const uint64_t n = 128;
    Prng rng(3);
    const std::vector<int> data = rng.intVector(n, -50, 50);

    const PimObjId odata = pimAlloc(PimAllocEnum::PIM_ALLOC_AUTO, n,
                                    32, PimDataType::PIM_INT32);
    const PimObjId omask =
        pimAllocAssociated(8, odata, PimDataType::PIM_UINT8);
    ASSERT_GE(odata, 0);
    ASSERT_GE(omask, 0);
    pimCopyHostToDevice(data.data(), odata);
    // mask = data > 0.
    pimGTScalar(odata, odata, 0); // reuse odata as 0/1
    int64_t count = 0;
    pimRedSum(odata, &count);
    int64_t expect = 0;
    for (int v : data)
        expect += (v > 0);
    EXPECT_EQ(count, expect);

    pimFree(odata);
    pimFree(omask);
}

TEST_F(LayoutTest, CopyBetweenMismatchedObjectsFails)
{
    const PimObjId small = pimAlloc(PimAllocEnum::PIM_ALLOC_AUTO, 10,
                                    32, PimDataType::PIM_INT32);
    const PimObjId big = pimAlloc(PimAllocEnum::PIM_ALLOC_AUTO, 20,
                                  32, PimDataType::PIM_INT32);
    EXPECT_EQ(pimCopyDeviceToDevice(small, big),
              PimStatus::PIM_ERROR);
    EXPECT_EQ(pimCopyDeviceToDevice(small, 999),
              PimStatus::PIM_ERROR);

    // Same count, narrower element: int32 lanes must not land in a
    // uint8 object, where values above 255 would corrupt it.
    const PimObjId narrow = pimAllocAssociated(8, small,
                                               PimDataType::PIM_UINT8);
    ASSERT_GE(narrow, 0);
    std::vector<int> src(10, 300);
    src[0] = -1;
    ASSERT_EQ(pimCopyHostToDevice(src.data(), small), PimStatus::PIM_OK);
    pimClearLastError();
    EXPECT_EQ(pimCopyDeviceToDevice(small, narrow), PimStatus::PIM_ERROR);
    EXPECT_EQ(pimGetLastError(), PimStatus::PIM_ERROR);
    EXPECT_NE(std::string(pimGetLastErrorMessage())
                  .find("pimCopyDeviceToDevice"),
              std::string::npos);
    int64_t sum = -1;
    ASSERT_EQ(pimRedSum(narrow, &sum), PimStatus::PIM_OK);
    EXPECT_EQ(sum, 0); // the rejected copy left the object untouched
    pimFree(narrow);
    pimFree(small);
    pimFree(big);
}

TEST_F(LayoutTest, ElementShiftsAndRotations)
{
    const uint64_t n = 40;
    std::vector<int> data(n);
    for (uint64_t i = 0; i < n; ++i)
        data[i] = static_cast<int>(i + 1);

    const PimObjId obj = pimAlloc(PimAllocEnum::PIM_ALLOC_AUTO, n, 32,
                                  PimDataType::PIM_INT32);
    ASSERT_GE(obj, 0);
    pimCopyHostToDevice(data.data(), obj);
    pimResetStats();

    std::vector<int> out(n);
    ASSERT_EQ(pimShiftElementsRight(obj), PimStatus::PIM_OK);
    pimCopyDeviceToHost(obj, out.data());
    EXPECT_EQ(out[0], 0);
    for (uint64_t i = 1; i < n; ++i)
        EXPECT_EQ(out[i], data[i - 1]);

    ASSERT_EQ(pimShiftElementsLeft(obj), PimStatus::PIM_OK);
    pimCopyDeviceToHost(obj, out.data());
    EXPECT_EQ(out[n - 1], 0);
    for (uint64_t i = 0; i + 1 < n; ++i)
        EXPECT_EQ(out[i], data[i]);

    ASSERT_EQ(pimRotateElementsRight(obj), PimStatus::PIM_OK);
    ASSERT_EQ(pimRotateElementsLeft(obj), PimStatus::PIM_OK);
    pimCopyDeviceToHost(obj, out.data());
    for (uint64_t i = 0; i + 1 < n; ++i)
        EXPECT_EQ(out[i], data[i]);

    // Costed and recorded under their own mnemonics.
    const auto mix = pimGetOpMix();
    EXPECT_EQ(mix.at("shift_elem_r"), 1u);
    EXPECT_EQ(mix.at("rotate_elem_l"), 1u);
    EXPECT_GT(pimGetStats().kernel_sec, 0.0);

    EXPECT_EQ(pimShiftElementsRight(9999), PimStatus::PIM_ERROR);
    pimFree(obj);
}
