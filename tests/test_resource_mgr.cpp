/**
 * @file
 * Tests of the resource manager: the row interval allocator, object
 * placement across cores, associated allocation, free/reuse cycles,
 * capacity exhaustion, and the id -> object table.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <vector>

#include "core/pim_api.h"
#include "core/pim_resource_mgr.h"
#include "util/logging.h"
#include "util/prng.h"

using namespace pimeval;

namespace {

PimDeviceConfig
tinyConfig(PimDeviceEnum device)
{
    PimDeviceConfig config;
    config.device = device;
    config.num_ranks = 1;
    config.num_banks_per_rank = 2;
    config.num_subarrays_per_bank = 2;
    config.num_rows_per_subarray = 64;
    config.num_cols_per_row = 128;
    return config;
}

} // namespace

TEST(RowAllocator, FirstFitAllocateRelease)
{
    RowAllocator alloc(100);
    EXPECT_EQ(alloc.freeRows(), 100u);

    const uint64_t a = alloc.allocate(30);
    const uint64_t b = alloc.allocate(30);
    const uint64_t c = alloc.allocate(30);
    EXPECT_EQ(a, 0u);
    EXPECT_EQ(b, 30u);
    EXPECT_EQ(c, 60u);
    EXPECT_EQ(alloc.freeRows(), 10u);
    EXPECT_EQ(alloc.allocate(20), UINT64_MAX); // doesn't fit

    // Release the middle block and reuse it.
    alloc.release(b, 30);
    EXPECT_EQ(alloc.freeRows(), 40u);
    EXPECT_EQ(alloc.largestFreeExtent(), 30u);
    EXPECT_EQ(alloc.allocate(25), 30u); // first fit in the hole

    // Release everything allocated; intervals must merge back into
    // one extent together with the never-allocated tail.
    alloc.release(30, 25);
    alloc.release(a, 30);
    alloc.release(c, 30);
    EXPECT_EQ(alloc.freeRows(), 100u);
    EXPECT_EQ(alloc.largestFreeExtent(), 100u);
}

TEST(RowAllocator, ZeroAndFullRange)
{
    RowAllocator alloc(10);
    EXPECT_EQ(alloc.allocate(0), UINT64_MAX);
    EXPECT_EQ(alloc.allocate(10), 0u);
    EXPECT_EQ(alloc.freeRows(), 0u);
    EXPECT_EQ(alloc.allocate(1), UINT64_MAX);
    alloc.release(0, 10);
    EXPECT_EQ(alloc.allocate(10), 0u);
}

TEST(ResourceMgr, VerticalPlacementGeometry)
{
    const auto config =
        tinyConfig(PimDeviceEnum::PIM_DEVICE_BITSIMD_V_AP);
    PimResourceMgr mgr(config);
    // 4 cores; 500 elements -> 125 per core; vertical 32-bit needs
    // ceil(125/128)*32 = 32 rows per region.
    PimDataObject *obj = mgr.alloc(500, PimDataType::PIM_INT32, true);
    ASSERT_NE(obj, nullptr);
    EXPECT_EQ(obj->numCoresUsed(), 4u);
    EXPECT_EQ(obj->maxElementsPerRegion(), 125u);
    for (const auto &region : obj->regions())
        EXPECT_EQ(region.num_rows, 32u);

    // Element offsets must tile the object contiguously.
    uint64_t expected_offset = 0;
    for (const auto &region : obj->regions()) {
        EXPECT_EQ(region.elem_offset, expected_offset);
        expected_offset += region.num_elements;
    }
    EXPECT_EQ(expected_offset, 500u);
}

TEST(ResourceMgr, HorizontalPlacementGeometry)
{
    const auto config = tinyConfig(PimDeviceEnum::PIM_DEVICE_FULCRUM);
    PimResourceMgr mgr(config);
    // 2 cores (4 subarrays / 2); 128-col rows hold 4 x 32-bit
    // elements; 100 elements -> 50 per core -> 13 rows each.
    PimDataObject *obj = mgr.alloc(100, PimDataType::PIM_INT32, false);
    ASSERT_NE(obj, nullptr);
    EXPECT_EQ(obj->numCoresUsed(), 2u);
    for (const auto &region : obj->regions())
        EXPECT_EQ(region.num_rows, 13u);
}

TEST(ResourceMgr, AssociatedMatchesReferenceDistribution)
{
    const auto config =
        tinyConfig(PimDeviceEnum::PIM_DEVICE_BITSIMD_V_AP);
    PimResourceMgr mgr(config);
    PimDataObject *ref = mgr.alloc(301, PimDataType::PIM_INT32, true);
    ASSERT_NE(ref, nullptr);
    PimDataObject *assoc =
        mgr.allocAssociated(*ref, PimDataType::PIM_INT16);
    ASSERT_NE(assoc, nullptr);
    ASSERT_EQ(assoc->regions().size(), ref->regions().size());
    for (size_t i = 0; i < ref->regions().size(); ++i) {
        EXPECT_EQ(assoc->regions()[i].core_id,
                  ref->regions()[i].core_id);
        EXPECT_EQ(assoc->regions()[i].num_elements,
                  ref->regions()[i].num_elements);
    }
}

TEST(ResourceMgr, StoredMaxRegionMatchesScan)
{
    // The largest region is stored at placement; it must agree with a
    // scan over regions() for fresh, associated and recycled objects.
    const auto scan = [](const PimDataObject &obj) {
        uint64_t max_elems = 0;
        for (const auto &region : obj.regions())
            max_elems = std::max(max_elems, region.num_elements);
        return max_elems;
    };
    const auto config =
        tinyConfig(PimDeviceEnum::PIM_DEVICE_BITSIMD_V_AP);
    PimResourceMgr mgr(config);
    // 301 elements over 4 cores: one region holds 76, the rest 75.
    PimDataObject *obj = mgr.alloc(301, PimDataType::PIM_INT32, true);
    ASSERT_NE(obj, nullptr);
    EXPECT_EQ(obj->maxElementsPerRegion(), 76u);
    EXPECT_EQ(obj->maxElementsPerRegion(), scan(*obj));

    PimDataObject *assoc =
        mgr.allocAssociated(*obj, PimDataType::PIM_INT16);
    ASSERT_NE(assoc, nullptr);
    EXPECT_EQ(assoc->maxElementsPerRegion(), scan(*assoc));

    // A free-list hit hands back the same object, placement intact.
    EXPECT_TRUE(mgr.free(obj->id()));
    PimDataObject *recycled =
        mgr.alloc(301, PimDataType::PIM_INT32, true);
    ASSERT_EQ(recycled, obj);
    EXPECT_EQ(recycled->maxElementsPerRegion(), 76u);
    EXPECT_EQ(recycled->maxElementsPerRegion(), scan(*recycled));
}

TEST(ResourceMgr, FreeReuseAndUnknownIds)
{
    const auto config =
        tinyConfig(PimDeviceEnum::PIM_DEVICE_BITSIMD_V_AP);
    PimResourceMgr mgr(config);
    PimDataObject *a = mgr.alloc(1000, PimDataType::PIM_INT32, true);
    ASSERT_NE(a, nullptr);
    const PimObjId id = a->id();
    EXPECT_EQ(mgr.get(id), a);
    EXPECT_GT(mgr.utilization(), 0.0);

    EXPECT_TRUE(mgr.free(id));
    EXPECT_FALSE(mgr.free(id));
    EXPECT_EQ(mgr.get(id), nullptr);
    EXPECT_EQ(mgr.utilization(), 0.0);
    EXPECT_EQ(mgr.numObjects(), 0u);
}

TEST(ResourceMgr, CapacityExhaustionAndRollback)
{
    const auto config =
        tinyConfig(PimDeviceEnum::PIM_DEVICE_BITSIMD_V_AP);
    PimResourceMgr mgr(config);
    // Capacity per core: 64 rows / 32 bits * 128 cols = 256 elements;
    // 4 cores -> 1024 total.
    PimDataObject *big = mgr.alloc(1024, PimDataType::PIM_INT32, true);
    ASSERT_NE(big, nullptr);
    // Anything more must fail cleanly...
    EXPECT_EQ(mgr.alloc(16, PimDataType::PIM_INT32, true), nullptr);
    // ...without leaking rows from the failed attempt.
    EXPECT_TRUE(mgr.free(big->id()));
    EXPECT_NE(mgr.alloc(1024, PimDataType::PIM_INT32, true), nullptr);
}

TEST(ResourceMgr, ManySmallObjectsChurn)
{
    const auto config = tinyConfig(PimDeviceEnum::PIM_DEVICE_FULCRUM);
    PimResourceMgr mgr(config);
    std::vector<PimObjId> ids;
    for (int round = 0; round < 20; ++round) {
        for (int i = 0; i < 5; ++i) {
            PimDataObject *obj =
                mgr.alloc(40, PimDataType::PIM_INT32, false);
            ASSERT_NE(obj, nullptr);
            ids.push_back(obj->id());
        }
        // Free in interleaved order to fragment, then drain fully so
        // the next round reuses the same rows.
        for (size_t i = 0; i < ids.size(); i += 2)
            EXPECT_TRUE(mgr.free(ids[i]));
        for (size_t i = 1; i < ids.size(); i += 2)
            EXPECT_TRUE(mgr.free(ids[i]));
        ids.clear();
    }
    EXPECT_EQ(mgr.utilization(), 0.0);
}

TEST(ObjectTable, EraseShiftsChainsThatWrap)
{
    // A fresh table has 64 slots. Ids 62 and 126 share home slot 62,
    // and 63 and 127 share slot 63, so the probe chain holding 62,
    // 63, 126, 127 and 0 runs off the end of the table into slots 0-2.
    PimObjectTable table;
    const std::vector<PimObjId> ids = {62, 63, 126, 127, 0};
    std::map<PimObjId, PimDataObject *> ref;
    for (const PimObjId id : ids) {
        auto obj = std::make_unique<PimDataObject>(
            id, 1, PimDataType::PIM_INT32, false);
        ref[id] = obj.get();
        table.insert(std::move(obj));
    }
    const auto check = [&] {
        ASSERT_EQ(table.size(), ref.size());
        for (const PimObjId id : ids) {
            const auto it = ref.find(id);
            EXPECT_EQ(table.get(id),
                      it == ref.end() ? nullptr : it->second)
                << "id " << id;
        }
        EXPECT_EQ(table.get(-1), nullptr);
        EXPECT_EQ(table.get(190), nullptr);
    };
    check();
    // Erasing the chain head pulls every later member back, across
    // the wrap; erasing from the wrapped tail must leave the rest.
    for (const PimObjId id : {62, 127, 63, 0, 126}) {
        const std::unique_ptr<PimDataObject> out = table.take(id);
        ASSERT_NE(out, nullptr) << "id " << id;
        EXPECT_EQ(out.get(), ref.at(id));
        ref.erase(id);
        EXPECT_EQ(table.take(id), nullptr);
        check();
    }
}

TEST(ResourceMgr, ObjectTableMatchesMapUnderRandomChurn)
{
    // 4 cores of 2,048 rows. A horizontal object of at most 4 elements
    // takes one row in each core it uses, so the live count can climb
    // past a thousand: the table must grow many times over.
    PimDeviceConfig config =
        tinyConfig(PimDeviceEnum::PIM_DEVICE_BITSIMD_V_AP);
    config.num_rows_per_subarray = 2048;
    PimResourceMgr mgr(config);
    const PimDataType types[] = {PimDataType::PIM_INT8,
                                 PimDataType::PIM_INT16,
                                 PimDataType::PIM_INT32};

    Prng rng(20261017);
    std::map<PimObjId, PimDataObject *> live;
    std::vector<PimObjId> live_ids; // random access into live
    std::vector<PimObjId> dead_ids;
    PimObjId last_id = -1;
    size_t peak_live = 0;
    const auto pick = [&](const std::vector<PimObjId> &from) {
        return from[static_cast<size_t>(
            rng.nextInt(0, static_cast<int64_t>(from.size()) - 1))];
    };
    const auto born = [&](PimDataObject *obj) {
        if (!obj) {
            ADD_FAILURE() << "allocation failed";
            return;
        }
        // Ids rise strictly: none is ever handed out twice.
        EXPECT_GT(obj->id(), last_id);
        last_id = obj->id();
        live[obj->id()] = obj;
        live_ids.push_back(obj->id());
        peak_live = std::max(peak_live, live.size());
    };
    const auto kill = [&](bool elided) {
        const size_t i = static_cast<size_t>(rng.nextInt(
            0, static_cast<int64_t>(live_ids.size()) - 1));
        const PimObjId id = live_ids[i];
        EXPECT_TRUE(elided ? mgr.freeElided(id) : mgr.free(id));
        live_ids[i] = live_ids.back();
        live_ids.pop_back();
        live.erase(id);
        dead_ids.push_back(id);
    };

    constexpr int kSteps = 200000;
    for (int step = 0; step < kSteps; ++step) {
        // Phases of 25,000 steps alternately fill the device to about
        // 2,000 live objects and drain it, so the live ids spread over
        // a range far wider than the table and erases hit long,
        // wrapped probe chains.
        const bool filling = (step / 25000) % 2 == 0;
        const int64_t r = rng.nextInt(0, 99);
        const PimDataType type = types[rng.nextInt(0, 2)];
        if (r < (filling ? 18 : 12) || live_ids.empty()) {
            born(mgr.alloc(static_cast<uint64_t>(rng.nextInt(1, 4)),
                           type, false));
        } else if (r < (filling ? 24 : 16)) {
            const PimDataObject *ref = live.at(pick(live_ids));
            born(mgr.allocAssociated(*ref, type));
        } else if (r < 40) {
            kill(/*elided=*/r % 2 == 0);
        } else {
            // Lookups: live, freed, negative and never-issued ids.
            const PimObjId id = pick(live_ids);
            EXPECT_EQ(mgr.get(id), live.at(id));
            if (!dead_ids.empty()) {
                const PimObjId dead = pick(dead_ids);
                EXPECT_EQ(mgr.get(dead), nullptr);
                EXPECT_FALSE(mgr.free(dead));
                EXPECT_FALSE(mgr.freeElided(dead));
            }
            EXPECT_EQ(mgr.get(static_cast<PimObjId>(-rng.nextInt(1, 9))),
                      nullptr);
            EXPECT_EQ(mgr.get(last_id +
                              static_cast<PimObjId>(rng.nextInt(1, 9))),
                      nullptr);
        }
        if (step % 5000 == 0 || step == kSteps - 1) {
            ASSERT_EQ(mgr.numObjects(), live.size());
            for (const auto &[id, obj] : live)
                ASSERT_EQ(mgr.get(id), obj) << "id " << id;
        }
        if (::testing::Test::HasFailure())
            FAIL() << "first mismatch at step " << step;
    }
    EXPECT_GE(peak_live, 1000u);
    while (!live_ids.empty())
        kill(false);
    EXPECT_EQ(mgr.numObjects(), 0u);
    EXPECT_EQ(mgr.utilization(), 0.0);
}

TEST(ResourceMgr, DoubleFreeThroughApiFails)
{
    LogConfig::setThreshold(LogLevel::Error);
    ASSERT_EQ(pimCreateDeviceFromConfig(
                  tinyConfig(PimDeviceEnum::PIM_DEVICE_FULCRUM)),
              PimStatus::PIM_OK);
    const PimObjId id = pimAlloc(PimAllocEnum::PIM_ALLOC_AUTO, 64, 32,
                                 PimDataType::PIM_INT32);
    ASSERT_GE(id, 0);
    EXPECT_EQ(pimFree(id), PimStatus::PIM_OK);
    EXPECT_EQ(pimFree(id), PimStatus::PIM_ERROR);
    EXPECT_EQ(pimFree(-1), PimStatus::PIM_ERROR);
    EXPECT_EQ(pimDeleteDevice(), PimStatus::PIM_OK);
}
