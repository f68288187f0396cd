/**
 * @file
 * Tests of the resource manager: the row interval allocator, object
 * placement across cores, associated allocation, free/reuse cycles,
 * capacity exhaustion, the id -> object table, and a differential
 * check of run-based placement against one allocator per core.
 */

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <tuple>
#include <vector>

#include "core/pim_api.h"
#include "core/pim_error.h"
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

/** What one core holds of an object. */
struct CoreRegion
{
    uint64_t core = 0;
    uint64_t row_offset = 0;
    uint64_t num_rows = 0;
    uint64_t elem_offset = 0;
    uint64_t num_elements = 0;

    bool operator==(const CoreRegion &) const = default;
};

std::ostream &
operator<<(std::ostream &os, const CoreRegion &r)
{
    return os << "{core " << r.core << ", rows " << r.row_offset << "+"
              << r.num_rows << ", elems " << r.elem_offset << "+"
              << r.num_elements << "}";
}

/**
 * An object's placement core by core, in element order: the balanced
 * split from its first core, with each core's rows looked up in the
 * span covering it. Every span core must hold elements, and no core
 * may sit in two spans.
 */
std::vector<CoreRegion>
expandRegions(const PimDataObject &obj, uint64_t cores)
{
    std::map<uint64_t, const PimRowSpan *> span_of;
    for (const PimRowSpan &span : obj.spans()) {
        for (uint64_t c = span.core_begin;
             c < span.core_begin + span.num_cores; ++c) {
            EXPECT_TRUE(span_of.emplace(c, &span).second)
                << "core " << c << " is in two spans";
        }
    }
    const uint64_t n = obj.numElements();
    std::vector<CoreRegion> regions;
    uint64_t elem_offset = 0;
    for (uint64_t i = 0; i < std::min(n, cores); ++i) {
        CoreRegion region;
        region.core = (obj.firstCore() + i) % cores;
        region.elem_offset = elem_offset;
        region.num_elements = n / cores + (i < n % cores ? 1 : 0);
        const auto it = span_of.find(region.core);
        if (it == span_of.end()) {
            ADD_FAILURE() << "core " << region.core << " holds no rows";
        } else {
            region.row_offset = it->second->row_offset;
            region.num_rows = it->second->num_rows;
        }
        elem_offset += region.num_elements;
        regions.push_back(region);
    }
    EXPECT_EQ(span_of.size(), regions.size())
        << "spans cover cores that hold no elements";
    return regions;
}

/** Largest element count of any core, by scanning the expansion. */
uint64_t
scanMaxElements(const std::vector<CoreRegion> &regions)
{
    uint64_t max_elems = 0;
    for (const CoreRegion &region : regions)
        max_elems = std::max(max_elems, region.num_elements);
    return max_elems;
}

/**
 * Object placement with one first-fit RowAllocator per core: balanced
 * regions from a first core that rotates per allocation, placed all
 * or nothing, with up to 16 freed objects parked whole for same-shape
 * reuse and flushed when placement fails. PimResourceMgr must make
 * every decision this reference makes.
 */
class PerCoreReference
{
  public:
    struct Object
    {
        PimObjId id = -1;
        uint64_t num_elements = 0;
        unsigned bits = 0;
        bool v_layout = false;
        std::vector<CoreRegion> regions;
    };

    explicit PerCoreReference(const PimDeviceConfig &config)
        : config_(config), cores_(config.numCores()),
          allocators_(cores_, RowAllocator(config.rowsPerCore()))
    {
    }

    /** The new (or recycled) object; nullopt when capacity is
     *  exhausted. */
    std::optional<Object> alloc(uint64_t n, unsigned bits, bool v_layout)
    {
        if (auto hit = takeFromFreeList(n, bits, v_layout, nullptr))
            return hit;
        std::vector<std::pair<uint64_t, uint64_t>> counts;
        for (uint64_t c = 0; c < cores_; ++c) {
            const uint64_t elems = n / cores_ + (c < n % cores_ ? 1 : 0);
            if (elems > 0)
                counts.emplace_back((next_core_ + c) % cores_, elems);
        }
        next_core_ = (next_core_ + counts.size()) % cores_;
        return create(n, bits, v_layout, counts);
    }

    std::optional<Object> allocAssociated(const Object &ref,
                                          unsigned bits)
    {
        if (auto hit = takeFromFreeList(ref.num_elements, bits,
                                        ref.v_layout, &ref))
            return hit;
        std::vector<std::pair<uint64_t, uint64_t>> counts;
        for (const CoreRegion &region : ref.regions)
            counts.emplace_back(region.core, region.num_elements);
        return create(ref.num_elements, bits, ref.v_layout, counts);
    }

    void free(PimObjId id)
    {
        Object obj = std::move(live_.extract(id).mapped());
        if (parked_ < kMaxParked) {
            free_list_[{obj.num_elements, obj.bits, obj.v_layout}]
                .push_back(std::move(obj));
            ++parked_;
        } else {
            release(obj);
        }
    }

    double utilization() const
    {
        const uint64_t rows_per_core = config_.rowsPerCore();
        uint64_t total = 0, used = 0;
        for (const RowAllocator &alloc : allocators_) {
            total += rows_per_core;
            used += rows_per_core - alloc.freeRows();
        }
        for (const auto &[key, bucket] : free_list_) {
            for (const Object &obj : bucket) {
                for (const CoreRegion &region : obj.regions)
                    used -= region.num_rows;
            }
        }
        return total == 0 ? 0.0
                          : static_cast<double>(used) /
                              static_cast<double>(total);
    }

    size_t numObjects() const { return live_.size(); }

  private:
    using FreeKey = std::tuple<uint64_t, unsigned, bool>;
    static constexpr size_t kMaxParked = 16;

    uint64_t rowsFor(uint64_t elems, unsigned bits, bool v_layout) const
    {
        const uint64_t cols = config_.colsPerCore();
        if (v_layout)
            return (elems + cols - 1) / cols * bits;
        const uint64_t per_row = std::max<uint64_t>(1, cols / bits);
        return (elems + per_row - 1) / per_row;
    }

    bool placeRegions(
        Object &obj,
        const std::vector<std::pair<uint64_t, uint64_t>> &counts)
    {
        obj.regions.clear();
        uint64_t elem_offset = 0;
        for (const auto &[core, elems] : counts) {
            const uint64_t rows = rowsFor(elems, obj.bits, obj.v_layout);
            const uint64_t offset = allocators_[core].allocate(rows);
            if (offset == UINT64_MAX) {
                release(obj);
                obj.regions.clear();
                return false;
            }
            obj.regions.push_back(
                {core, offset, rows, elem_offset, elems});
            elem_offset += elems;
        }
        return true;
    }

    std::optional<Object>
    create(uint64_t n, unsigned bits, bool v_layout,
           const std::vector<std::pair<uint64_t, uint64_t>> &counts)
    {
        Object obj{next_id_, n, bits, v_layout, {}};
        if (!placeRegions(obj, counts)) {
            const bool flushed = parked_ > 0;
            if (flushed)
                flushFreeList();
            if (!flushed || !placeRegions(obj, counts))
                return std::nullopt;
        }
        ++next_id_;
        return live_[obj.id] = obj;
    }

    std::optional<Object> takeFromFreeList(uint64_t n, unsigned bits,
                                           bool v_layout,
                                           const Object *ref)
    {
        const auto bucket = free_list_.find({n, bits, v_layout});
        if (bucket == free_list_.end())
            return std::nullopt;
        std::vector<Object> &cached = bucket->second;
        size_t pick = cached.size();
        for (size_t i = cached.size(); i-- > 0;) {
            bool match = ref == nullptr;
            if (!match && cached[i].regions.size() == ref->regions.size()) {
                match = true;
                for (size_t r = 0; r < ref->regions.size(); ++r) {
                    match = match &&
                        cached[i].regions[r].core ==
                            ref->regions[r].core &&
                        cached[i].regions[r].num_elements ==
                            ref->regions[r].num_elements;
                }
            }
            if (match) {
                pick = i;
                break;
            }
        }
        if (pick == cached.size())
            return std::nullopt;
        Object obj = std::move(cached[pick]);
        cached.erase(cached.begin() + static_cast<std::ptrdiff_t>(pick));
        if (cached.empty())
            free_list_.erase(bucket);
        --parked_;
        obj.id = next_id_++;
        return live_[obj.id] = obj;
    }

    void release(const Object &obj)
    {
        for (const CoreRegion &region : obj.regions)
            allocators_[region.core].release(region.row_offset,
                                             region.num_rows);
    }

    void flushFreeList()
    {
        for (const auto &[key, bucket] : free_list_) {
            for (const Object &obj : bucket)
                release(obj);
        }
        free_list_.clear();
        parked_ = 0;
    }

    PimDeviceConfig config_;
    uint64_t cores_;
    std::vector<RowAllocator> allocators_;
    uint64_t next_core_ = 0;
    PimObjId next_id_ = 0;
    std::map<PimObjId, Object> live_;
    std::map<FreeKey, std::vector<Object>> free_list_;
    size_t parked_ = 0;
};

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
    const auto regions = expandRegions(*obj, config.numCores());
    for (const auto &region : regions)
        EXPECT_EQ(region.num_rows, 32u);

    // Element offsets must tile the object contiguously.
    uint64_t expected_offset = 0;
    for (const auto &region : regions) {
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
    for (const auto &region : expandRegions(*obj, config.numCores()))
        EXPECT_EQ(region.num_rows, 13u);
}

namespace {

/**
 * Placement shapes on the 4-core tiny bit-serial device. A first
 * allocation of @c rotate elements moves the start core to
 * rotate mod 4 before the object of @c n elements is placed.
 */
struct GeometryCase
{
    uint64_t rotate;
    uint64_t n;
    uint64_t max_elems; ///< ceil(n / 4)
};

constexpr GeometryCase kGeometryCases[] = {
    {0, 301, 76}, // n > C with a remainder: one core holds 76
    {0, 4, 1},    // n == C
    {0, 300, 75}, // n > C without a remainder
    {0, 3, 1},    // n < C
    {3, 3, 1},    // wraps: cores 3, 0, 1
    {3, 6, 2},    // wraps with a remainder: cores 3, 0 hold 2
    {2, 301, 76}, // wraps with a remainder, n > C
};

} // namespace

TEST(ResourceMgr, AssociatedMatchesReferenceDistribution)
{
    // 128 rows per core hold every object each case places.
    auto config = tinyConfig(PimDeviceEnum::PIM_DEVICE_BITSIMD_V_AP);
    config.num_rows_per_subarray = 128;
    const uint64_t cores = config.numCores();
    for (const GeometryCase &c : kGeometryCases) {
        SCOPED_TRACE(::testing::Message()
                     << "rotate " << c.rotate << ", n " << c.n);
        PimResourceMgr mgr(config);
        if (c.rotate > 0) {
            ASSERT_NE(mgr.alloc(c.rotate, PimDataType::PIM_INT8, true),
                      nullptr);
        }
        PimDataObject *ref =
            mgr.alloc(c.n, PimDataType::PIM_INT32, true);
        ASSERT_NE(ref, nullptr);
        EXPECT_EQ(ref->firstCore(), c.rotate % cores);
        PimDataObject *assoc =
            mgr.allocAssociated(*ref, PimDataType::PIM_INT16);
        ASSERT_NE(assoc, nullptr);
        EXPECT_EQ(assoc->firstCore(), ref->firstCore());
        EXPECT_EQ(assoc->maxElementsPerRegion(), c.max_elems);
        EXPECT_EQ(assoc->numCoresUsed(), std::min(c.n, cores));

        const auto want = expandRegions(*ref, cores);
        const auto got = expandRegions(*assoc, cores);
        ASSERT_EQ(got.size(), want.size());
        for (size_t i = 0; i < want.size(); ++i) {
            EXPECT_EQ(got[i].core, want[i].core);
            EXPECT_EQ(got[i].elem_offset, want[i].elem_offset);
            EXPECT_EQ(got[i].num_elements, want[i].num_elements);
        }

        // A free-list hit must keep the distribution: with a parked
        // same-shape object from another first core on top of the
        // bucket, the hit is the associated object itself.
        if ((ref->firstCore() + ref->numCoresUsed()) % cores ==
            ref->firstCore()) {
            ASSERT_NE(mgr.alloc(1, PimDataType::PIM_BOOL, true),
                      nullptr);
        }
        PimDataObject *other =
            mgr.alloc(c.n, PimDataType::PIM_INT16, true);
        ASSERT_NE(other, nullptr);
        EXPECT_NE(other->firstCore(), ref->firstCore());
        EXPECT_TRUE(mgr.free(assoc->id()));
        EXPECT_TRUE(mgr.free(other->id()));
        PimDataObject *hit =
            mgr.allocAssociated(*ref, PimDataType::PIM_INT16);
        ASSERT_EQ(hit, assoc);
        EXPECT_EQ(hit->firstCore(), ref->firstCore());
        EXPECT_EQ(expandRegions(*hit, cores), got);
    }
}

TEST(ResourceMgr, StoredMaxRegionMatchesScan)
{
    // maxElementsPerRegion() and numCoresUsed() follow from n and the
    // core count; they must agree with a scan of the per-core
    // placement for fresh, associated and recycled objects.
    const auto config =
        tinyConfig(PimDeviceEnum::PIM_DEVICE_BITSIMD_V_AP);
    const uint64_t cores = config.numCores();
    for (const GeometryCase &c : kGeometryCases) {
        SCOPED_TRACE(::testing::Message()
                     << "rotate " << c.rotate << ", n " << c.n);
        PimResourceMgr mgr(config);
        if (c.rotate > 0) {
            ASSERT_NE(mgr.alloc(c.rotate, PimDataType::PIM_INT8, true),
                      nullptr);
        }
        PimDataObject *obj =
            mgr.alloc(c.n, PimDataType::PIM_INT32, true);
        ASSERT_NE(obj, nullptr);
        const auto regions = expandRegions(*obj, cores);
        EXPECT_EQ(obj->maxElementsPerRegion(), c.max_elems);
        EXPECT_EQ(obj->maxElementsPerRegion(), scanMaxElements(regions));
        EXPECT_EQ(obj->numCoresUsed(), regions.size());

        PimDataObject *assoc =
            mgr.allocAssociated(*obj, PimDataType::PIM_INT16);
        ASSERT_NE(assoc, nullptr);
        const auto assoc_regions = expandRegions(*assoc, cores);
        EXPECT_EQ(assoc->maxElementsPerRegion(),
                  scanMaxElements(assoc_regions));
        EXPECT_EQ(assoc->numCoresUsed(), assoc_regions.size());

        // A free-list hit hands back the same object, placement intact.
        EXPECT_TRUE(mgr.free(obj->id()));
        PimDataObject *recycled =
            mgr.alloc(c.n, PimDataType::PIM_INT32, true);
        ASSERT_EQ(recycled, obj);
        EXPECT_EQ(recycled->maxElementsPerRegion(), c.max_elems);
        EXPECT_EQ(expandRegions(*recycled, cores), regions);
    }
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

    // Through the C API on the serve workload's 8-core Fulcrum device,
    // requests far past capacity fail before any host storage is
    // sized: none may throw, and none may touch gigabytes of memory.
    PimDeviceConfig serve_device;
    serve_device.device = PimDeviceEnum::PIM_DEVICE_FULCRUM;
    serve_device.num_ranks = 1;
    serve_device.num_banks_per_rank = 4;
    serve_device.num_subarrays_per_bank = 4;
    serve_device.num_rows_per_subarray = 256;
    serve_device.num_cols_per_row = 256;
    LogConfig::setThreshold(LogLevel::Error);
    ASSERT_EQ(pimCreateDeviceFromConfig(serve_device), PimStatus::PIM_OK);
    const auto peakRssKb = [] {
        rusage usage{};
        getrusage(RUSAGE_SELF, &usage);
        return usage.ru_maxrss;
    };
    const long rss_before_kb = peakRssKb();
    for (const uint64_t n : {1ull << 40, 1ull << 61, 1ull << 28}) {
        SCOPED_TRACE(::testing::Message() << "n = " << n);
        pimClearLastError();
        EXPECT_EQ(pimAlloc(PimAllocEnum::PIM_ALLOC_AUTO, n, 32,
                           PimDataType::PIM_INT32),
                  -1);
        EXPECT_EQ(pimGetLastError(), PimStatus::PIM_ERROR);
        EXPECT_STREQ(pimGetLastErrorMessage(),
                     "pimAlloc: device capacity exhausted");
    }
    EXPECT_LT(peakRssKb() - rss_before_kb, 256l << 10);
    const PimObjId id = pimAlloc(PimAllocEnum::PIM_ALLOC_AUTO, 4096, 32,
                                 PimDataType::PIM_INT32);
    EXPECT_GE(id, 0);
    EXPECT_EQ(pimFree(id), PimStatus::PIM_OK);
    EXPECT_EQ(pimDeleteDevice(), PimStatus::PIM_OK);
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
            id, 1, PimDataType::PIM_INT32, false, PimPlacement{});
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

namespace {

/**
 * Run a seeded trace of alloc / allocAssociated / free / freeElided
 * against PimResourceMgr and PerCoreReference together, checking op
 * by op that both succeed or fail alike and agree on the per-core
 * placement of each new object, utilization() and numObjects().
 * Phases of kPhase steps alternately fill the device and drain it.
 * Returns {allocations, capacity failures}.
 */
std::pair<size_t, size_t>
runPlacementTrace(const PimDeviceConfig &config, uint64_t seed)
{
    constexpr int kSteps = 4000;
    constexpr int kPhase = 250;
    constexpr PimDataType kTypes[] = {
        PimDataType::PIM_BOOL,   PimDataType::PIM_INT8,
        PimDataType::PIM_INT16,  PimDataType::PIM_INT32,
        PimDataType::PIM_INT64,  PimDataType::PIM_UINT8,
        PimDataType::PIM_UINT16, PimDataType::PIM_UINT32,
        PimDataType::PIM_UINT64,
    };
    const uint64_t cores = config.numCores();
    const bool native_v =
        config.device == PimDeviceEnum::PIM_DEVICE_BITSIMD_V_AP;
    PimResourceMgr mgr(config);
    PerCoreReference ref(config);
    Prng rng(seed);
    std::vector<std::pair<PimDataObject *, PerCoreReference::Object>>
        live;
    size_t allocs = 0, failures = 0;
    const auto check = [&](PimDataObject *got,
                           std::optional<PerCoreReference::Object> want) {
        ++allocs;
        EXPECT_EQ(got != nullptr, want.has_value());
        if (!got || !want) {
            ++failures;
            return;
        }
        EXPECT_EQ(got->id(), want->id);
        EXPECT_EQ(expandRegions(*got, cores), want->regions);
        live.emplace_back(got, std::move(*want));
    };
    for (int step = 0; step < kSteps; ++step) {
        const bool filling = (step / kPhase) % 2 == 0;
        const int64_t r = rng.nextInt(0, 99);
        const PimDataType type =
            kTypes[rng.nextInt(0, std::size(kTypes) - 1)];
        const unsigned bits = pimBitsOfDataType(type);
        const auto pick = [&] {
            return static_cast<size_t>(
                rng.nextInt(0, static_cast<int64_t>(live.size()) - 1));
        };
        if (live.empty() || r < (filling ? 50 : 20)) {
            const auto n = static_cast<uint64_t>(
                rng.nextInt(1, 4 * static_cast<int64_t>(cores)));
            const bool v_layout =
                rng.nextInt(0, 3) == 0 ? !native_v : native_v;
            check(mgr.alloc(n, type, v_layout, true),
                  ref.alloc(n, bits, v_layout));
        } else if (r < (filling ? 75 : 30)) {
            const auto &[obj, want] = live[pick()];
            check(mgr.allocAssociated(*obj, type, true),
                  ref.allocAssociated(want, bits));
        } else {
            const size_t i = pick();
            const PimObjId id = live[i].first->id();
            EXPECT_TRUE(r % 2 == 0 ? mgr.freeElided(id) : mgr.free(id));
            ref.free(id);
            live[i] = std::move(live.back());
            live.pop_back();
        }
        EXPECT_EQ(mgr.utilization(), ref.utilization());
        EXPECT_EQ(mgr.numObjects(), ref.numObjects());
        if (::testing::Test::HasFailure()) {
            ADD_FAILURE() << "first mismatch at step " << step;
            break;
        }
    }
    while (!live.empty() && !::testing::Test::HasFailure()) {
        const PimObjId id = live.back().first->id();
        EXPECT_TRUE(mgr.free(id));
        ref.free(id);
        live.pop_back();
        EXPECT_EQ(mgr.utilization(), ref.utilization());
    }
    EXPECT_EQ(mgr.utilization(), 0.0);
    return {allocs, failures};
}

} // namespace

TEST(ResourceMgr, PlacementMatchesPerCoreAllocators)
{
    // A 16-core bit-serial device (vertical layout native) and an
    // 8-core Fulcrum device (horizontal), both small enough that the
    // fill phases run out of rows; a quarter of the allocations take
    // the other layout.
    PimDeviceConfig bitserial =
        tinyConfig(PimDeviceEnum::PIM_DEVICE_BITSIMD_V_AP);
    bitserial.num_banks_per_rank = 4;
    bitserial.num_subarrays_per_bank = 4;
    bitserial.num_rows_per_subarray = 256;
    bitserial.num_cols_per_row = 16;
    PimDeviceConfig fulcrum = tinyConfig(PimDeviceEnum::PIM_DEVICE_FULCRUM);
    fulcrum.num_banks_per_rank = 4;
    fulcrum.num_subarrays_per_bank = 4;
    fulcrum.num_rows_per_subarray = 64;
    fulcrum.num_cols_per_row = 64;
    ASSERT_EQ(bitserial.numCores(), 16u);
    ASSERT_EQ(fulcrum.numCores(), 8u);

    for (const PimDeviceConfig &config : {bitserial, fulcrum}) {
        for (const uint64_t seed : {1, 2, 3, 4, 5}) {
            SCOPED_TRACE(::testing::Message()
                         << pimDeviceName(config.device) << ", seed "
                         << seed);
            const auto [allocs, failures] =
                runPlacementTrace(config, seed);
            ASSERT_FALSE(::testing::Test::HasFailure());
            // At least 5% of the allocations run out of capacity.
            EXPECT_GE(failures * 20, allocs)
                << failures << " of " << allocs << " failed";
        }
    }
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
