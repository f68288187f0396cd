/**
 * @file
 * Resource manager implementation.
 */

#include "core/pim_resource_mgr.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "core/pim_metrics.h"
#include "util/logging.h"

namespace pimeval {

RowAllocator::RowAllocator(uint64_t num_rows) : num_rows_(num_rows)
{
    if (num_rows_ > 0)
        free_[0] = num_rows_;
}

uint64_t
RowAllocator::allocate(uint64_t count)
{
    if (count == 0)
        return UINT64_MAX;
    for (auto it = free_.begin(); it != free_.end(); ++it) {
        if (it->second >= count) {
            const uint64_t offset = it->first;
            const uint64_t remaining = it->second - count;
            free_.erase(it);
            if (remaining > 0)
                free_[offset + count] = remaining;
            return offset;
        }
    }
    return UINT64_MAX;
}

void
RowAllocator::release(uint64_t offset, uint64_t count)
{
    if (count == 0)
        return;
    assert(offset + count <= num_rows_);
    auto [it, inserted] = free_.emplace(offset, count);
    assert(inserted);
    // Merge with successor.
    auto next = std::next(it);
    if (next != free_.end() && it->first + it->second == next->first) {
        it->second += next->second;
        free_.erase(next);
    }
    // Merge with predecessor.
    if (it != free_.begin()) {
        auto prev = std::prev(it);
        if (prev->first + prev->second == it->first) {
            prev->second += it->second;
            free_.erase(it);
        }
    }
}

uint64_t
RowAllocator::freeRows() const
{
    uint64_t total = 0;
    for (const auto &[offset, len] : free_)
        total += len;
    return total;
}

uint64_t
RowAllocator::largestFreeExtent() const
{
    uint64_t largest = 0;
    for (const auto &[offset, len] : free_)
        largest = std::max(largest, len);
    return largest;
}

void
PimObjectTable::place(std::unique_ptr<PimDataObject> obj)
{
    size_t i = slotOf(obj->id());
    while (slots_[i].obj)
        i = (i + 1) & mask();
    slots_[i].id = obj->id();
    slots_[i].obj = std::move(obj);
}

void
PimObjectTable::insert(std::unique_ptr<PimDataObject> obj)
{
    assert(obj && obj->id() >= 0 && !get(obj->id()));
    if (2 * (size_ + 1) > slots_.size()) {
        std::vector<Slot> old =
            std::exchange(slots_, std::vector<Slot>(2 * slots_.size()));
        for (Slot &slot : old) {
            if (slot.obj)
                place(std::move(slot.obj));
        }
    }
    place(std::move(obj));
    ++size_;
}

std::unique_ptr<PimDataObject>
PimObjectTable::take(PimObjId id)
{
    if (id < 0)
        return nullptr;
    size_t hole = slotOf(id);
    while (slots_[hole].obj && slots_[hole].id != id)
        hole = (hole + 1) & mask();
    std::unique_ptr<PimDataObject> out = std::move(slots_[hole].obj);
    if (!out)
        return nullptr;
    slots_[hole].id = -1;
    --size_;
    // Backward-shift delete: an entry later in the chain moves into
    // the hole when the hole lies on its probe path, i.e. its home
    // slot is no nearer to it than the hole is (distances mod size).
    for (size_t j = (hole + 1) & mask(); slots_[j].obj;
         j = (j + 1) & mask()) {
        const size_t home = slotOf(slots_[j].id);
        if (((j - home) & mask()) >= ((j - hole) & mask())) {
            slots_[hole] = std::move(slots_[j]);
            slots_[j].id = -1;
            hole = j;
        }
    }
    return out;
}

PimResourceMgr::PimResourceMgr(const PimDeviceConfig &config)
    : config_(config)
{
    const uint64_t num_cores = config_.numCores();
    row_allocators_.reserve(num_cores);
    for (uint64_t c = 0; c < num_cores; ++c)
        row_allocators_.emplace_back(config_.rowsPerCore());
}

uint64_t
PimResourceMgr::rowsForRegion(uint64_t elems, unsigned bits,
                              bool v_layout) const
{
    if (elems == 0)
        return 0;
    if (v_layout) {
        // Groups of `cols` elements stacked in `bits`-row chunks.
        const uint64_t cols = config_.colsPerCore();
        const uint64_t chunks = (elems + cols - 1) / cols;
        return chunks * bits;
    }
    // Horizontal: whole rows of elems_per_row elements. The row is
    // charged fully even when partially used (paper Section V-E).
    const uint64_t elems_per_row =
        std::max<uint64_t>(1, config_.colsPerCore() / bits);
    return (elems + elems_per_row - 1) / elems_per_row;
}

std::vector<uint64_t>
PimResourceMgr::balancedSplit(uint64_t num_elements) const
{
    const uint64_t num_cores = config_.numCores();
    std::vector<uint64_t> counts(num_cores, 0);
    const uint64_t base = num_elements / num_cores;
    const uint64_t rem = num_elements % num_cores;
    for (uint64_t c = 0; c < num_cores; ++c)
        counts[c] = base + (c < rem ? 1 : 0);
    return counts;
}

bool
PimResourceMgr::placeRegions(
    PimDataObject &obj,
    const std::vector<std::pair<uint64_t, uint64_t>> &core_elem_counts)
{
    const unsigned bits = obj.bitsPerElement();
    uint64_t elem_offset = 0;
    std::vector<PimRegion> placed;
    placed.reserve(core_elem_counts.size());

    for (const auto &[core_id, elems] : core_elem_counts) {
        const uint64_t rows = rowsForRegion(elems, bits, obj.isVLayout());
        const uint64_t offset = row_allocators_[core_id].allocate(rows);
        if (offset == UINT64_MAX) {
            // Roll back everything placed so far.
            for (const auto &region : placed) {
                row_allocators_[region.core_id].release(region.row_offset,
                                                        region.num_rows);
            }
            return false;
        }
        PimRegion region;
        region.core_id = core_id;
        region.row_offset = offset;
        region.num_rows = rows;
        region.elem_offset = elem_offset;
        region.num_elements = elems;
        placed.push_back(region);
        elem_offset += elems;
    }
    obj.setRegions(std::move(placed));
    return true;
}

PimDataObject *
PimResourceMgr::takeFromFreeList(uint64_t num_elements, unsigned bits,
                                 bool v_layout, PimDataType data_type,
                                 const PimDataObject *ref)
{
    const auto bucket =
        free_list_.find(FreeKey{num_elements, bits, v_layout});
    if (bucket == free_list_.end()) {
        PIM_METRIC_COUNT("freelist.miss", 1);
        return nullptr;
    }
    auto &cached = bucket->second;
    size_t pick = cached.size();
    if (ref == nullptr) {
        pick = cached.size() - 1;
    } else {
        // Association requires the reference's element distribution:
        // the same per-region core and element count sequence (row
        // offsets within a core are irrelevant to pairing).
        for (size_t i = cached.size(); i-- > 0;) {
            const auto &regions = cached[i]->regions();
            const auto &want = ref->regions();
            if (regions.size() != want.size())
                continue;
            bool match = true;
            for (size_t r = 0; r < regions.size(); ++r) {
                if (regions[r].core_id != want[r].core_id ||
                    regions[r].num_elements != want[r].num_elements) {
                    match = false;
                    break;
                }
            }
            if (match) {
                pick = i;
                break;
            }
        }
        if (pick == cached.size()) {
            PIM_METRIC_COUNT("freelist.miss", 1);
            return nullptr;
        }
    }
    PIM_METRIC_COUNT("freelist.hit", 1);

    std::unique_ptr<PimDataObject> obj = std::move(cached[pick]);
    cached.erase(cached.begin() + pick);
    if (cached.empty())
        free_list_.erase(bucket);
    --free_list_count_;

    obj->recycle(next_id_, data_type);
    PimDataObject *raw = obj.get();
    objects_.insert(std::move(obj));
    ++next_id_;
    return raw;
}

PimDataObject *
PimResourceMgr::alloc(uint64_t num_elements, PimDataType data_type,
                      bool v_layout, bool quiet_exhaustion)
{
    if (num_elements == 0) {
        logError("pimAlloc: zero-element allocation rejected");
        return nullptr;
    }
    const unsigned bits = pimBitsOfDataType(data_type);
    if (PimDataObject *hit = takeFromFreeList(num_elements, bits,
                                              v_layout, data_type,
                                              nullptr))
        return hit;

    auto obj = std::make_unique<PimDataObject>(next_id_, num_elements,
                                               data_type, v_layout);
    // Rotate the starting core per allocation so that many small
    // objects spread across the device instead of piling onto the
    // first cores.
    const auto counts = balancedSplit(num_elements);
    const uint64_t num_cores = counts.size();
    std::vector<std::pair<uint64_t, uint64_t>> nonzero;
    uint64_t used = 0;
    for (uint64_t c = 0; c < num_cores; ++c) {
        if (counts[c] > 0) {
            nonzero.emplace_back((next_core_ + c) % num_cores,
                                 counts[c]);
            ++used;
        }
    }
    next_core_ = (next_core_ + used) % num_cores;
    if (!placeRegions(*obj, nonzero)) {
        // The cache may be parked on the rows placement needs.
        const bool flushed = free_list_count_ > 0;
        if (flushed)
            flushFreeList();
        if (!flushed || !placeRegions(*obj, nonzero)) {
            if (!quiet_exhaustion)
                logError("pimAlloc: device capacity exhausted");
            return nullptr;
        }
    }
    PimDataObject *raw = obj.get();
    objects_.insert(std::move(obj));
    ++next_id_;
    return raw;
}

PimDataObject *
PimResourceMgr::allocAssociated(const PimDataObject &ref,
                                PimDataType data_type,
                                bool quiet_exhaustion)
{
    const unsigned bits = pimBitsOfDataType(data_type);
    if (PimDataObject *hit = takeFromFreeList(ref.numElements(), bits,
                                              ref.isVLayout(),
                                              data_type, &ref))
        return hit;

    auto obj = std::make_unique<PimDataObject>(
        next_id_, ref.numElements(), data_type, ref.isVLayout());
    std::vector<std::pair<uint64_t, uint64_t>> counts;
    counts.reserve(ref.regions().size());
    for (const auto &region : ref.regions())
        counts.emplace_back(region.core_id, region.num_elements);
    if (!placeRegions(*obj, counts)) {
        const bool flushed = free_list_count_ > 0;
        if (flushed)
            flushFreeList();
        if (!flushed || !placeRegions(*obj, counts)) {
            if (!quiet_exhaustion)
                logError("pimAllocAssociated: device capacity "
                         "exhausted");
            return nullptr;
        }
    }
    PimDataObject *raw = obj.get();
    objects_.insert(std::move(obj));
    ++next_id_;
    return raw;
}

bool
PimResourceMgr::free(PimObjId id)
{
    std::unique_ptr<PimDataObject> obj = objects_.take(id);
    if (!obj)
        return false;
    if (free_list_count_ < kMaxFreeListObjects) {
        // Park the whole object — storage and row placement — for
        // same-shape reallocation instead of tearing it down.
        free_list_[freeKeyFor(*obj)].push_back(std::move(obj));
        ++free_list_count_;
        return true;
    }
    releaseRows(*obj);
    return true;
}

bool
PimResourceMgr::freeElided(PimObjId id)
{
    PimDataObject *obj = objects_.get(id);
    if (!obj)
        return false;
    obj->markPristine();
    PIM_METRIC_COUNT("freelist.pristine", 1);
    return free(id);
}

void
PimResourceMgr::releaseRows(const PimDataObject &obj)
{
    for (const auto &region : obj.regions()) {
        row_allocators_[region.core_id].release(region.row_offset,
                                                region.num_rows);
    }
}

void
PimResourceMgr::flushFreeList()
{
    if (free_list_count_ > 0)
        PIM_METRIC_COUNT("freelist.flush", 1);
    for (const auto &[key, bucket] : free_list_) {
        for (const auto &obj : bucket)
            releaseRows(*obj);
    }
    free_list_.clear();
    free_list_count_ = 0;
}

double
PimResourceMgr::utilization() const
{
    const uint64_t rows_per_core = config_.rowsPerCore();
    uint64_t total = 0, used = 0;
    for (const auto &alloc : row_allocators_) {
        total += rows_per_core;
        used += rows_per_core - alloc.freeRows();
    }
    // Rows parked in the free-list are available capacity, not live
    // allocations (the cache is flushed whenever placement needs it).
    for (const auto &[key, bucket] : free_list_) {
        for (const auto &obj : bucket) {
            for (const auto &region : obj->regions())
                used -= region.num_rows;
        }
    }
    return total == 0 ? 0.0
                      : static_cast<double>(used) /
                          static_cast<double>(total);
}

} // namespace pimeval
