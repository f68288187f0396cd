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
    : config_(config), num_cores_(config.numCores())
{
    if (num_cores_ > 0)
        runs_.emplace(0, RowAllocator(config_.rowsPerCore()));
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
        const uint64_t chunks = elems / cols + (elems % cols != 0);
        return chunks > UINT64_MAX / bits ? UINT64_MAX : chunks * bits;
    }
    // Horizontal: whole rows of elems_per_row elements. The row is
    // charged fully even when partially used (paper Section V-E).
    const uint64_t elems_per_row =
        std::max<uint64_t>(1, config_.colsPerCore() / bits);
    return elems / elems_per_row + (elems % elems_per_row != 0);
}

PimResourceMgr::Runs::iterator
PimResourceMgr::splitAt(uint64_t core)
{
    if (core >= num_cores_)
        return runs_.end();
    const auto holder = std::prev(runs_.upper_bound(core));
    if (holder->first == core)
        return holder;
    return runs_.emplace_hint(std::next(holder), core, holder->second);
}

void
PimResourceMgr::coalesce(uint64_t begin, uint64_t end)
{
    // The run at core 0 has no predecessor.
    auto it = runs_.lower_bound(std::max<uint64_t>(begin, 1));
    while (it != runs_.end() && it->first <= end) {
        if (std::prev(it)->second == it->second)
            it = runs_.erase(it);
        else
            ++it;
    }
}

void
PimResourceMgr::releaseSpan(const PimRowSpan &span)
{
    // The span's cores shared their rows when it was placed; later
    // placements may have split them over several runs since, and
    // their ends may lie inside runs that reach past the span.
    const uint64_t end = span.core_begin + span.num_cores;
    const auto last = splitAt(end);
    for (auto it = splitAt(span.core_begin); it != last; ++it)
        it->second.release(span.row_offset, span.num_rows);
    coalesce(span.core_begin, end);
}

std::optional<PimPlacement>
PimResourceMgr::place(uint64_t num_elements, unsigned bits,
                      bool v_layout, uint64_t first_core)
{
    if (num_cores_ == 0)
        return std::nullopt;
    // The object's i-th core holds base + (i < rem) elements, so its
    // cores form one or two relative ranges of one row count each,
    // and each range may wrap past the last core: up to four ranges
    // of absolute cores [begin, end).
    struct Range
    {
        uint64_t begin, end, rows;
    };
    Range ranges[4];
    size_t num_ranges = 0;
    const auto addRange = [&](uint64_t from, uint64_t to, uint64_t rows) {
        const uint64_t begin = (first_core + from) % num_cores_;
        const uint64_t end = begin + (to - from);
        if (end <= num_cores_) {
            ranges[num_ranges++] = {begin, end, rows};
        } else {
            ranges[num_ranges++] = {begin, num_cores_, rows};
            ranges[num_ranges++] = {0, end - num_cores_, rows};
        }
    };
    const uint64_t base = num_elements / num_cores_;
    const uint64_t rem = num_elements % num_cores_;
    const uint64_t used = std::min(num_elements, num_cores_);
    const uint64_t rows_base = rowsForRegion(base, bits, v_layout);
    const uint64_t rows_extra = rowsForRegion(base + 1, bits, v_layout);
    if (rem == 0) {
        addRange(0, used, rows_base);
    } else if (base == 0 || rows_extra == rows_base) {
        addRange(0, used, rows_extra);
    } else {
        addRange(0, rem, rows_extra);
        addRange(rem, used, rows_base);
    }

    PimPlacement placement;
    placement.first_core = first_core;
    placement.device_cores = num_cores_;
    bool placed = true;
    for (size_t r = 0; r < num_ranges && placed; ++r) {
        const Range &range = ranges[r];
        const auto last = splitAt(range.end);
        for (auto it = splitAt(range.begin); it != last; ++it) {
            const uint64_t offset = it->second.allocate(range.rows);
            if (offset == UINT64_MAX) {
                placed = false;
                break;
            }
            placement.spans.push_back({it->first, runEnd(it) - it->first,
                                       offset, range.rows});
        }
    }
    if (!placed) {
        for (const PimRowSpan &span : placement.spans)
            releaseSpan(span);
    }
    for (size_t r = 0; r < num_ranges; ++r)
        coalesce(ranges[r].begin, ranges[r].end);
    if (!placed)
        return std::nullopt;
    return placement;
}

PimDataObject *
PimResourceMgr::create(uint64_t num_elements, PimDataType data_type,
                       bool v_layout, uint64_t first_core, bool quiet,
                       const char *exhausted)
{
    const unsigned bits = pimBitsOfDataType(data_type);
    std::optional<PimPlacement> placement =
        place(num_elements, bits, v_layout, first_core);
    if (!placement) {
        // The cache may be parked on the rows placement needs.
        const bool flushed = free_list_count_ > 0;
        if (flushed) {
            flushFreeList();
            placement = place(num_elements, bits, v_layout, first_core);
        }
        if (!placement) {
            if (!quiet)
                logError(exhausted);
            return nullptr;
        }
    }
    // Storage is allocated only once the rows are placed, so a request
    // past the device's capacity never sizes host memory.
    auto obj = std::make_unique<PimDataObject>(next_id_, num_elements,
                                               data_type, v_layout,
                                               std::move(*placement));
    PimDataObject *raw = obj.get();
    objects_.insert(std::move(obj));
    ++next_id_;
    return raw;
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
        // Association requires the reference's element distribution.
        // The bucket fixes the element count, so the first core alone
        // decides it.
        for (size_t i = cached.size(); i-- > 0;) {
            if (cached[i]->firstCore() == ref->firstCore()) {
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

    // Rotate the starting core per allocation so that many small
    // objects spread across the device instead of piling onto the
    // first cores.
    const uint64_t first_core = next_core_;
    if (num_cores_ > 0)
        next_core_ =
            (next_core_ + std::min(num_elements, num_cores_)) % num_cores_;
    return create(num_elements, data_type, v_layout, first_core,
                  quiet_exhaustion, "pimAlloc: device capacity exhausted");
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
    return create(ref.numElements(), data_type, ref.isVLayout(),
                  ref.firstCore(), quiet_exhaustion,
                  "pimAllocAssociated: device capacity exhausted");
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
    for (const PimRowSpan &span : obj.spans())
        releaseSpan(span);
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
    const uint64_t total = num_cores_ * rows_per_core;
    uint64_t used = 0;
    for (auto it = runs_.begin(); it != runs_.end(); ++it)
        used += (runEnd(it) - it->first) *
                (rows_per_core - it->second.freeRows());
    // Rows parked in the free-list are available capacity, not live
    // allocations (the cache is flushed whenever placement needs it).
    for (const auto &[key, bucket] : free_list_) {
        for (const auto &obj : bucket) {
            for (const PimRowSpan &span : obj->spans())
                used -= span.num_cores * span.num_rows;
        }
    }
    return total == 0 ? 0.0
                      : static_cast<double>(used) /
                          static_cast<double>(total);
}

} // namespace pimeval
