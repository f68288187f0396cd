/**
 * @file
 * PIM resource manager: object allocation, placement, and tracking
 * (paper Section V-A).
 *
 * Objects are spread across all PIM cores to maximize parallelism,
 * each from a first core that rotates per allocation. Rows are handed
 * out first-fit so that objects can be freed and reallocated
 * throughout a benchmark (e.g., per-iteration temporaries in K-means).
 *
 * The cores are kept as runs: maximal ranges of neighbouring cores
 * whose free rows are identical, each owning one shared first-fit
 * allocator. An object's cores form at most four ranges that need one
 * row count each (the wrap past the last core and the cores holding
 * one extra element cut them), so an allocation splits runs only at
 * those range ends and first-fits once per run; a free releases each
 * of the object's row spans and merges neighbouring runs that became
 * equal. Every core of a run has seen the same allocations and
 * releases, so each first-fit decision, each capacity failure and the
 * utilization equal those of one allocator per core, at a cost that
 * follows the number of runs rather than the number of cores.
 *
 * pimAllocAssociated() clones the element distribution of a reference
 * object (its first core) so corresponding elements of both objects
 * land in the same core — the precondition for element-wise SIMD
 * commands.
 */

#ifndef PIMEVAL_CORE_PIM_RESOURCE_MGR_H_
#define PIMEVAL_CORE_PIM_RESOURCE_MGR_H_

#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <tuple>
#include <vector>

#include "core/pim_data_object.h"
#include "core/pim_params.h"

namespace pimeval {

/**
 * First-fit row interval allocator for one PIM core, or for a run of
 * cores that share their free rows.
 */
class RowAllocator
{
  public:
    explicit RowAllocator(uint64_t num_rows);

    /**
     * Allocate @p count contiguous rows.
     * @return row offset, or UINT64_MAX when full.
     */
    uint64_t allocate(uint64_t count);

    /** Return rows to the free pool (merges adjacent intervals). */
    void release(uint64_t offset, uint64_t count);

    /** Rows currently free. */
    uint64_t freeRows() const;

    /** Largest single free extent. */
    uint64_t largestFreeExtent() const;

    /** Same free rows. Intervals are kept merged, so equal free rows
     *  mean equal interval maps. */
    bool operator==(const RowAllocator &) const = default;

  private:
    uint64_t num_rows_;
    std::map<uint64_t, uint64_t> free_; ///< offset -> length
};

/**
 * Live objects by id: an open-addressing table probed linearly from
 * slot id & mask. Ids are issued in sequence and never reused, so the
 * live ids sit in consecutive slots and a lookup is one probe in the
 * common case. The table doubles once it would pass half load, and an
 * erase shifts the rest of its probe chain back (no tombstones), so
 * its size follows the peak live count, not the number of ids issued.
 */
class PimObjectTable
{
  public:
    PimObjectTable() : slots_(kMinSlots) {}

    /** The live object with @p id; nullptr for a freed, negative or
     *  never-issued id. */
    PimDataObject *get(PimObjId id) const
    {
        if (id < 0)
            return nullptr;
        for (size_t i = slotOf(id);; i = (i + 1) & mask()) {
            const Slot &slot = slots_[i];
            if (!slot.obj || slot.id == id)
                return slot.obj.get();
        }
    }

    /** Add @p obj under its id, which must not be live. */
    void insert(std::unique_ptr<PimDataObject> obj);

    /** Remove and return the object with @p id (nullptr if none). */
    std::unique_ptr<PimDataObject> take(PimObjId id);

    size_t size() const { return size_; }

  private:
    struct Slot
    {
        PimObjId id = -1;
        std::unique_ptr<PimDataObject> obj; ///< null = empty slot
    };

    size_t mask() const { return slots_.size() - 1; }
    size_t slotOf(PimObjId id) const
    {
        return static_cast<size_t>(id) & mask();
    }
    /** Place @p obj in the first empty slot of its probe chain. */
    void place(std::unique_ptr<PimDataObject> obj);

    static constexpr size_t kMinSlots = 64; ///< a power of two
    std::vector<Slot> slots_;
    size_t size_ = 0;
};

/**
 * Device-wide resource manager.
 */
class PimResourceMgr
{
  public:
    explicit PimResourceMgr(const PimDeviceConfig &config);

    /**
     * Allocate an object spread across cores.
     * @param v_layout vertical (bit-serial) or horizontal placement.
     * @param quiet_exhaustion suppress the capacity-exhausted error
     *        log — for callers that can reclaim capacity (e.g. flush
     *        fusion-deferred frees) and retry.
     * @return nullptr on failure (capacity exhausted).
     */
    PimDataObject *alloc(uint64_t num_elements, PimDataType data_type,
                         bool v_layout,
                         bool quiet_exhaustion = false);

    /**
     * Allocate with the same element distribution as @p ref.
     */
    PimDataObject *allocAssociated(const PimDataObject &ref,
                                   PimDataType data_type,
                                   bool quiet_exhaustion = false);

    /** Free an object; @return false for unknown ids. */
    bool free(PimObjId id);

    /**
     * Free a fusion-elided dead temporary: the object was allocated,
     * nominally written, and freed without its storage ever being
     * touched, so it is still in the fresh-allocation all-zero state.
     * Marks it pristine before parking it, letting the next same-shape
     * recycle() skip the zero-fill.
     */
    bool freeElided(PimObjId id);

    /** Look up an object (nullptr if unknown). */
    PimDataObject *get(PimObjId id) { return objects_.get(id); }
    const PimDataObject *get(PimObjId id) const
    {
        return objects_.get(id);
    }

    /**
     * Live object count. Free-list entries are not live objects —
     * counting them would make alloc/free churn inflate every
     * numObjects()-based report.
     */
    size_t numObjects() const { return objects_.size(); }

    /**
     * Fraction of device rows currently allocated, for reporting.
     * Rows parked in the free-list are reported free: the cache is an
     * implementation detail and is flushed whenever placement needs
     * the capacity back.
     */
    double utilization() const;

    /** Release every cached free-list object (rows return to the
     *  allocators). */
    void flushFreeList();

  private:
    /** Core runs: first core -> the allocator its run shares. A run
     *  ends where the next one begins, the last at the core count. */
    using Runs = std::map<uint64_t, RowAllocator>;

    /** Rows one core needs for @p elems elements of @p bits
     *  (UINT64_MAX when the count would not fit in 64 bits). */
    uint64_t rowsForRegion(uint64_t elems, unsigned bits,
                           bool v_layout) const;

    /**
     * Place the rows of an object whose element 0 sits on
     * @p first_core, or leave every core as it was and return
     * nullopt when some core lacks them.
     */
    std::optional<PimPlacement> place(uint64_t num_elements,
                                      unsigned bits, bool v_layout,
                                      uint64_t first_core);

    /** Place and register a new object, flushing the free list and
     *  retrying once when rows are short; on failure logs
     *  @p exhausted (unless @p quiet) and returns nullptr. */
    PimDataObject *create(uint64_t num_elements, PimDataType data_type,
                          bool v_layout, uint64_t first_core,
                          bool quiet, const char *exhausted);

    /** The run starting at @p core, split off the run holding it
     *  (end() for the core count). */
    Runs::iterator splitAt(uint64_t core);

    /** One past the last core of run @p it. */
    uint64_t runEnd(Runs::const_iterator it) const
    {
        const auto next = std::next(it);
        return next == runs_.end() ? num_cores_ : next->first;
    }

    /** Merge each run starting in [begin, end] into its predecessor
     *  when their free rows are equal. */
    void coalesce(uint64_t begin, uint64_t end);

    /** Return a span's rows on every core it covers. */
    void releaseSpan(const PimRowSpan &span);

    /** Free-list bucket key: objects of one storage shape. */
    using FreeKey = std::tuple<uint64_t, unsigned, bool>;

    static FreeKey freeKeyFor(const PimDataObject &obj)
    {
        return {obj.numElements(), obj.bitsPerElement(),
                obj.isVLayout()};
    }

    /**
     * Pop a cached object of the given shape, recycle its identity,
     * and re-register it as live. @p ref, when given, restricts the
     * match to objects with the reference's first core, i.e. its
     * element distribution (the pimAllocAssociated contract). Returns
     * nullptr on miss.
     */
    PimDataObject *takeFromFreeList(uint64_t num_elements,
                                    unsigned bits, bool v_layout,
                                    PimDataType data_type,
                                    const PimDataObject *ref);

    /** Release one cached object's rows back to the allocators. */
    void releaseRows(const PimDataObject &obj);

    PimDeviceConfig config_;
    uint64_t num_cores_;
    PimObjId next_id_ = 0;
    /** Rotating start core for small-object spreading. */
    uint64_t next_core_ = 0;
    PimObjectTable objects_;
    Runs runs_;
    /**
     * Freed objects kept whole (storage + row placement) for
     * same-shape reallocation — PIMbench apps alloc/free identical
     * temporaries every iteration. Capped; never counted as live.
     */
    std::map<FreeKey, std::vector<std::unique_ptr<PimDataObject>>>
        free_list_;
    size_t free_list_count_ = 0;
    static constexpr size_t kMaxFreeListObjects = 16;
};

} // namespace pimeval

#endif // PIMEVAL_CORE_PIM_RESOURCE_MGR_H_
