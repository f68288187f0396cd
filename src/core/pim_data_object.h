/**
 * @file
 * PIM data objects and their placement across PIM cores.
 *
 * A PIM data object is a 1-D vector of fixed-width elements spread
 * over the device's PIM cores (paper Section V-A). Depending on the
 * architecture, elements are laid out vertically (bit i of an element
 * in row base+i — bit-serial) or horizontally (element bits contiguous
 * in a row — Fulcrum / bank-level).
 *
 * Placement is balanced, so it needs no per-core record. An n-element
 * object on a C-core device starts at a first core f: its i-th core,
 * (f + i) mod C for i < min(n, C), holds the n / C + (i < n mod C)
 * consecutive elements that follow those of cores 0..i-1. The rows
 * those cores hold are kept as row spans, one per run of cores (see
 * PimResourceMgr) the object occupies.
 *
 * Functional simulation stores each element canonically as the low
 * @c bits_per_element bits of a uint64_t; the layout affects only
 * placement metadata and the performance/energy models.
 */

#ifndef PIMEVAL_CORE_PIM_DATA_OBJECT_H_
#define PIMEVAL_CORE_PIM_DATA_OBJECT_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <vector>

#include "core/pim_types.h"

namespace pimeval {

/**
 * Rows an object holds in neighbouring cores: each of cores
 * [core_begin, core_begin + num_cores) holds rows
 * [row_offset, row_offset + num_rows).
 */
struct PimRowSpan
{
    uint64_t core_begin = 0;
    uint64_t num_cores = 0;
    uint64_t row_offset = 0;
    uint64_t num_rows = 0;
};

/**
 * Where an object lives: its first core on a device of
 * @c device_cores cores and the rows it holds there.
 */
struct PimPlacement
{
    uint64_t first_core = 0;
    uint64_t device_cores = 1;
    std::vector<PimRowSpan> spans; ///< disjoint, in placement order
};

/**
 * What an object fixes of a command's cost profile (PimOpProfile):
 * the element width and count, and how balanced placement spreads the
 * count over the device's C cores. C is fixed per device, so the last
 * two fields follow from the count.
 */
struct PimCostShape
{
    unsigned bits = 0;
    uint64_t num_elements = 0;
    uint64_t max_elems_per_core = 0; ///< ceil(n / C)
    uint64_t cores_used = 0;         ///< min(n, C)

    /** The shape of @p n elements of @p bits bits on @p cores cores. */
    static PimCostShape
    of(unsigned bits, uint64_t n, uint64_t cores)
    {
        return {bits, n, n / cores + (n % cores != 0),
                std::min(n, cores)};
    }
};

/**
 * A PIM data object: elements, layout, and placement.
 *
 * What a command needs of its object is computed once, when the
 * object is built: the cost shape, the element mask and whether the
 * type is signed. A free-list recycle keeps the width, the count and
 * the placement, so only what follows from the type is refreshed.
 */
class PimDataObject
{
  public:
    PimDataObject(PimObjId id, uint64_t num_elements,
                  PimDataType data_type, bool v_layout,
                  PimPlacement placement);

    PimObjId id() const { return id_; }
    uint64_t numElements() const { return shape_.num_elements; }
    PimDataType dataType() const { return data_type_; }
    unsigned bitsPerElement() const { return shape_.bits; }
    bool isVLayout() const { return v_layout_; }
    bool isSigned() const { return signed_; }

    /** The unscaled cost shape of a command over this object. */
    const PimCostShape &costShape() const { return shape_; }

    /** The core holding element 0. */
    uint64_t firstCore() const { return placement_.first_core; }

    /** The rows held, one span per run of cores occupied. */
    const std::vector<PimRowSpan> &spans() const
    {
        return placement_.spans;
    }

    /** Largest element count any single core must process:
     *  ceil(n / C). */
    uint64_t maxElementsPerRegion() const
    {
        return shape_.max_elems_per_core;
    }

    /** Number of distinct cores holding part of this object:
     *  min(n, C). */
    uint64_t numCoresUsed() const { return shape_.cores_used; }

    /** Canonical raw storage: low bits_per_element bits valid. */
    std::vector<uint64_t> &raw() { return data_; }
    const std::vector<uint64_t> &raw() const { return data_; }

    /** Element access with truncation to the element width. */
    uint64_t getRaw(uint64_t index) const { return data_[index]; }
    void setRaw(uint64_t index, uint64_t value)
    {
        data_[index] = value & mask_;
    }

    /** Signed interpretation (sign extended). */
    int64_t getSigned(uint64_t index) const;

    /** Element mask for this width. */
    uint64_t elementMask() const { return mask_; }

    /** Total bytes of payload (bits x elements, rounded to bytes). */
    uint64_t payloadBytes() const
    {
        return (shape_.num_elements * shape_.bits + 7) / 8;
    }

    /**
     * Reset identity for allocator free-list reuse: shape, layout, and
     * placement stay; the object gets a fresh id, the (same-width)
     * element type with what follows from it, and data cleared to the
     * fresh-allocation state. Pristine objects (fusion-elided dead
     * temporaries whose stores never happened) are already all-zero,
     * so the fill is skipped.
     */
    void recycle(PimObjId id, PimDataType data_type)
    {
        assert(pimBitsOfDataType(data_type) == shape_.bits);
        id_ = id;
        data_type_ = data_type;
        signed_ = pimIsSigned(data_type);
        if (!pristine_)
            std::fill(data_.begin(), data_.end(), 0);
        pristine_ = false;
    }

    /** Storage is known all-zero (never written since the last
     *  zeroing); recycle() may skip its fill. */
    bool isPristine() const { return pristine_; }
    void markPristine() { pristine_ = true; }

  private:
    // What every command reads comes first, within one cache line.
    PimObjId id_;
    PimDataType data_type_;
    bool signed_;
    bool v_layout_;
    bool pristine_ = false;
    PimCostShape shape_;
    uint64_t mask_;
    std::vector<uint64_t> data_;
    PimPlacement placement_;
};

} // namespace pimeval

#endif // PIMEVAL_CORE_PIM_DATA_OBJECT_H_
