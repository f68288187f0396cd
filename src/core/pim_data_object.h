/**
 * @file
 * PIM data objects and their placement across PIM cores.
 *
 * A PIM data object is a 1-D vector of fixed-width elements spanning
 * one or more 2-D memory regions across PIM cores (paper Section V-A).
 * Depending on the architecture, elements are laid out vertically
 * (bit i of an element in row base+i — bit-serial) or horizontally
 * (element bits contiguous in a row — Fulcrum / bank-level).
 *
 * Functional simulation stores each element canonically as the low
 * @c bits_per_element bits of a uint64_t; the layout affects only
 * placement metadata and the performance/energy models.
 */

#ifndef PIMEVAL_CORE_PIM_DATA_OBJECT_H_
#define PIMEVAL_CORE_PIM_DATA_OBJECT_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/pim_types.h"

namespace pimeval {

/**
 * One contiguous allocation inside a single PIM core.
 */
struct PimRegion
{
    uint64_t core_id = 0;
    uint64_t row_offset = 0;    ///< first row of the region
    uint64_t num_rows = 0;      ///< rows occupied
    uint64_t elem_offset = 0;   ///< first element index held here
    uint64_t num_elements = 0;  ///< elements held in this region
};

/**
 * A PIM data object: elements, layout, and placement.
 */
class PimDataObject
{
  public:
    PimDataObject(PimObjId id, uint64_t num_elements,
                  PimDataType data_type, bool v_layout);

    PimObjId id() const { return id_; }
    uint64_t numElements() const { return num_elements_; }
    PimDataType dataType() const { return data_type_; }
    unsigned bitsPerElement() const { return bits_per_element_; }
    bool isVLayout() const { return v_layout_; }
    bool isSigned() const { return pimIsSigned(data_type_); }

    const std::vector<PimRegion> &regions() const { return regions_; }

    /** Record the placement; its largest region is stored with it, so
     *  costing a command never rescans the regions. */
    void setRegions(std::vector<PimRegion> regions);

    /** Largest element count any single core must process. */
    uint64_t maxElementsPerRegion() const { return max_elems_per_region_; }

    /** Number of distinct cores holding part of this object. */
    uint64_t numCoresUsed() const { return regions_.size(); }

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
        return (num_elements_ * bits_per_element_ + 7) / 8;
    }

    /**
     * Reset identity for allocator free-list reuse: shape, layout, and
     * row placement stay; the object gets a fresh id, the (same-width)
     * element type, and data cleared to the fresh-allocation state.
     * Pristine objects (fusion-elided dead temporaries whose stores
     * never happened) are already all-zero, so the fill is skipped.
     */
    void recycle(PimObjId id, PimDataType data_type)
    {
        id_ = id;
        data_type_ = data_type;
        if (!pristine_)
            std::fill(data_.begin(), data_.end(), 0);
        pristine_ = false;
    }

    /** Storage is known all-zero (never written since the last
     *  zeroing); recycle() may skip its fill. */
    bool isPristine() const { return pristine_; }
    void markPristine() { pristine_ = true; }

  private:
    PimObjId id_;
    uint64_t num_elements_;
    PimDataType data_type_;
    unsigned bits_per_element_;
    bool v_layout_;
    uint64_t mask_;
    bool pristine_ = false;
    std::vector<PimRegion> regions_;
    uint64_t max_elems_per_region_ = 0;
    std::vector<uint64_t> data_;
};

} // namespace pimeval

#endif // PIMEVAL_CORE_PIM_DATA_OBJECT_H_
