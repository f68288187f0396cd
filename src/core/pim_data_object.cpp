/**
 * @file
 * PimDataObject implementation.
 */

#include "core/pim_data_object.h"

#include <utility>

namespace pimeval {

PimDataObject::PimDataObject(PimObjId id, uint64_t num_elements,
                             PimDataType data_type, bool v_layout,
                             PimPlacement placement)
    : id_(id), num_elements_(num_elements), data_type_(data_type),
      bits_per_element_(pimBitsOfDataType(data_type)),
      v_layout_(v_layout),
      mask_(bits_per_element_ >= 64 ? ~0ull
                                    : ((1ull << bits_per_element_) - 1)),
      placement_(std::move(placement)), data_(num_elements, 0)
{
}

int64_t
PimDataObject::getSigned(uint64_t index) const
{
    const uint64_t v = data_[index];
    if (!isSigned() || bits_per_element_ >= 64)
        return static_cast<int64_t>(v);
    const uint64_t sign = 1ull << (bits_per_element_ - 1);
    return static_cast<int64_t>((v ^ sign) - sign);
}

} // namespace pimeval
