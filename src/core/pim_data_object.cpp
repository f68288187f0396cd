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
    : id_(id), data_type_(data_type), signed_(pimIsSigned(data_type)),
      v_layout_(v_layout),
      shape_(PimCostShape::of(pimBitsOfDataType(data_type), num_elements,
                              placement.device_cores)),
      mask_(shape_.bits >= 64 ? ~0ull : ((1ull << shape_.bits) - 1)),
      data_(num_elements, 0), placement_(std::move(placement))
{
}

int64_t
PimDataObject::getSigned(uint64_t index) const
{
    const uint64_t v = data_[index];
    if (!signed_ || shape_.bits >= 64)
        return static_cast<int64_t>(v);
    const uint64_t sign = 1ull << (shape_.bits - 1);
    return static_cast<int64_t>((v ^ sign) - sign);
}

} // namespace pimeval
