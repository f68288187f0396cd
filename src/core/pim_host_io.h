/**
 * @file
 * Host<->device element conversion kernels, shared by the unfused copy
 * paths (PimDevice::copyHostToDevice / copyDeviceToHost) and the
 * fusion tape's host-source operands (core/pim_fusion.h).
 */

#ifndef PIMEVAL_CORE_PIM_HOST_IO_H_
#define PIMEVAL_CORE_PIM_HOST_IO_H_

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace pimeval {

/**
 * Host->device element conversion with the element width hoisted out
 * of the loop: one memcpy of Bytes per element, no per-element width
 * switch. Bool/int8 share the 1-byte kernel (host side stores one
 * byte per element for both).
 */
template <unsigned Bytes>
void
pimHostToDeviceChunk(const uint8_t *src, uint64_t *dst, size_t lo,
                     size_t hi, uint64_t mask)
{
    for (size_t i = lo; i < hi; ++i) {
        uint64_t v = 0;
        std::memcpy(&v, src + i * Bytes, Bytes);
        dst[i] = v & mask;
    }
}

template <unsigned Bytes>
void
pimDeviceToHostChunk(const uint64_t *src, uint8_t *dst, size_t lo,
                     size_t hi)
{
    for (size_t i = lo; i < hi; ++i)
        std::memcpy(dst + i * Bytes, &src[i], Bytes);
}

using PimHostToDeviceChunkFn = void (*)(const uint8_t *, uint64_t *,
                                        size_t, size_t, uint64_t);
using PimDeviceToHostChunkFn = void (*)(const uint64_t *, uint8_t *,
                                        size_t, size_t);

/** Conversion kernel for an element width in bits (nullptr for a
 *  width no PimDataType has). */
inline PimHostToDeviceChunkFn
pimHostToDeviceChunkForBits(unsigned bits)
{
    switch (bits) {
      case 1:
      case 8:
        return &pimHostToDeviceChunk<1>;
      case 16:
        return &pimHostToDeviceChunk<2>;
      case 32:
        return &pimHostToDeviceChunk<4>;
      case 64:
        return &pimHostToDeviceChunk<8>;
      default:
        return nullptr;
    }
}

inline PimDeviceToHostChunkFn
pimDeviceToHostChunkForBits(unsigned bits)
{
    switch (bits) {
      case 1:
      case 8:
        return &pimDeviceToHostChunk<1>;
      case 16:
        return &pimDeviceToHostChunk<2>;
      case 32:
        return &pimDeviceToHostChunk<4>;
      case 64:
        return &pimDeviceToHostChunk<8>;
      default:
        return nullptr;
    }
}

/** Host bytes per element for a device element width. */
inline unsigned
pimHostStrideForBits(unsigned bits)
{
    return (bits + 7) / 8;
}

} // namespace pimeval

#endif // PIMEVAL_CORE_PIM_HOST_IO_H_
