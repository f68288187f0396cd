/**
 * @file
 * Compile-time-specialized ALU semantics shared by the runtime
 * alpuCompute() dispatcher and the chunked kernel execution engine in
 * the core simulator (docs/PERFORMANCE.md).
 *
 * alpuComputeT<Op> is the single source of truth for per-element
 * semantics: alpuCompute() in fulcrum_core.cpp is a switch over these
 * instantiations, and the op-specialized element loops in
 * pim_device.cpp instantiate them directly so the op dispatch hoists
 * out of the loop and the masked uint64_t lane arithmetic can
 * autovectorize.
 */

#ifndef PIMEVAL_FULCRUM_ALPU_KERNELS_H_
#define PIMEVAL_FULCRUM_ALPU_KERNELS_H_

#include <bit>
#include <cstddef>
#include <cstdint>

#include "fulcrum/fulcrum_core.h"

namespace pimeval {

/**
 * Sign-extend the low @p nbits of @p v to 64 bits.
 * Branchless for 1 <= nbits <= 64 (C++20 guarantees arithmetic right
 * shift on signed types), so signed element kernels stay
 * vectorizable.
 */
inline int64_t
alpuSignExtend(uint64_t v, unsigned nbits)
{
    const unsigned sh = 64u - nbits;
    return static_cast<int64_t>(v << sh) >> sh;
}

/** Truncate @p v to its low @p nbits (branchless, 1 <= nbits <= 64). */
inline uint64_t
alpuTruncBits(uint64_t v, unsigned nbits)
{
    return v & (~0ull >> (64u - nbits));
}

/**
 * ALU reference semantics with the operation fixed at compile time.
 * Bit-identical to alpuCompute(Op, ...): operates on sign-/zero-
 * extended 64-bit values and truncates the result to @p elem_bits.
 */
template <AlpuOp Op>
inline uint64_t
alpuComputeT(uint64_t a, uint64_t b, unsigned elem_bits, bool is_signed)
{
    const uint64_t ua = alpuTruncBits(a, elem_bits);
    const uint64_t ub = alpuTruncBits(b, elem_bits);

    uint64_t result = 0;
    if constexpr (Op == AlpuOp::kAdd) {
        result = ua + ub;
    } else if constexpr (Op == AlpuOp::kSub) {
        result = ua - ub;
    } else if constexpr (Op == AlpuOp::kMul) {
        result = ua * ub;
    } else if constexpr (Op == AlpuOp::kDiv) {
        if (is_signed) {
            const int64_t sa = alpuSignExtend(ua, elem_bits);
            const int64_t sb = alpuSignExtend(ub, elem_bits);
            result = (sb == 0) ? 0 : static_cast<uint64_t>(sa / sb);
        } else {
            result = (ub == 0) ? 0 : ua / ub;
        }
    } else if constexpr (Op == AlpuOp::kMin) {
        if (is_signed) {
            result = (alpuSignExtend(ua, elem_bits) <
                      alpuSignExtend(ub, elem_bits))
                ? ua : ub;
        } else {
            result = (ua < ub) ? ua : ub;
        }
    } else if constexpr (Op == AlpuOp::kMax) {
        if (is_signed) {
            result = (alpuSignExtend(ua, elem_bits) >
                      alpuSignExtend(ub, elem_bits))
                ? ua : ub;
        } else {
            result = (ua > ub) ? ua : ub;
        }
    } else if constexpr (Op == AlpuOp::kAnd) {
        result = ua & ub;
    } else if constexpr (Op == AlpuOp::kOr) {
        result = ua | ub;
    } else if constexpr (Op == AlpuOp::kXor) {
        result = ua ^ ub;
    } else if constexpr (Op == AlpuOp::kXnor) {
        result = ~(ua ^ ub);
    } else if constexpr (Op == AlpuOp::kNot) {
        result = ~ua;
    } else if constexpr (Op == AlpuOp::kAbs) {
        if (is_signed) {
            const int64_t sa = alpuSignExtend(ua, elem_bits);
            result = (sa < 0) ? static_cast<uint64_t>(-sa) : ua;
        } else {
            result = ua;
        }
    } else if constexpr (Op == AlpuOp::kGT) {
        result = is_signed
            ? (alpuSignExtend(ua, elem_bits) >
               alpuSignExtend(ub, elem_bits))
            : (ua > ub);
    } else if constexpr (Op == AlpuOp::kLT) {
        result = is_signed
            ? (alpuSignExtend(ua, elem_bits) <
               alpuSignExtend(ub, elem_bits))
            : (ua < ub);
    } else if constexpr (Op == AlpuOp::kEQ) {
        result = (ua == ub);
    } else if constexpr (Op == AlpuOp::kShiftL) {
        // Shift amounts are range-checked untruncated: an amount of
        // 2^elem_bits or more must not wrap back into range.
        result = (b >= elem_bits) ? 0 : (ua << b);
    } else if constexpr (Op == AlpuOp::kShiftR) {
        if (is_signed) {
            const unsigned sh = b >= elem_bits
                ? elem_bits - 1
                : static_cast<unsigned>(b);
            result = static_cast<uint64_t>(
                alpuSignExtend(ua, elem_bits) >> sh);
        } else {
            result = (b >= elem_bits) ? 0 : (ua >> b);
        }
    } else if constexpr (Op == AlpuOp::kPopCount) {
        result = static_cast<uint64_t>(std::popcount(ua));
    }
    return alpuTruncBits(result, elem_bits);
}

// ---------------------------------------------------------------------------
// Chunk kernels: the op dispatch happens once per command (selecting a
// function pointer through *ChunkFor), so each body is a tight masked
// uint64_t loop the compiler can unroll and autovectorize. Shared by
// the core simulator's execution engine and the fusion tape
// interpreter (core/pim_fusion.h).
// ---------------------------------------------------------------------------

/** dest[i] = op(a[i], b[i]) & mask, with NE realized as !EQ. */
template <AlpuOp Op, bool Negate, bool Signed>
inline void
binaryChunk(const uint64_t *a, const uint64_t *b, uint64_t *d,
            size_t lo, size_t hi, unsigned bits, uint64_t mask)
{
    for (size_t i = lo; i < hi; ++i) {
        uint64_t r = alpuComputeT<Op>(a[i], b[i], bits, Signed);
        if constexpr (Negate)
            r ^= 1ull;
        d[i] = r & mask;
    }
}

using BinaryChunkFn = void (*)(const uint64_t *, const uint64_t *,
                               uint64_t *, size_t, size_t, unsigned,
                               uint64_t);

// Signedness is a compile-time parameter of every kernel: the signed
// compare/extend paths otherwise carry a per-element branch that
// defeats autovectorization of min/max/abs/compare loops.
template <bool Negate>
inline BinaryChunkFn
binaryChunkFor(AlpuOp op, bool sgn)
{
    switch (op) {
      case AlpuOp::kAdd:
        return sgn ? &binaryChunk<AlpuOp::kAdd, Negate, true>
                   : &binaryChunk<AlpuOp::kAdd, Negate, false>;
      case AlpuOp::kSub:
        return sgn ? &binaryChunk<AlpuOp::kSub, Negate, true>
                   : &binaryChunk<AlpuOp::kSub, Negate, false>;
      case AlpuOp::kMul:
        return sgn ? &binaryChunk<AlpuOp::kMul, Negate, true>
                   : &binaryChunk<AlpuOp::kMul, Negate, false>;
      case AlpuOp::kDiv:
        return sgn ? &binaryChunk<AlpuOp::kDiv, Negate, true>
                   : &binaryChunk<AlpuOp::kDiv, Negate, false>;
      case AlpuOp::kMin:
        return sgn ? &binaryChunk<AlpuOp::kMin, Negate, true>
                   : &binaryChunk<AlpuOp::kMin, Negate, false>;
      case AlpuOp::kMax:
        return sgn ? &binaryChunk<AlpuOp::kMax, Negate, true>
                   : &binaryChunk<AlpuOp::kMax, Negate, false>;
      case AlpuOp::kAnd:
        return sgn ? &binaryChunk<AlpuOp::kAnd, Negate, true>
                   : &binaryChunk<AlpuOp::kAnd, Negate, false>;
      case AlpuOp::kOr:
        return sgn ? &binaryChunk<AlpuOp::kOr, Negate, true>
                   : &binaryChunk<AlpuOp::kOr, Negate, false>;
      case AlpuOp::kXor:
        return sgn ? &binaryChunk<AlpuOp::kXor, Negate, true>
                   : &binaryChunk<AlpuOp::kXor, Negate, false>;
      case AlpuOp::kXnor:
        return sgn ? &binaryChunk<AlpuOp::kXnor, Negate, true>
                   : &binaryChunk<AlpuOp::kXnor, Negate, false>;
      case AlpuOp::kNot:
        return sgn ? &binaryChunk<AlpuOp::kNot, Negate, true>
                   : &binaryChunk<AlpuOp::kNot, Negate, false>;
      case AlpuOp::kAbs:
        return sgn ? &binaryChunk<AlpuOp::kAbs, Negate, true>
                   : &binaryChunk<AlpuOp::kAbs, Negate, false>;
      case AlpuOp::kGT:
        return sgn ? &binaryChunk<AlpuOp::kGT, Negate, true>
                   : &binaryChunk<AlpuOp::kGT, Negate, false>;
      case AlpuOp::kLT:
        return sgn ? &binaryChunk<AlpuOp::kLT, Negate, true>
                   : &binaryChunk<AlpuOp::kLT, Negate, false>;
      case AlpuOp::kEQ:
        return sgn ? &binaryChunk<AlpuOp::kEQ, Negate, true>
                   : &binaryChunk<AlpuOp::kEQ, Negate, false>;
      case AlpuOp::kShiftL:
        return sgn ? &binaryChunk<AlpuOp::kShiftL, Negate, true>
                   : &binaryChunk<AlpuOp::kShiftL, Negate, false>;
      case AlpuOp::kShiftR:
        return sgn ? &binaryChunk<AlpuOp::kShiftR, Negate, true>
                   : &binaryChunk<AlpuOp::kShiftR, Negate, false>;
      case AlpuOp::kPopCount:
        return sgn ? &binaryChunk<AlpuOp::kPopCount, Negate, true>
                   : &binaryChunk<AlpuOp::kPopCount, Negate, false>;
    }
    return nullptr;
}

/** dest[i] = op(a[i], scalar) & mask; unary ops pass scalar = 0. */
template <AlpuOp Op, bool Signed>
inline void
scalarChunk(const uint64_t *a, uint64_t s, uint64_t *d, size_t lo,
            size_t hi, unsigned bits, uint64_t mask)
{
    for (size_t i = lo; i < hi; ++i)
        d[i] = alpuComputeT<Op>(a[i], s, bits, Signed) & mask;
}

using ScalarChunkFn = void (*)(const uint64_t *, uint64_t, uint64_t *,
                               size_t, size_t, unsigned, uint64_t);

inline ScalarChunkFn
scalarChunkFor(AlpuOp op, bool sgn)
{
    switch (op) {
      case AlpuOp::kAdd:
        return sgn ? &scalarChunk<AlpuOp::kAdd, true>
                   : &scalarChunk<AlpuOp::kAdd, false>;
      case AlpuOp::kSub:
        return sgn ? &scalarChunk<AlpuOp::kSub, true>
                   : &scalarChunk<AlpuOp::kSub, false>;
      case AlpuOp::kMul:
        return sgn ? &scalarChunk<AlpuOp::kMul, true>
                   : &scalarChunk<AlpuOp::kMul, false>;
      case AlpuOp::kDiv:
        return sgn ? &scalarChunk<AlpuOp::kDiv, true>
                   : &scalarChunk<AlpuOp::kDiv, false>;
      case AlpuOp::kMin:
        return sgn ? &scalarChunk<AlpuOp::kMin, true>
                   : &scalarChunk<AlpuOp::kMin, false>;
      case AlpuOp::kMax:
        return sgn ? &scalarChunk<AlpuOp::kMax, true>
                   : &scalarChunk<AlpuOp::kMax, false>;
      case AlpuOp::kAnd:
        return sgn ? &scalarChunk<AlpuOp::kAnd, true>
                   : &scalarChunk<AlpuOp::kAnd, false>;
      case AlpuOp::kOr:
        return sgn ? &scalarChunk<AlpuOp::kOr, true>
                   : &scalarChunk<AlpuOp::kOr, false>;
      case AlpuOp::kXor:
        return sgn ? &scalarChunk<AlpuOp::kXor, true>
                   : &scalarChunk<AlpuOp::kXor, false>;
      case AlpuOp::kXnor:
        return sgn ? &scalarChunk<AlpuOp::kXnor, true>
                   : &scalarChunk<AlpuOp::kXnor, false>;
      case AlpuOp::kNot:
        return sgn ? &scalarChunk<AlpuOp::kNot, true>
                   : &scalarChunk<AlpuOp::kNot, false>;
      case AlpuOp::kAbs:
        return sgn ? &scalarChunk<AlpuOp::kAbs, true>
                   : &scalarChunk<AlpuOp::kAbs, false>;
      case AlpuOp::kGT:
        return sgn ? &scalarChunk<AlpuOp::kGT, true>
                   : &scalarChunk<AlpuOp::kGT, false>;
      case AlpuOp::kLT:
        return sgn ? &scalarChunk<AlpuOp::kLT, true>
                   : &scalarChunk<AlpuOp::kLT, false>;
      case AlpuOp::kEQ:
        return sgn ? &scalarChunk<AlpuOp::kEQ, true>
                   : &scalarChunk<AlpuOp::kEQ, false>;
      case AlpuOp::kShiftL:
        return sgn ? &scalarChunk<AlpuOp::kShiftL, true>
                   : &scalarChunk<AlpuOp::kShiftL, false>;
      case AlpuOp::kShiftR:
        return sgn ? &scalarChunk<AlpuOp::kShiftR, true>
                   : &scalarChunk<AlpuOp::kShiftR, false>;
      case AlpuOp::kPopCount:
        return sgn ? &scalarChunk<AlpuOp::kPopCount, true>
                   : &scalarChunk<AlpuOp::kPopCount, false>;
    }
    return nullptr;
}

/** dest[i] = (a[i] * scalar + b[i]) & mask (the AXPY inner op). */
template <bool Signed>
inline void
scaledAddChunk(const uint64_t *a, const uint64_t *b, uint64_t s,
               uint64_t *d, size_t lo, size_t hi, unsigned bits,
               uint64_t mask)
{
    for (size_t i = lo; i < hi; ++i) {
        const uint64_t prod =
            alpuComputeT<AlpuOp::kMul>(a[i], s, bits, Signed);
        d[i] = alpuComputeT<AlpuOp::kAdd>(prod, b[i], bits, Signed) &
            mask;
    }
}

using ScaledAddChunkFn = void (*)(const uint64_t *, const uint64_t *,
                                  uint64_t, uint64_t *, size_t, size_t,
                                  unsigned, uint64_t);

} // namespace pimeval

#endif // PIMEVAL_FULCRUM_ALPU_KERNELS_H_
