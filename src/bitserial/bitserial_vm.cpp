/**
 * @file
 * BitSerialVm implementation.
 */

#include "bitserial/bitserial_vm.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "core/pim_metrics.h"

namespace pimeval {

namespace {

/**
 * In-place 64x64 bit-matrix transpose (recursive block swap with
 * delta-swaps): after the call, bit c of m[r] equals bit r of the
 * original m[c]. This turns 64 vertically laid-out elements into 64
 * row-wide bit-planes (and back), the core of the bulk vertical I/O.
 */
void
transposeBitMatrix64(uint64_t m[64])
{
    // Delta-swap ladder with the shifts oriented for LSB-first bit
    // indexing (the textbook variant assumes MSB-first and would
    // transpose about the anti-diagonal instead).
    uint64_t mask = 0x00000000FFFFFFFFull;
    for (unsigned j = 32; j != 0; j >>= 1, mask ^= mask << j) {
        for (unsigned k = 0; k < 64; k = ((k | j) + 1) & ~j) {
            const uint64_t t = ((m[k] >> j) ^ m[k | j]) & mask;
            m[k] ^= t << j;
            m[k | j] ^= t;
        }
    }
}

/**
 * Insert the bits of @p lane selected by @p colmask into a packed row
 * at bit offset @p col (possibly spanning a word boundary).
 */
void
insertLane(std::vector<uint64_t> &row, uint32_t col, uint64_t lane,
           uint64_t colmask)
{
    const size_t w = col / 64;
    const unsigned off = col % 64;
    lane &= colmask;
    row[w] = (row[w] & ~(colmask << off)) | (lane << off);
    if (off != 0) {
        const uint64_t hi_mask = colmask >> (64 - off);
        if (hi_mask != 0)
            row[w + 1] =
                (row[w + 1] & ~hi_mask) | (lane >> (64 - off));
    }
}

/** Extract the @p colmask bits of a packed row at bit offset @p col. */
uint64_t
extractLane(const std::vector<uint64_t> &row, uint32_t col,
            uint64_t colmask)
{
    const size_t w = col / 64;
    const unsigned off = col % 64;
    uint64_t v = row[w] >> off;
    if (off != 0 && w + 1 < row.size())
        v |= row[w + 1] << (64 - off);
    return v & colmask;
}

} // namespace

BitSerialVm::BitSerialVm(uint32_t num_rows, uint32_t num_cols)
    : num_rows_(num_rows), num_cols_(num_cols),
      words_per_row_((num_cols + 63) / 64),
      memory_(num_rows, Row(words_per_row_, 0)),
      regs_(kNumBitRegs, Row(words_per_row_, 0))
{
}

void
BitSerialVm::execute(const MicroOp &op)
{
    ++ops_executed_;
    switch (op.kind) {
      case MicroOpKind::kReadRow:
        assert(op.row < num_rows_);
        regRow(BitReg::SA) = memory_[op.row];
        break;
      case MicroOpKind::kWriteRow:
        assert(op.row < num_rows_);
        memory_[op.row] = regRow(BitReg::SA);
        break;
      case MicroOpKind::kMov:
        regRow(op.dst) = regRow(op.src_a);
        break;
      case MicroOpKind::kSet: {
        const uint64_t fill = op.imm ? ~0ull : 0ull;
        std::fill(regRow(op.dst).begin(), regRow(op.dst).end(), fill);
        break;
      }
      case MicroOpKind::kAnd: {
        const Row &a = regRow(op.src_a);
        const Row &b = regRow(op.src_b);
        Row &d = regRow(op.dst);
        for (uint32_t w = 0; w < words_per_row_; ++w)
            d[w] = a[w] & b[w];
        break;
      }
      case MicroOpKind::kXnor: {
        const Row &a = regRow(op.src_a);
        const Row &b = regRow(op.src_b);
        Row &d = regRow(op.dst);
        for (uint32_t w = 0; w < words_per_row_; ++w)
            d[w] = ~(a[w] ^ b[w]);
        break;
      }
      case MicroOpKind::kSel: {
        const Row &c = regRow(op.cond);
        const Row &a = regRow(op.src_a);
        const Row &b = regRow(op.src_b);
        Row &d = regRow(op.dst);
        for (uint32_t w = 0; w < words_per_row_; ++w)
            d[w] = (c[w] & a[w]) | (~c[w] & b[w]);
        break;
      }
    }
}

void
BitSerialVm::run(const MicroProgram &program)
{
    // Batched per program, not per micro-op.
    PIM_METRIC_COUNT("substrate.bitserial.microops",
                     program.ops.size());
    for (const auto &op : program.ops)
        execute(op);
}

bool
BitSerialVm::getBit(uint32_t row, uint32_t col) const
{
    assert(row < num_rows_ && col < num_cols_);
    return (memory_[row][col / 64] >> (col % 64)) & 1;
}

void
BitSerialVm::setBit(uint32_t row, uint32_t col, bool value)
{
    assert(row < num_rows_ && col < num_cols_);
    const uint64_t mask = 1ull << (col % 64);
    if (value)
        memory_[row][col / 64] |= mask;
    else
        memory_[row][col / 64] &= ~mask;
}

void
BitSerialVm::writeVertical(uint32_t col, uint32_t base_row, unsigned n,
                           uint64_t value)
{
    for (unsigned i = 0; i < n; ++i)
        setBit(base_row + i, col, (value >> i) & 1);
}

uint64_t
BitSerialVm::readVertical(uint32_t col, uint32_t base_row, unsigned n) const
{
    uint64_t value = 0;
    for (unsigned i = 0; i < n; ++i) {
        if (getBit(base_row + i, col))
            value |= (1ull << i);
    }
    return value;
}

void
BitSerialVm::writeVerticalBulk(uint32_t col_begin, uint32_t base_row,
                               unsigned n, const uint64_t *values,
                               uint32_t count)
{
    assert(n >= 1 && n <= 64);
    assert(base_row + n <= num_rows_);
    assert(col_begin + count <= num_cols_);
    const uint64_t vmask = (n >= 64) ? ~0ull : ((1ull << n) - 1);
    uint64_t blk[64];
    for (uint32_t done = 0; done < count; done += 64) {
        const uint32_t lanes = std::min<uint32_t>(64, count - done);
        const uint64_t colmask =
            (lanes >= 64) ? ~0ull : ((1ull << lanes) - 1);
        for (uint32_t j = 0; j < lanes; ++j)
            blk[j] = values[done + j] & vmask;
        for (uint32_t j = lanes; j < 64; ++j)
            blk[j] = 0;
        transposeBitMatrix64(blk);
        // blk[i] now holds bit i of every element; scatter each bit-
        // plane into its memory row, leaving other columns untouched.
        for (unsigned i = 0; i < n; ++i)
            insertLane(memory_[base_row + i], col_begin + done,
                       blk[i], colmask);
    }
}

void
BitSerialVm::readVerticalBulk(uint32_t col_begin, uint32_t base_row,
                              unsigned n, uint64_t *values,
                              uint32_t count) const
{
    assert(n >= 1 && n <= 64);
    assert(base_row + n <= num_rows_);
    assert(col_begin + count <= num_cols_);
    uint64_t blk[64];
    for (uint32_t done = 0; done < count; done += 64) {
        const uint32_t lanes = std::min<uint32_t>(64, count - done);
        const uint64_t colmask =
            (lanes >= 64) ? ~0ull : ((1ull << lanes) - 1);
        for (unsigned i = 0; i < n; ++i)
            blk[i] = extractLane(memory_[base_row + i],
                                 col_begin + done, colmask);
        for (unsigned i = n; i < 64; ++i)
            blk[i] = 0;
        transposeBitMatrix64(blk);
        for (uint32_t j = 0; j < lanes; ++j)
            values[done + j] = blk[j];
    }
}

} // namespace pimeval
