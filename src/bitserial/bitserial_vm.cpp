/**
 * @file
 * BitSerialVm implementation.
 */

#include "bitserial/bitserial_vm.h"

#include <algorithm>
#include <cassert>

#include "core/pim_metrics.h"

namespace pimeval {

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

} // namespace pimeval
