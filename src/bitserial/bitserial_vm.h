/**
 * @file
 * Functional virtual machine for the DRAM-AP bit-serial architecture.
 *
 * Models a single subarray as a bit matrix (rows x cols) with the
 * per-column PE registers, and executes microprograms exactly as the
 * memory controller would broadcast them. All columns advance in
 * lockstep — one micro-op touches the full row-wide bit-slice.
 *
 * The VM is the ground truth for the bit-serial performance model:
 * the test suite executes every microprogram here against random
 * vertically laid-out data and checks scalar integer semantics.
 */

#ifndef PIMEVAL_BITSERIAL_BITSERIAL_VM_H_
#define PIMEVAL_BITSERIAL_BITSERIAL_VM_H_

#include <cstdint>
#include <vector>

#include "bitserial/micro_op.h"

namespace pimeval {

/**
 * A simulated subarray with per-column bit-serial PEs.
 *
 * Rows are packed into 64-bit words. Executing a micro-op applies it
 * to every column simultaneously via word-wide bit operations.
 */
class BitSerialVm
{
  public:
    /** Create a subarray of the given geometry (all bits zero). */
    BitSerialVm(uint32_t num_rows, uint32_t num_cols);

    uint32_t numRows() const { return num_rows_; }
    uint32_t numCols() const { return num_cols_; }

    /** Execute a single micro-op. */
    void execute(const MicroOp &op);

    /** Execute a whole microprogram. */
    void run(const MicroProgram &program);

    /** Raw bit access (for tests and data loading). */
    bool getBit(uint32_t row, uint32_t col) const;
    void setBit(uint32_t row, uint32_t col, bool value);

    /**
     * Write an n-bit element vertically: bit i of @p value goes to
     * row base_row + i of column @p col (LSB first).
     */
    void writeVertical(uint32_t col, uint32_t base_row, unsigned n,
                       uint64_t value);

    /** Read an n-bit vertically laid-out element (zero extended). */
    uint64_t readVertical(uint32_t col, uint32_t base_row,
                          unsigned n) const;

    /**
     * Write @p count n-bit elements vertically into consecutive
     * columns starting at @p col_begin: values[j] lands in column
     * col_begin + j exactly as writeVertical would place it (LSB at
     * base_row). Internally transposes 64-element blocks as 64x64 bit
     * matrices so each element bit-plane is written with word-wide
     * stores instead of count*n single-bit pokes. Columns need not be
     * 64-aligned.
     */
    void writeVerticalBulk(uint32_t col_begin, uint32_t base_row,
                           unsigned n, const uint64_t *values,
                           uint32_t count);

    /** Bulk counterpart of readVertical over consecutive columns. */
    void readVerticalBulk(uint32_t col_begin, uint32_t base_row,
                          unsigned n, uint64_t *values,
                          uint32_t count) const;

    /** Total micro-ops executed (sanity/statistics). */
    uint64_t opsExecuted() const { return ops_executed_; }

  private:
    using Row = std::vector<uint64_t>;

    Row &regRow(BitReg reg) { return regs_[static_cast<size_t>(reg)]; }
    const Row &regRow(BitReg reg) const
    {
        return regs_[static_cast<size_t>(reg)];
    }

    uint32_t num_rows_;
    uint32_t num_cols_;
    uint32_t words_per_row_;
    std::vector<Row> memory_; ///< memory_[row] = packed bits
    std::vector<Row> regs_;   ///< kNumBitRegs packed register rows
    uint64_t ops_executed_ = 0;
};

} // namespace pimeval

#endif // PIMEVAL_BITSERIAL_BITSERIAL_VM_H_
