/**
 * @file
 * Tests of the BitSerialVm itself: register semantics, row I/O,
 * vertical data helpers, and micro-op disassembly.
 */

#include <gtest/gtest.h>

#include "bitserial/bitserial_vm.h"
#include "bitserial/micro_op.h"

using namespace pimeval;

TEST(BitSerialVm, RowReadWriteThroughSenseAmps)
{
    BitSerialVm vm(8, 70); // spans a 64-bit word boundary
    vm.setBit(3, 65, true);
    vm.setBit(3, 0, true);

    vm.execute(MicroOp::readRow(3));
    vm.execute(MicroOp::writeRow(5));
    EXPECT_TRUE(vm.getBit(5, 65));
    EXPECT_TRUE(vm.getBit(5, 0));
    EXPECT_FALSE(vm.getBit(5, 1));
    EXPECT_EQ(vm.opsExecuted(), 2u);
}

TEST(BitSerialVm, RegisterOpsRowWide)
{
    BitSerialVm vm(4, 130);
    // Alternate bits in row 0; all ones in row 1.
    for (uint32_t c = 0; c < 130; ++c) {
        vm.setBit(0, c, c % 2 == 0);
        vm.setBit(1, c, true);
    }
    vm.execute(MicroOp::readRow(0));
    vm.execute(MicroOp::mov(BitReg::R1, BitReg::SA));
    vm.execute(MicroOp::readRow(1));
    // SA = all ones; xnor(R1, SA) == R1.
    vm.execute(MicroOp::xnorOp(BitReg::R2, BitReg::R1, BitReg::SA));
    vm.execute(MicroOp::mov(BitReg::SA, BitReg::R2));
    vm.execute(MicroOp::writeRow(2));
    for (uint32_t c = 0; c < 130; ++c)
        EXPECT_EQ(vm.getBit(2, c), c % 2 == 0);

    // sel(cond=R1, a=1s, b=0s) == R1.
    vm.execute(MicroOp::set(BitReg::R3, 1));
    vm.execute(MicroOp::set(BitReg::R4, 0));
    vm.execute(
        MicroOp::sel(BitReg::SA, BitReg::R1, BitReg::R3, BitReg::R4));
    vm.execute(MicroOp::writeRow(3));
    for (uint32_t c = 0; c < 130; ++c)
        EXPECT_EQ(vm.getBit(3, c), c % 2 == 0);
}

TEST(BitSerialVm, VerticalHelpersRoundTrip)
{
    BitSerialVm vm(64, 16);
    vm.writeVertical(5, 10, 32, 0xDEADBEEF);
    EXPECT_EQ(vm.readVertical(5, 10, 32), 0xDEADBEEFull);
    // LSB first: bit 0 of the value is at base row.
    EXPECT_TRUE(vm.getBit(10, 5));  // 0xDEADBEEF & 1
    EXPECT_TRUE(vm.getBit(11, 5));  // bit 1
    EXPECT_TRUE(vm.getBit(12, 5));  // bit 2
    EXPECT_TRUE(vm.getBit(13, 5));  // bit 3
    EXPECT_FALSE(vm.getBit(14, 5)); // bit 4 of 0xF... = 0
}

TEST(MicroOpFormat, DisassemblyAndProfile)
{
    MicroProgram prog;
    prog.append(MicroOp::readRow(7));
    prog.append(MicroOp::set(BitReg::R2, 1));
    prog.append(
        MicroOp::andOp(BitReg::R3, BitReg::R1, BitReg::R2));
    prog.append(MicroOp::writeRow(9));

    EXPECT_EQ(prog.numReads(), 1u);
    EXPECT_EQ(prog.numWrites(), 1u);
    EXPECT_EQ(prog.numLogicOps(), 2u);

    const std::string text = prog.disassemble();
    EXPECT_NE(text.find("row[7]"), std::string::npos);
    EXPECT_NE(text.find("row[9]"), std::string::npos);
    EXPECT_NE(text.find("R3 <- R1 & R2"), std::string::npos);

    MicroProgram other;
    other.append(MicroOp::readRow(1));
    prog.append(other);
    EXPECT_EQ(prog.numReads(), 2u);
}
