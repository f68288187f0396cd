/**
 * @file
 * Bit-serial performance/energy model implementation.
 */

#include "core/perf_energy_bitserial.h"

#include <algorithm>

#include "bitserial/microprograms.h"

namespace pimeval {

PerfEnergyBitSerial::PerfEnergyBitSerial(const PimDeviceConfig &config)
    : PerfEnergyModel(config)
{
}

MicroOpCounts
PerfEnergyBitSerial::countsForCmd(PimCmdEnum cmd, unsigned bits,
                                  uint64_t scalar, unsigned aux) const
{
    // Generate the microprogram with canonical row bases; only the op
    // counts matter for costing. Rows: a at 0, b at bits, dest at
    // 2*bits (3n rows opened per two-input op, as in the paper).
    const uint32_t a = 0;
    const uint32_t b = bits;
    const uint32_t d = 2 * bits;
    const bool sgn = true; // signed/unsigned compare cost is identical

    MicroProgram prog;
    switch (cmd) {
      case PimCmdEnum::kAdd:
        prog = MicroPrograms::add(a, b, d, bits);
        break;
      case PimCmdEnum::kSub:
        prog = MicroPrograms::sub(a, b, d, bits);
        break;
      case PimCmdEnum::kMul:
        prog = MicroPrograms::mul(a, b, d, bits);
        break;
      case PimCmdEnum::kDiv:
        // Restoring division microprogram (signed variant costs the
        // additional magnitude/negate passes).
        prog = MicroPrograms::divide(a, b, d, /*scratch=*/3 * bits,
                                     bits, /*is_signed=*/true);
        break;
      case PimCmdEnum::kMin:
        prog = MicroPrograms::minOp(a, b, d, bits, sgn);
        break;
      case PimCmdEnum::kMax:
        prog = MicroPrograms::maxOp(a, b, d, bits, sgn);
        break;
      case PimCmdEnum::kAbs:
        prog = MicroPrograms::absOp(a, d, bits);
        break;
      case PimCmdEnum::kAnd:
        prog = MicroPrograms::andOp(a, b, d, bits);
        break;
      case PimCmdEnum::kOr:
        prog = MicroPrograms::orOp(a, b, d, bits);
        break;
      case PimCmdEnum::kXor:
        prog = MicroPrograms::xorOp(a, b, d, bits);
        break;
      case PimCmdEnum::kXnor:
        prog = MicroPrograms::xnorOp(a, b, d, bits);
        break;
      case PimCmdEnum::kNot:
        prog = MicroPrograms::notOp(a, d, bits);
        break;
      case PimCmdEnum::kGT:
        // a > b == b < a: identical cost to lessThan.
      case PimCmdEnum::kLT:
        prog = MicroPrograms::lessThan(a, b, d, bits, sgn);
        break;
      case PimCmdEnum::kEQ:
      case PimCmdEnum::kNE:
        prog = MicroPrograms::equal(a, b, d, bits);
        break;
      case PimCmdEnum::kAddScalar:
        prog = MicroPrograms::addScalar(a, d, bits, scalar);
        break;
      case PimCmdEnum::kSubScalar:
        prog = MicroPrograms::subScalar(a, d, bits, scalar);
        break;
      case PimCmdEnum::kMulScalar:
        prog = MicroPrograms::mulScalar(a, d, bits, scalar);
        break;
      case PimCmdEnum::kDivScalar:
        return countsForCmd(PimCmdEnum::kDiv, bits, 0, 0);
      case PimCmdEnum::kMinScalar:
      case PimCmdEnum::kMaxScalar:
        // Scalar compare + selective overwrite.
        prog = MicroPrograms::lessThanScalar(a, d, bits, scalar, sgn);
        prog.append(MicroPrograms::copy(a, d, bits));
        break;
      case PimCmdEnum::kAndScalar:
      case PimCmdEnum::kOrScalar:
      case PimCmdEnum::kXorScalar:
        // One read, one or two logic ops, one write per bit.
        prog = MicroPrograms::notOp(a, d, bits);
        break;
      case PimCmdEnum::kGTScalar:
      case PimCmdEnum::kLTScalar:
        prog = MicroPrograms::lessThanScalar(a, d, bits, scalar, sgn);
        break;
      case PimCmdEnum::kEQScalar:
        prog = MicroPrograms::equalScalar(a, d, bits, scalar);
        break;
      case PimCmdEnum::kScaledAdd:
        // dest = a*scalar + b.
        prog = MicroPrograms::mulScalar(a, d, bits, scalar);
        prog.append(MicroPrograms::add(d, b, d, bits));
        break;
      case PimCmdEnum::kShiftBitsLeft:
        prog = MicroPrograms::shiftLeft(a, d, bits, aux);
        break;
      case PimCmdEnum::kShiftBitsRight:
        prog = MicroPrograms::shiftRight(a, d, bits, aux, true);
        break;
      case PimCmdEnum::kPopCount:
        prog = MicroPrograms::popCount(a, d, bits, bits);
        break;
      case PimCmdEnum::kBroadcast:
        prog = MicroPrograms::broadcast(d, bits, scalar);
        break;
      case PimCmdEnum::kCopyD2D:
        prog = MicroPrograms::copy(a, d, bits);
        break;
      case PimCmdEnum::kRedSum: {
        // Row-wide popcount hardware: read each bit-slice row once,
        // plus the reduction-tree latency modeled as logic ops.
        MicroOpCounts c;
        c.reads = bits;
        c.logic = bits * 13; // log2(8192) levels of the popcount tree
        return c;
      }
      default:
        break;
    }

    MicroOpCounts counts;
    counts.reads = prog.numReads();
    counts.writes = prog.numWrites();
    counts.logic = prog.numLogicOps();
    return counts;
}

double
PerfEnergyBitSerial::chunkLatency(const MicroOpCounts &counts) const
{
    const auto &dram = config_.dram;
    return (static_cast<double>(counts.reads) * dram.row_read_ns +
            static_cast<double>(counts.writes) * dram.row_write_ns +
            static_cast<double>(counts.logic) * dram.logic_op_ns) * 1e-9;
}

double
PerfEnergyBitSerial::chunkEnergy(const MicroOpCounts &counts) const
{
    const double row_energy = power_.rowActPreEnergy();
    const double logic_energy = power_.bitSerialLogicEnergy();
    return static_cast<double>(counts.reads + counts.writes) * row_energy +
        static_cast<double>(counts.logic) * logic_energy;
}

double
PerfEnergyBitSerial::popcountTreeLatency() const
{
    return 13.0 * config_.dram.logic_op_ns * 1e-9;
}

PimOpCost
PerfEnergyBitSerial::costOp(const PimOpProfile &profile) const
{
    const MicroOpCounts counts =
        countsForCmd(profile.cmd, profile.bits, profile.scalar,
                     profile.aux);

    // Chunks on the busiest core (a chunk = one row-buffer's worth of
    // vertically laid-out elements).
    const uint64_t cols = config_.colsPerCore();
    const uint64_t chunks =
        (profile.max_elems_per_core + cols - 1) / cols;

    PimOpCost cost;
    cost.runtime_sec = chunkLatency(counts) * static_cast<double>(chunks);

    // Energy across all active cores: total chunk instances.
    const uint64_t total_chunks =
        std::max<uint64_t>(1, (profile.num_elements + cols - 1) / cols);
    cost.energy_j = chunkEnergy(counts) *
        static_cast<double>(total_chunks);
    cost.energy_j += background(cost.runtime_sec, profile.cores_used);
    return cost;
}

} // namespace pimeval
