/**
 * @file
 * Analog bit-serial model implementation.
 */

#include "core/perf_energy_analog.h"

#include <algorithm>

#include "bitserial/analog_microprograms.h"

namespace pimeval {

namespace {

AnalogOpCounts
profileOf(const AnalogProgram &prog)
{
    AnalogOpCounts counts;
    for (const auto &op : prog.ops) {
        switch (op.kind) {
          case AnalogOpKind::kAap:
            counts.aaps += 1;
            break;
          case AnalogOpKind::kAapNot:
            counts.aaps += 2; // in via DCC, complement out
            break;
          case AnalogOpKind::kTra:
            counts.tras += 1;
            break;
        }
    }
    return counts;
}

} // namespace

PerfEnergyAnalog::PerfEnergyAnalog(const PimDeviceConfig &config)
    : PerfEnergyModel(config)
{
}

double
PerfEnergyAnalog::aapTime() const
{
    // Two back-to-back activations sharing one precharge window.
    return 2.0 * (config_.dram.tras_ns + config_.dram.trp_ns) * 1e-9;
}

double
PerfEnergyAnalog::traTime() const
{
    // One extended activation (simultaneous three-row charge share).
    return (config_.dram.tras_ns + config_.dram.trp_ns) * 1e-9;
}

AnalogOpCounts
PerfEnergyAnalog::countsForCmd(PimCmdEnum cmd, unsigned bits,
                               uint64_t scalar, unsigned aux) const
{
    using M = AnalogMicroPrograms;
    const uint32_t base = AnalogRowGroup::kNumRows;
    const uint32_t a = base;
    const uint32_t b = base + bits;
    const uint32_t d = base + 2 * bits;

    AnalogProgram prog;
    switch (cmd) {
      case PimCmdEnum::kAdd:
        prog = M::add(a, b, d, bits);
        break;
      case PimCmdEnum::kSub:
        prog = M::sub(a, b, d, bits);
        break;
      case PimCmdEnum::kMul:
        prog = M::mul(a, b, d, bits);
        break;
      case PimCmdEnum::kDiv:
      case PimCmdEnum::kDivScalar: {
        // Restoring division synthesized from the analog primitives:
        // n iterations of shift + compare + conditional subtract.
        const auto cmp = M::lessThan(a, b, d, bits, false);
        const auto s = M::sub(a, b, d, bits);
        const auto c = M::copy(a, d, bits + 1);
        AnalogOpCounts counts;
        const auto pc = profileOf(cmp);
        const auto ps = profileOf(s);
        const auto pcp = profileOf(c);
        counts.aaps = bits * (pc.aaps + ps.aaps + pcp.aaps);
        counts.tras = bits * (pc.tras + ps.tras + pcp.tras);
        return counts;
      }
      case PimCmdEnum::kMin:
      case PimCmdEnum::kMax: {
        // Compare, then per-bit select (c&a | ~c&b = 3 MAJ + NOT).
        prog = M::lessThan(a, b, d, bits, true);
        for (unsigned i = 0; i < bits; ++i) {
            prog.append(M::andOp(a + i, d, d, 1));
            prog.append(M::andOp(b + i, d, d, 1));
            prog.append(M::orOp(d, d, d, 1));
        }
        break;
      }
      case PimCmdEnum::kAbs: {
        // NOT + increment (full-adder pass with zero) + select.
        prog = M::notOp(a, d, bits);
        prog.append(M::add(d, d, d, bits));
        break;
      }
      case PimCmdEnum::kAnd:
        prog = M::andOp(a, b, d, bits);
        break;
      case PimCmdEnum::kOr:
        prog = M::orOp(a, b, d, bits);
        break;
      case PimCmdEnum::kXor:
        prog = M::xorOp(a, b, d, bits);
        break;
      case PimCmdEnum::kXnor:
        prog = M::xnorOp(a, b, d, bits);
        break;
      case PimCmdEnum::kNot:
        prog = M::notOp(a, d, bits);
        break;
      case PimCmdEnum::kGT:
      case PimCmdEnum::kLT:
        prog = M::lessThan(a, b, d, bits, true);
        break;
      case PimCmdEnum::kEQ:
      case PimCmdEnum::kNE:
        prog = M::equal(a, b, d, bits);
        break;
      // Scalar variants: the scalar is broadcast into constant rows
      // first, then the vector program runs.
      case PimCmdEnum::kAddScalar:
        prog = M::broadcast(b, bits, scalar);
        prog.append(M::add(a, b, d, bits));
        break;
      case PimCmdEnum::kSubScalar:
        prog = M::broadcast(b, bits, scalar);
        prog.append(M::sub(a, b, d, bits));
        break;
      case PimCmdEnum::kMulScalar:
        prog = M::broadcast(b, bits, scalar);
        prog.append(M::mul(a, b, d, bits));
        break;
      case PimCmdEnum::kMinScalar:
      case PimCmdEnum::kMaxScalar:
        prog = M::broadcast(b, bits, scalar);
        prog.append(M::lessThan(a, b, d, bits, true));
        prog.append(M::copy(a, d, bits));
        break;
      case PimCmdEnum::kAndScalar:
        prog = M::broadcast(b, bits, scalar);
        prog.append(M::andOp(a, b, d, bits));
        break;
      case PimCmdEnum::kOrScalar:
        prog = M::broadcast(b, bits, scalar);
        prog.append(M::orOp(a, b, d, bits));
        break;
      case PimCmdEnum::kXorScalar:
        prog = M::broadcast(b, bits, scalar);
        prog.append(M::xorOp(a, b, d, bits));
        break;
      case PimCmdEnum::kGTScalar:
      case PimCmdEnum::kLTScalar:
        prog = M::broadcast(b, bits, scalar);
        prog.append(M::lessThan(a, b, d, bits, true));
        break;
      case PimCmdEnum::kEQScalar:
        prog = M::broadcast(b, bits, scalar);
        prog.append(M::equal(a, b, d, bits));
        break;
      case PimCmdEnum::kScaledAdd:
        prog = M::broadcast(d, bits, scalar);
        prog.append(M::mul(a, d, d + bits, bits));
        prog.append(M::add(d + bits, b, d, bits));
        break;
      case PimCmdEnum::kShiftBitsLeft:
        prog = M::shiftLeft(a, d, bits, aux);
        break;
      case PimCmdEnum::kShiftBitsRight:
        prog = M::shiftRight(a, d, bits, aux, true);
        break;
      case PimCmdEnum::kPopCount: {
        // Ripple accumulation like the digital design but built from
        // full adders: n x ceil(log2(n+1)) FA steps.
        unsigned w = 1;
        while ((1u << w) <= bits)
            ++w;
        const auto fa = M::add(a, b, d, 1);
        const auto pfa = profileOf(fa);
        AnalogOpCounts counts;
        counts.aaps = bits * w * pfa.aaps;
        counts.tras = bits * w * pfa.tras;
        return counts;
      }
      case PimCmdEnum::kBroadcast:
        prog = M::broadcast(d, bits, scalar);
        break;
      case PimCmdEnum::kCopyD2D:
        prog = M::copy(a, d, bits);
        break;
      default:
        break;
    }
    return profileOf(prog);
}

PimOpCost
PerfEnergyAnalog::costOp(const PimOpProfile &profile) const
{
    // Reductions drain to the host: modeled as a D2H transfer of the
    // object plus a host-side accumulation.
    if (profile.cmd == PimCmdEnum::kRedSum) {
        const uint64_t bytes =
            profile.num_elements * ((profile.bits + 7) / 8);
        PimOpCost cost = costCopy(PimCopyEnum::PIM_COPY_D2H, bytes);
        const HostParams host;
        cost.runtime_sec += static_cast<double>(profile.num_elements) /
            (host.cpu_freq_ghz * 1e9);
        cost.energy_j +=
            background(cost.runtime_sec, profile.cores_used);
        return cost;
    }

    const AnalogOpCounts counts = countsForCmd(
        profile.cmd, profile.bits, profile.scalar, profile.aux);

    const uint64_t cols = config_.colsPerCore();
    const uint64_t chunks =
        (profile.max_elems_per_core + cols - 1) / cols;

    const double chunk_sec =
        static_cast<double>(counts.aaps) * aapTime() +
        static_cast<double>(counts.tras) * traTime();

    PimOpCost cost;
    cost.runtime_sec = chunk_sec * static_cast<double>(chunks);

    // Energy: an AAP is two activations; a TRA is one simultaneous
    // three-row activation (~2x one activation's charge).
    const double e_chunk =
        static_cast<double>(counts.aaps) * 2.0 *
            power_.rowActPreEnergy() +
        static_cast<double>(counts.tras) * 2.0 *
            power_.rowActPreEnergy();
    const uint64_t total_chunks =
        std::max<uint64_t>(1, (profile.num_elements + cols - 1) / cols);
    cost.energy_j = e_chunk * static_cast<double>(total_chunks);
    cost.energy_j += background(cost.runtime_sec, profile.cores_used);
    return cost;
}

} // namespace pimeval
