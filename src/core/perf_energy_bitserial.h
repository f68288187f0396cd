/**
 * @file
 * Performance/energy model of the subarray-level digital bit-serial
 * PIM architecture (DRAM-AP).
 *
 * Costing derives directly from the generated microprograms:
 *   runtime = chunks x (reads*tR + writes*tW + logic*tL)
 * where a chunk is one group of row-buffer-wide elements (8192
 * elements per chunk in the default geometry) and chunks is the
 * number of such groups the busiest core must process. All cores
 * execute the broadcast microprogram in lockstep, so the busiest
 * core sets the latency while every active core contributes energy.
 */

#ifndef PIMEVAL_CORE_PERF_ENERGY_BITSERIAL_H_
#define PIMEVAL_CORE_PERF_ENERGY_BITSERIAL_H_

#include "core/perf_energy_model.h"

namespace pimeval {

/**
 * Micro-op counts of one microprogram execution.
 */
struct MicroOpCounts
{
    uint64_t reads = 0;
    uint64_t writes = 0;
    uint64_t logic = 0;

    MicroOpCounts &operator+=(const MicroOpCounts &o)
    {
        reads += o.reads;
        writes += o.writes;
        logic += o.logic;
        return *this;
    }
};

class PerfEnergyBitSerial : public PerfEnergyModel
{
  public:
    explicit PerfEnergyBitSerial(const PimDeviceConfig &config);

    PimOpCost costOp(const PimOpProfile &profile) const override;

    /**
     * Micro-op counts for one chunk of the given command, from a
     * freshly generated microprogram — exposed for tests that check
     * the model against the actual VM-executed microprograms. Devices
     * memoize whole costs instead (PimCostMemo).
     */
    MicroOpCounts countsForCmd(PimCmdEnum cmd, unsigned bits,
                               uint64_t scalar, unsigned aux) const;

  private:
    /** Latency of one chunk given micro-op counts. */
    double chunkLatency(const MicroOpCounts &counts) const;

    /** Energy of one chunk in one core. */
    double chunkEnergy(const MicroOpCounts &counts) const;

    /** Latency of the row-wide popcount reduction tree. */
    double popcountTreeLatency() const;
};

} // namespace pimeval

#endif // PIMEVAL_CORE_PERF_ENERGY_BITSERIAL_H_
