/**
 * @file
 * Performance/energy model of analog bit-serial PIM (SIMDRAM-style),
 * the analog-technique extension the paper lists as in-progress work.
 *
 * Costing derives from generated AnalogPrograms:
 *   runtime = chunks x (AAPs * tAAP + TRAs * tTRA)
 * with an AAP-NOT charged as two AAPs (copy into the dual-contact
 * row, copy the complement out). Reduction sums have no in-subarray
 * popcount hardware in the analog design, so they are costed as a
 * device-to-host drain plus a host-side accumulation — one of the
 * qualitative contrasts with the digital DRAM-AP target.
 */

#ifndef PIMEVAL_CORE_PERF_ENERGY_ANALOG_H_
#define PIMEVAL_CORE_PERF_ENERGY_ANALOG_H_

#include "core/perf_energy_model.h"

namespace pimeval {

/** Row-op counts of one analog microprogram execution. */
struct AnalogOpCounts
{
    uint64_t aaps = 0; ///< AAP-equivalents (AAP-NOT counts double)
    uint64_t tras = 0;
};

class PerfEnergyAnalog : public PerfEnergyModel
{
  public:
    explicit PerfEnergyAnalog(const PimDeviceConfig &config);

    PimOpCost costOp(const PimOpProfile &profile) const override;

    /** Analog row-op counts per chunk for one command, from a freshly
     *  generated program (devices memoize whole costs: PimCostMemo). */
    AnalogOpCounts countsForCmd(PimCmdEnum cmd, unsigned bits,
                                uint64_t scalar, unsigned aux) const;

    /** AAP latency (two back-to-back row cycles), seconds. */
    double aapTime() const;
    /** TRA latency (one extended row cycle), seconds. */
    double traTime() const;
};

} // namespace pimeval

#endif // PIMEVAL_CORE_PERF_ENERGY_ANALOG_H_
