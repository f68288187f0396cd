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

#include <shared_mutex>
#include <tuple>
#include <unordered_map>

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

    /** Analog row-op counts per chunk for one command (cached). */
    AnalogOpCounts countsForCmd(PimCmdEnum cmd, unsigned bits,
                                uint64_t scalar, unsigned aux) const;

    /** AAP latency (two back-to-back row cycles), seconds. */
    double aapTime() const;
    /** TRA latency (one extended row cycle), seconds. */
    double traTime() const;

  private:
    AnalogOpCounts generateCounts(PimCmdEnum cmd, unsigned bits,
                                  uint64_t scalar, unsigned aux) const;

    using CountsKey =
        std::tuple<PimCmdEnum, unsigned, uint64_t, unsigned>;
    struct CountsKeyHash
    {
        size_t operator()(const CountsKey &k) const
        {
            uint64_t h = static_cast<uint64_t>(std::get<0>(k));
            h = h * 0x9e3779b97f4a7c15ull + std::get<1>(k);
            h = h * 0x9e3779b97f4a7c15ull + std::get<2>(k);
            h = h * 0x9e3779b97f4a7c15ull + std::get<3>(k);
            return static_cast<size_t>(h ^ (h >> 32));
        }
    };
    /** Reader/writer lock keeps the const costOp safe to call from
     *  several host threads; the cache is hit on virtually every
     *  call, so readers share the lock. */
    mutable std::shared_mutex cache_mutex_;
    mutable std::unordered_map<CountsKey, AnalogOpCounts,
                               CountsKeyHash>
        counts_cache_;
};

} // namespace pimeval

#endif // PIMEVAL_CORE_PERF_ENERGY_ANALOG_H_
