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

#include <shared_mutex>
#include <tuple>
#include <unordered_map>

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
     * Micro-op counts for one chunk of the given command — exposed
     * for tests that check the model against the actual VM-executed
     * microprograms.
     */
    MicroOpCounts countsForCmd(PimCmdEnum cmd, unsigned bits,
                               uint64_t scalar, unsigned aux) const;

  private:
    /** Uncached microprogram generation backing countsForCmd. */
    MicroOpCounts generateCounts(PimCmdEnum cmd, unsigned bits,
                                 uint64_t scalar, unsigned aux) const;

    using CountsKey = std::tuple<PimCmdEnum, unsigned, uint64_t,
                                 unsigned>;
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
    mutable std::unordered_map<CountsKey, MicroOpCounts, CountsKeyHash>
        counts_cache_;
    /** Latency of one chunk given micro-op counts. */
    double chunkLatency(const MicroOpCounts &counts) const;

    /** Energy of one chunk in one core. */
    double chunkEnergy(const MicroOpCounts &counts) const;

    /** Latency of the row-wide popcount reduction tree. */
    double popcountTreeLatency() const;
};

} // namespace pimeval

#endif // PIMEVAL_CORE_PERF_ENERGY_BITSERIAL_H_
