/**
 * @file
 * Bulk-transfer timing on the cycle-level channel model.
 *
 * Converts a host<->device transfer of N bytes into a stream of
 * 64-byte column accesses laid out per the configured address map
 * (bank/rank/row interleave order) and drains it through DramChannel,
 * yielding an achieved bandwidth that reflects row activations, tFAW,
 * and rank-switch bubbles — effects the flat bytes/bandwidth model
 * (paper Section V-C) cannot capture.
 *
 * This is the engine of the CYCLE memory-timing backend and the
 * calibration source of the LUT backend (mem_timing_backend.h).
 */

#ifndef PIMEVAL_DRAM_TRANSFER_MODEL_H_
#define PIMEVAL_DRAM_TRANSFER_MODEL_H_

#include <cstdint>

#include "core/pim_types.h"
#include "dram/dram_timing.h"

namespace pimeval {

/** Result of timing one bulk transfer. */
struct TransferResult
{
    double seconds = 0.0;
    double achieved_gbps = 0.0;
    double row_hit_rate = 0.0;
    uint64_t total_cycles = 0;
};

/**
 * Cycle-timed bulk transfers.
 */
class TransferModel
{
  public:
    /**
     * @param timing            DDR timing set.
     * @param num_channels      independent channels available.
     * @param ranks_per_channel ranks sharing each channel.
     * @param banks_per_rank    banks per rank.
     * @param row_bytes         bytes per DRAM row (per rank).
     * @param addr_map          column-address interleave order.
     * @param quiet             suppress dram.channel.* metrics (the
     *                          LUT calibration sweep sets this so its
     *                          sampling traffic does not pollute the
     *                          workload's channel statistics).
     */
    TransferModel(const DramTiming &timing, uint32_t num_channels,
                  uint32_t ranks_per_channel, uint32_t banks_per_rank,
                  uint32_t row_bytes,
                  PimAddrMap addr_map =
                      PimAddrMap::PIM_ADDR_MAP_BANK_FIRST,
                  bool quiet = false);

    /**
     * Time a sequential transfer of @p bytes split evenly across the
     * channels. Simulates the request stream on every call and holds
     * no mutable state, so it is safe to call from several host
     * threads at once; callers memoize (PimCostMemo, the LUT grid).
     */
    TransferResult transfer(uint64_t bytes, bool is_write) const;

    /** Effective bandwidth of a large streaming transfer (bytes/s). */
    double streamingBandwidth() const;

    const DramTiming &timing() const { return timing_; }
    uint32_t numChannels() const { return num_channels_; }
    uint32_t ranksPerChannel() const { return ranks_per_channel_; }
    uint32_t banksPerRank() const { return banks_per_rank_; }
    uint32_t rowBytes() const { return row_bytes_; }
    PimAddrMap addrMap() const { return addr_map_; }

  private:
    TransferResult simulateChannel(uint64_t bytes,
                                   bool is_write) const;

    DramTiming timing_;
    uint32_t num_channels_;
    uint32_t ranks_per_channel_;
    uint32_t banks_per_rank_;
    uint32_t row_bytes_;
    PimAddrMap addr_map_;
    bool quiet_;
};

} // namespace pimeval

#endif // PIMEVAL_DRAM_TRANSFER_MODEL_H_
