/**
 * @file
 * TransferModel implementation.
 */

#include "dram/transfer_model.h"

#include <algorithm>
#include <vector>

#include "core/pim_metrics.h"
#include "dram/dram_channel.h"

namespace pimeval {

TransferModel::TransferModel(const DramTiming &timing,
                             uint32_t num_channels,
                             uint32_t ranks_per_channel,
                             uint32_t banks_per_rank,
                             uint32_t row_bytes, PimAddrMap addr_map,
                             bool quiet)
    : timing_(timing), num_channels_(std::max(1u, num_channels)),
      ranks_per_channel_(std::max(1u, ranks_per_channel)),
      banks_per_rank_(std::max(1u, banks_per_rank)),
      row_bytes_(std::max<uint32_t>(DramTiming::kBytesPerColumn,
                                    row_bytes)),
      addr_map_(addr_map), quiet_(quiet)
{
}

TransferResult
TransferModel::simulateChannel(uint64_t bytes, bool is_write) const
{
    const uint64_t num_columns =
        (bytes + DramTiming::kBytesPerColumn - 1) /
        DramTiming::kBytesPerColumn;
    if (num_columns == 0)
        return {};

    // Cap the simulated stream and extrapolate: bulk streams reach a
    // steady state well before 64K columns (4 MB).
    constexpr uint64_t kMaxSimulated = 1ull << 16;
    const uint64_t simulated = std::min(num_columns, kMaxSimulated);

    const uint32_t cols_per_row =
        row_bytes_ / DramTiming::kBytesPerColumn;

    // Lay the sequential stream out per the configured interleave
    // order. BANK_FIRST (default): consecutive 64B blocks rotate
    // across banks (so same-bank tCCD never bounds the stream), while
    // rank switches happen at coarse granularity (rank-switch bubbles
    // are expensive on the shared bus). RANK_FIRST: blocks rotate
    // across ranks fastest, exposing the tCS bubble per access.
    // ROW_FIRST: fill one row in one bank before advancing, maximal
    // row hits but same-bank column timing bounds the stream.
    std::vector<DramRequest> requests;
    requests.reserve(simulated);
    for (uint64_t i = 0; i < simulated; ++i) {
        DramRequest request;
        switch (addr_map_) {
          case PimAddrMap::PIM_ADDR_MAP_BANK_FIRST: {
            request.bank = static_cast<uint32_t>(i % banks_per_rank_);
            const uint64_t within = i / banks_per_rank_;
            const uint64_t row_group = within / cols_per_row;
            request.rank = static_cast<uint32_t>(
                row_group % ranks_per_channel_);
            request.row = static_cast<uint32_t>(row_group /
                                                ranks_per_channel_);
            break;
          }
          case PimAddrMap::PIM_ADDR_MAP_RANK_FIRST: {
            request.rank =
                static_cast<uint32_t>(i % ranks_per_channel_);
            const uint64_t within = i / ranks_per_channel_;
            request.bank =
                static_cast<uint32_t>(within % banks_per_rank_);
            request.row = static_cast<uint32_t>(
                within / banks_per_rank_ / cols_per_row);
            break;
          }
          case PimAddrMap::PIM_ADDR_MAP_ROW_FIRST: {
            const uint64_t block = i / cols_per_row;
            request.bank =
                static_cast<uint32_t>(block % banks_per_rank_);
            const uint64_t beyond = block / banks_per_rank_;
            request.rank =
                static_cast<uint32_t>(beyond % ranks_per_channel_);
            request.row =
                static_cast<uint32_t>(beyond / ranks_per_channel_);
            break;
          }
        }
        request.is_write = is_write;
        requests.push_back(request);
    }

    DramChannel channel(timing_, ranks_per_channel_, banks_per_rank_);
    const uint64_t cycles = channel.drain(requests);
    const double sim_seconds = timing_.cyclesToSeconds(cycles);
    const double row_hit_rate = channel.stats().rowHitRate();

    if (!quiet_) {
        const DramChannelStats &stats = channel.stats();
        PIM_METRIC_COUNT("dram.channel.requests",
                         stats.num_reads + stats.num_writes);
        PIM_METRIC_COUNT("dram.channel.row_hits", stats.row_hits);
        PIM_METRIC_COUNT("dram.channel.row_misses", stats.row_misses);
        PIM_METRIC_COUNT("dram.channel.activates", stats.activates);
        PIM_METRIC_GAUGE("dram.channel.row_hit_rate", row_hit_rate);
        // Bus utilization of the simulated drain: achieved fraction
        // of the channel's peak bandwidth.
        if (sim_seconds > 0) {
            const double achieved =
                static_cast<double>(simulated *
                                    DramTiming::kBytesPerColumn) /
                sim_seconds;
            PIM_METRIC_GAUGE("dram.channel.util",
                             achieved / timing_.peakBandwidth());
        }
    }

    // Extrapolate the simulated stream out to the full transfer.
    const double scale = static_cast<double>(num_columns) /
        static_cast<double>(simulated);
    TransferResult result;
    result.seconds = sim_seconds * scale;
    result.total_cycles =
        static_cast<uint64_t>(static_cast<double>(cycles) * scale);
    result.achieved_gbps = result.seconds > 0
        ? static_cast<double>(bytes) / result.seconds / 1e9
        : 0.0;
    result.row_hit_rate = row_hit_rate;
    return result;
}

TransferResult
TransferModel::transfer(uint64_t bytes, bool is_write) const
{
    // Split evenly across independent channels; they operate in
    // parallel, so the slowest shard (they are equal) sets the time.
    const uint64_t per_channel =
        (bytes + num_channels_ - 1) / num_channels_;
    TransferResult result = simulateChannel(per_channel, is_write);
    result.achieved_gbps = result.seconds > 0
        ? static_cast<double>(bytes) / result.seconds / 1e9
        : 0.0;
    return result;
}

double
TransferModel::streamingBandwidth() const
{
    const TransferResult result =
        transfer(64ull << 20, /*is_write=*/false);
    return result.seconds > 0
        ? static_cast<double>(64ull << 20) / result.seconds
        : 0.0;
}

} // namespace pimeval
