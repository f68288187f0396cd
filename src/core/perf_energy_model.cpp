/**
 * @file
 * Base model implementation: transfer costing and factory.
 */

#include "core/perf_energy_model.h"

#include <algorithm>
#include <bit>

#include "core/perf_energy_analog.h"
#include "core/perf_energy_bitserial.h"
#include "core/perf_energy_fulcrum.h"
#include "core/pim_metrics.h"

namespace pimeval {

PerfEnergyModel::PerfEnergyModel(const PimDeviceConfig &config)
    : config_(config), power_(config)
{
    MemTopology topology;
    const uint64_t channels = config_.num_channels
        ? config_.num_channels
        : config_.num_ranks; // paper's rank-per-channel view
    topology.num_channels =
        static_cast<uint32_t>(std::max<uint64_t>(1, channels));
    topology.ranks_per_channel = static_cast<uint32_t>(
        std::max<uint64_t>(1, (config_.num_ranks + channels - 1) /
                                  channels));
    // Physical banks visible on the channel: one chip rank's worth
    // (16 banks of an x8 part).
    topology.banks_per_rank = 16u;
    topology.row_bytes =
        static_cast<uint32_t>(config_.num_cols_per_row / 8);
    topology.addr_map = config_.addr_map;
    topology.flat_bw_bytes_per_sec = config_.hostBandwidthBytesPerSec();
    const PimMemBackend kind = MemTimingBackend::resolve(
        config_.mem_backend, config_.use_dram_timing);
    mem_backend_ = MemTimingBackend::create(kind, topology);
    switch (kind) {
      case PimMemBackend::PIM_MEM_BACKEND_CYCLE:
        PIM_METRIC_COUNT("dram.backend.cycle", 1);
        break;
      case PimMemBackend::PIM_MEM_BACKEND_ANALYTICAL:
        PIM_METRIC_COUNT("dram.backend.analytical", 1);
        break;
      default:
        PIM_METRIC_COUNT("dram.backend.lut", 1);
        break;
    }
}

PimOpCost
PerfEnergyModel::costCopy(PimCopyEnum direction, uint64_t bytes) const
{
    PimOpCost cost;
    switch (direction) {
      case PimCopyEnum::PIM_COPY_H2D:
      case PimCopyEnum::PIM_COPY_D2H: {
        const TransferResult result = mem_backend_->transfer(
            bytes, direction == PimCopyEnum::PIM_COPY_H2D);
        cost.runtime_sec = result.seconds;
        cost.energy_j = power_.dataTransferEnergy(
            bytes, cost.runtime_sec,
            direction == PimCopyEnum::PIM_COPY_D2H);
        break;
      }
      case PimCopyEnum::PIM_COPY_D2D: {
        // Row-granular copies inside the cores: one read + one write
        // per row, all cores in parallel. With LISA enabled on the
        // subarray-level targets, linked row buffers move rows
        // directly (Chang et al.; the Fulcrum feature the paper
        // defers).
        const bool subarray_level =
            config_.device == PimDeviceEnum::PIM_DEVICE_BITSIMD_V_AP ||
            config_.device == PimDeviceEnum::PIM_DEVICE_FULCRUM ||
            config_.device == PimDeviceEnum::PIM_DEVICE_SIMDRAM;
        const bool lisa = config_.use_lisa && subarray_level;
        const uint64_t row_bytes = config_.colsPerCore() / 8;
        const uint64_t rows =
            (bytes / config_.numCores() + row_bytes - 1) /
            std::max<uint64_t>(1, row_bytes);
        const double per_row_ns = lisa
            ? config_.dram.lisa_row_copy_ns
            : config_.dram.row_read_ns + config_.dram.row_write_ns;
        cost.runtime_sec =
            static_cast<double>(std::max<uint64_t>(1, rows)) *
            per_row_ns * 1e-9;
        const uint64_t total_rows =
            (bytes + row_bytes - 1) / std::max<uint64_t>(1, row_bytes);
        // A LISA hop still activates both source and destination
        // rows, but skips the full sense/restore round trip.
        cost.energy_j = static_cast<double>(total_rows) *
            (lisa ? 1.2 : 2.0) * power_.rowActPreEnergy();
        break;
      }
    }
    return cost;
}

std::unique_ptr<PerfEnergyModel>
PerfEnergyModel::create(const PimDeviceConfig &config)
{
    switch (config.device) {
      case PimDeviceEnum::PIM_DEVICE_BITSIMD_V_AP:
        return std::make_unique<PerfEnergyBitSerial>(config);
      case PimDeviceEnum::PIM_DEVICE_FULCRUM:
        return std::make_unique<PerfEnergyFulcrum>(config);
      case PimDeviceEnum::PIM_DEVICE_BANK_LEVEL:
        return std::make_unique<PerfEnergyBankLevel>(config);
      case PimDeviceEnum::PIM_DEVICE_SIMDRAM:
        return std::make_unique<PerfEnergyAnalog>(config);
      case PimDeviceEnum::PIM_DEVICE_NONE:
        break;
    }
    return nullptr;
}

namespace {

/** True when @p a and @p b agree on every field a model reads. */
bool
sameCostKey(const PimOpProfile &a, const PimOpProfile &b)
{
    return a.cmd == b.cmd && a.bits == b.bits &&
        a.num_elements == b.num_elements &&
        a.max_elems_per_core == b.max_elems_per_core &&
        a.cores_used == b.cores_used && a.scalar == b.scalar &&
        a.aux == b.aux;
}

/** Home slot of @p p: the top bits of a multiplicative hash over the
 *  fields sameCostKey compares. */
size_t
homeSlot(const PimOpProfile &p)
{
    constexpr uint64_t kMul = 0x9e3779b97f4a7c15ull;
    uint64_t h = static_cast<uint64_t>(p.cmd) * kMul;
    for (const uint64_t v :
         {uint64_t{p.bits}, p.num_elements, p.max_elems_per_core,
          p.cores_used, p.scalar, uint64_t{p.aux}})
        h = (h ^ v) * kMul;
    constexpr int kBits = std::countr_zero(PimCostMemo::kCapacity);
    return static_cast<size_t>(h >> (64 - kBits));
}

} // namespace

PimOpCost
PimCostMemo::costOp(const PimOpProfile &profile)
{
    const size_t home = homeSlot(profile);
    for (size_t k = 0; k < kProbeWindow; ++k) {
        Entry &entry = entries_[(home + k) & (kCapacity - 1)];
        if (entry.key.cmd == PimCmdEnum::kNone)
            return fill(entry, profile);
        if (sameCostKey(entry.key, profile))
            return entry.cost;
    }
    const size_t victim = next_victim_++ % kProbeWindow;
    return fill(entries_[(home + victim) & (kCapacity - 1)], profile);
}

PimOpCost
PimCostMemo::fill(Entry &entry, const PimOpProfile &profile)
{
    PIM_METRIC_COUNT("cache.cost_memo.miss", 1);
    entry.key = profile;
    entry.cost = model_.costOp(profile);
    return entry.cost;
}

} // namespace pimeval
