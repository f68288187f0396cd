/**
 * @file
 * MemTimingBackend factory, selection resolution, and the CYCLE /
 * ANALYTICAL implementations (the LUT lives in mem_backend_lut.cpp).
 */

#include "dram/mem_timing_backend.h"

#include <cstdlib>
#include <cstring>

#include "core/pim_metrics.h"
#include "dram/mem_backend_lut.h"

namespace pimeval {

namespace {

/** The existing DramChannel/TransferModel cycle-stepped model. */
class CycleMemBackend : public MemTimingBackend
{
  public:
    explicit CycleMemBackend(const MemTopology &topology)
        : MemTimingBackend(topology),
          model_(topology.timing, topology.num_channels,
                 topology.ranks_per_channel, topology.banks_per_rank,
                 topology.row_bytes, topology.addr_map)
    {
    }

    PimMemBackend
    kind() const override
    {
        return PimMemBackend::PIM_MEM_BACKEND_CYCLE;
    }

    TransferResult
    transfer(uint64_t bytes, bool is_write) const override
    {
        return model_.transfer(bytes, is_write);
    }

  private:
    TransferModel model_;
};

/** The paper's flat bytes/bandwidth model (Section V-C). */
class AnalyticalMemBackend : public MemTimingBackend
{
  public:
    explicit AnalyticalMemBackend(const MemTopology &topology)
        : MemTimingBackend(topology)
    {
    }

    PimMemBackend
    kind() const override
    {
        return PimMemBackend::PIM_MEM_BACKEND_ANALYTICAL;
    }

    TransferResult
    transfer(uint64_t bytes, bool is_write) const override
    {
        (void)is_write; // symmetric by construction
        TransferResult result;
        const double bw = topology_.flat_bw_bytes_per_sec;
        result.seconds = static_cast<double>(bytes) / bw;
        result.achieved_gbps = result.seconds > 0 ? bw / 1e9 : 0.0;
        result.total_cycles = static_cast<uint64_t>(
            result.seconds / (topology_.timing.tck_ns * 1e-9));
        return result;
    }

    double
    streamingBandwidth() const override
    {
        return topology_.flat_bw_bytes_per_sec;
    }
};

} // namespace

double
MemTimingBackend::streamingBandwidth() const
{
    const TransferResult result =
        transfer(64ull << 20, /*is_write=*/false);
    return result.seconds > 0
        ? static_cast<double>(64ull << 20) / result.seconds
        : 0.0;
}

bool
MemTimingBackend::parseKind(const char *name, PimMemBackend *out)
{
    if (!name || !out)
        return false;
    if (std::strcmp(name, "cycle") == 0) {
        *out = PimMemBackend::PIM_MEM_BACKEND_CYCLE;
        return true;
    }
    if (std::strcmp(name, "analytical") == 0) {
        *out = PimMemBackend::PIM_MEM_BACKEND_ANALYTICAL;
        return true;
    }
    if (std::strcmp(name, "lut") == 0) {
        *out = PimMemBackend::PIM_MEM_BACKEND_LUT;
        return true;
    }
    return false;
}

PimMemBackend
MemTimingBackend::resolve(PimMemBackend configured)
{
    if (configured != PimMemBackend::PIM_MEM_BACKEND_DEFAULT)
        return configured;
    // The process-wide PIMEVAL_MEM_BACKEND sits below the explicit
    // per-device field; an unset or unknown value leaves LUT.
    PimMemBackend kind = PimMemBackend::PIM_MEM_BACKEND_LUT;
    parseKind(std::getenv("PIMEVAL_MEM_BACKEND"), &kind);
    return kind;
}

std::unique_ptr<MemTimingBackend>
MemTimingBackend::create(PimMemBackend kind,
                         const MemTopology &topology)
{
    switch (kind) {
      case PimMemBackend::PIM_MEM_BACKEND_CYCLE:
        return std::make_unique<CycleMemBackend>(topology);
      case PimMemBackend::PIM_MEM_BACKEND_ANALYTICAL:
        return std::make_unique<AnalyticalMemBackend>(topology);
      case PimMemBackend::PIM_MEM_BACKEND_LUT:
      case PimMemBackend::PIM_MEM_BACKEND_DEFAULT:
        break;
    }
    return makeLutBackend(topology);
}

} // namespace pimeval
