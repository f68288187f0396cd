/**
 * @file
 * Pluggable memory-timing backends for host<->device transfer costing
 * (ROADMAP item 4, in the spirit of downmem's selectable MRAM-transfer
 * models and LP5X-PIM Sim's fidelity tiers).
 *
 * Three implementations sit behind one interface, selectable per
 * context via PimDeviceConfig::mem_backend or the PIMEVAL_MEM_BACKEND
 * environment variable (cycle|analytical|lut):
 *
 *  - CYCLE       the DramChannel/TransferModel cycle-stepped model
 *                with configurable address mapping; exact, but pays a
 *                full channel drain per call (the device's cost memo
 *                calls it once per direction and byte count).
 *  - ANALYTICAL  the paper's flat bytes/bandwidth model (Section
 *                V-C), preserved bit-identical for reproduction
 *                parity.
 *  - LUT         a lookup table calibrated once per (timing,
 *                topology, mapping) tuple by sampling the cycle
 *                backend at dense small sizes and log-spaced large
 *                sizes, interpolated in log-space: an O(1) lock-free
 *                read per costCopy, within a few percent of CYCLE
 *                across the suite's transfer-size distribution. The
 *                process-wide default.
 */

#ifndef PIMEVAL_DRAM_MEM_TIMING_BACKEND_H_
#define PIMEVAL_DRAM_MEM_TIMING_BACKEND_H_

#include <cstdint>
#include <memory>

#include "core/pim_types.h"
#include "dram/dram_timing.h"
#include "dram/transfer_model.h"

namespace pimeval {

/** Channel topology and timing shared by all backends. */
struct MemTopology
{
    DramTiming timing;
    uint32_t num_channels = 1;
    uint32_t ranks_per_channel = 1;
    uint32_t banks_per_rank = 16;
    uint32_t row_bytes = 1024;
    PimAddrMap addr_map = PimAddrMap::PIM_ADDR_MAP_BANK_FIRST;
    /** Aggregate flat bandwidth (bytes/s) of the ANALYTICAL model —
     *  the paper's rank-independent view. */
    double flat_bw_bytes_per_sec = 25.6e9;
};

/**
 * Abstract transfer-timing backend. Implementations are immutable
 * after construction and safe for concurrent transfer() calls from
 * several host threads.
 */
class MemTimingBackend
{
  public:
    virtual ~MemTimingBackend() = default;

    /** Time a host<->device transfer of @p bytes. */
    virtual TransferResult transfer(uint64_t bytes,
                                    bool is_write) const = 0;

    /** Which backend this is (never DEFAULT). */
    virtual PimMemBackend kind() const = 0;

    /** Effective bandwidth of a large streaming read (bytes/s), as
     *  this backend would charge it — the number costCopy implies. */
    virtual double streamingBandwidth() const;

    const MemTopology &topology() const { return topology_; }

    /**
     * Resolve the backend selection for one device: an explicit
     * @p configured value wins, then PIMEVAL_MEM_BACKEND, then LUT.
     * Never returns DEFAULT.
     */
    static PimMemBackend resolve(PimMemBackend configured);

    /** Parse "cycle" / "analytical" / "lut"; false on mismatch. */
    static bool parseKind(const char *name, PimMemBackend *out);

    /** Build the selected backend (@p kind must not be DEFAULT). */
    static std::unique_ptr<MemTimingBackend>
    create(PimMemBackend kind, const MemTopology &topology);

  protected:
    explicit MemTimingBackend(const MemTopology &topology)
        : topology_(topology)
    {
    }

    MemTopology topology_;
};

} // namespace pimeval

#endif // PIMEVAL_DRAM_MEM_TIMING_BACKEND_H_
