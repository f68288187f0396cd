/**
 * @file
 * Performance and energy model interface (paper Sections V-C, V-D).
 *
 * Each PIM architecture provides a model that converts an operation
 * profile (command, data type, element distribution) into estimated
 * runtime and energy. Data movement is costed separately from kernel
 * execution, mirroring the paper's breakdown (Fig. 7).
 */

#ifndef PIMEVAL_CORE_PERF_ENERGY_MODEL_H_
#define PIMEVAL_CORE_PERF_ENERGY_MODEL_H_

#include <array>
#include <bit>
#include <memory>

#include "core/pim_data_object.h"
#include "core/pim_params.h"
#include "core/pim_types.h"
#include "dram/mem_timing_backend.h"
#include "energy/micron_power_model.h"

namespace pimeval {

/**
 * Everything a model needs to cost one PIM command.
 */
struct PimOpProfile
{
    PimCmdEnum cmd = PimCmdEnum::kNone;
    unsigned bits = 32;
    uint64_t num_elements = 0;
    /** Largest per-core element count — sets the critical path. */
    uint64_t max_elems_per_core = 0;
    /** Cores participating — sets total energy. */
    uint64_t cores_used = 0;
    /** Scalar operand when applicable (specializes bit-serial code). */
    uint64_t scalar = 0;
    /** Shift amount / broadcast payload reuse. */
    unsigned aux = 0;
};

/**
 * Estimated cost of one command or transfer.
 */
struct PimOpCost
{
    double runtime_sec = 0.0;
    double energy_j = 0.0;

    PimOpCost &operator+=(const PimOpCost &other)
    {
        runtime_sec += other.runtime_sec;
        energy_j += other.energy_j;
        return *this;
    }
};

/**
 * Abstract performance/energy model.
 */
class PerfEnergyModel
{
  public:
    explicit PerfEnergyModel(const PimDeviceConfig &config);
    virtual ~PerfEnergyModel() = default;

    /** Cost one PIM command (kernel execution). */
    virtual PimOpCost costOp(const PimOpProfile &profile) const = 0;

    /**
     * Cost a host<->device or device<->device transfer of @p bytes.
     * H2D/D2H use the aggregate rank bandwidth (ranks modeled as
     * independent channels, per the paper); D2D moves through row
     * copies inside the cores.
     */
    virtual PimOpCost costCopy(PimCopyEnum direction,
                               uint64_t bytes) const;

    const PimDeviceConfig &config() const { return config_; }
    const MicronPowerModel &power() const { return power_; }

    /** The memory-timing backend costing H2D/D2H transfers. */
    const MemTimingBackend &memBackend() const { return *mem_backend_; }
    /** Resolved backend kind (never DEFAULT). */
    PimMemBackend memBackendKind() const { return mem_backend_->kind(); }

    /** Factory for the selected device type. */
    static std::unique_ptr<PerfEnergyModel>
    create(const PimDeviceConfig &config);

  protected:
    /** Background energy for a kernel span. */
    double background(double seconds, uint64_t active_subarrays) const
    {
        return power_.backgroundEnergy(seconds, active_subarrays);
    }

    PimDeviceConfig config_;
    MicronPowerModel power_;
    /** Always-constructed memory-timing backend (resolved from
     *  config/env; LUT by default). */
    std::unique_ptr<MemTimingBackend> mem_backend_;
};

/**
 * Fixed-capacity memo in front of one model's costOp and costCopy, one
 * per device. costOp is a pure function of the profile, and costCopy
 * of the direction and byte count, given the model's immutable
 * configuration and its immutable memory backend (the LUT table is
 * fixed after calibration, the analytical and row-copy costs are
 * closed forms, the cycle model memoizes per stream shape). A hit
 * therefore returns exactly what the model computes.
 *
 * The key is three words, not the profile. A command's is its
 * command, its cost shape's width and count, and its scalar and aux:
 * the shape's other two fields follow from the count, because the
 * device's core count is fixed, so one key stands for one profile. A
 * copy's is its command and modeled bytes. A miss builds the profile
 * and calls the model.
 *
 * It never grows or rehashes. A key probes kProbeWindow slots from its
 * hash slot; when they are all taken it overwrites one of them in
 * round-robin order, so a stream of fresh scalars or copy lengths
 * cannot grow it. Only misses are counted (cache.cost_memo.miss).
 * Issuing thread only.
 */
class PimCostMemo
{
  public:
    static constexpr size_t kCapacity = 1024; ///< a power of two

    explicit PimCostMemo(const PerfEnergyModel &model) : model_(model) {}

    /** model.costOp of command @p cmd over @p shape with the
     *  immediates @p scalar and @p aux (PimOpProfile::scalar, ::aux),
     *  computed once per distinct key. */
    PimOpCost
    cost(PimCmdEnum cmd, const PimCostShape &shape, uint64_t scalar,
         unsigned aux)
    {
        const Key key{static_cast<uint64_t>(cmd) |
                          uint64_t{shape.bits} << 8 |
                          uint64_t{aux} << 32,
                      shape.num_elements, scalar};
        return lookup(key, [&](Entry &entry) {
            return fillOp(entry, key, cmd, shape, scalar, aux);
        });
    }

    /** model.costCopy of copy command @p cmd (kCopyH2D, kCopyD2H or
     *  kCopyD2D) moving @p bytes modeled bytes, computed once per
     *  distinct (cmd, bytes). */
    PimOpCost
    copyCost(PimCmdEnum cmd, uint64_t bytes)
    {
        const Key key{static_cast<uint64_t>(cmd), bytes, 0};
        return lookup(key, [&](Entry &entry) {
            return fillCopy(entry, key, cmd, bytes);
        });
    }

  private:
    static constexpr size_t kProbeWindow = 8;

    /** The command (never kNone, so 0 marks an empty slot) with, for
     *  a non-copy, the width and aux above it; the count or bytes;
     *  the scalar. */
    struct Key
    {
        uint64_t head = 0;
        uint64_t n = 0;
        uint64_t scalar = 0;

        bool operator==(const Key &) const = default;
    };

    struct Entry
    {
        Key key;
        PimOpCost cost;
    };

    /** The cost held under @p key, else @p fill of the slot a miss
     *  takes: the first empty one of its probe window, or the
     *  round-robin victim. */
    template <typename Fill>
    PimOpCost
    lookup(const Key &key, Fill &&fill)
    {
        constexpr uint64_t kMul = 0x9e3779b97f4a7c15ull;
        constexpr int kBits = std::countr_zero(kCapacity);
        const uint64_t h = (key.head ^ key.n * 0xff51afd7ed558ccdull ^
                            key.scalar * 0xc4ceb9fe1a85ec53ull) *
            kMul;
        const size_t home = static_cast<size_t>(h >> (64 - kBits));
        for (size_t k = 0; k < kProbeWindow; ++k) {
            Entry &entry = entries_[(home + k) & (kCapacity - 1)];
            if (entry.key == key)
                return entry.cost;
            if (entry.key.head == 0)
                return fill(entry);
        }
        const size_t victim = next_victim_++ % kProbeWindow;
        return fill(entries_[(home + victim) & (kCapacity - 1)]);
    }

    /** Cost a command with the model and remember it in @p entry. */
    PimOpCost fillOp(Entry &entry, const Key &key, PimCmdEnum cmd,
                     const PimCostShape &shape, uint64_t scalar,
                     unsigned aux);

    /** Cost a copy with the model and remember it in @p entry. */
    PimOpCost fillCopy(Entry &entry, const Key &key, PimCmdEnum cmd,
                       uint64_t bytes);

    const PerfEnergyModel &model_;
    std::array<Entry, kCapacity> entries_{};
    size_t next_victim_ = 0;
};

} // namespace pimeval

#endif // PIMEVAL_CORE_PERF_ENERGY_MODEL_H_
