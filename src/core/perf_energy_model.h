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
#include <memory>

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
    PimDataType data_type = PimDataType::PIM_INT32;
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
 * Fixed-capacity memo in front of one model's costOp, one per device.
 * costOp is a pure function of the profile, the model's immutable
 * configuration and its immutable memory backend, so a hit returns
 * exactly what the model computes. The key is every profile field a
 * model reads: all of them except data_type.
 *
 * Sized for the Table I apps (485 distinct profiles per device in the
 * table1_cmd benchmark workload), it never grows or rehashes. A profile probes kProbeWindow slots from
 * its hash slot; when they are all taken it overwrites one of them in
 * round-robin order, so a stream of fresh scalars cannot grow it. Only
 * misses are counted (cache.cost_memo.miss). Issuing thread only.
 */
class PimCostMemo
{
  public:
    static constexpr size_t kCapacity = 1024; ///< a power of two

    explicit PimCostMemo(const PerfEnergyModel &model) : model_(model) {}

    /** model.costOp(profile), computed once per distinct key. */
    PimOpCost costOp(const PimOpProfile &profile);

  private:
    static constexpr size_t kProbeWindow = 8;

    /** One memoized cost; key.cmd == kNone marks an empty slot. */
    struct Entry
    {
        PimOpProfile key;
        PimOpCost cost;
    };

    /** Cost @p profile with the model and remember it in @p entry. */
    PimOpCost fill(Entry &entry, const PimOpProfile &profile);

    const PerfEnergyModel &model_;
    std::array<Entry, kCapacity> entries_{};
    size_t next_victim_ = 0;
};

} // namespace pimeval

#endif // PIMEVAL_CORE_PERF_ENERGY_MODEL_H_
