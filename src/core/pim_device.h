/**
 * @file
 * The simulated PIM device: functional execution of PIM commands plus
 * performance/energy costing and statistics (paper Fig. 5).
 *
 * Functional results are exact (element-wise semantics shared with the
 * ALPU reference), so benchmarks verify against CPU references, while
 * runtime and energy are modeled per command by the architecture's
 * PerfEnergyModel.
 */

#ifndef PIMEVAL_CORE_PIM_DEVICE_H_
#define PIMEVAL_CORE_PIM_DEVICE_H_

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "core/perf_energy_model.h"
#include "core/pim_data_object.h"
#include "core/pim_fusion.h"
#include "core/pim_params.h"
#include "core/pim_resource_mgr.h"
#include "core/pim_stats.h"
#include "util/thread_pool.h"

namespace pimeval {

class PimDevice
{
  public:
    /**
     * @param ctx_id owning context id (1 = the process-default
     *        context); stamps this device's modeled trace spans so
     *        each context exports its own modeled-time track.
     * @param label  human-readable context label for trace track and
     *        log naming (empty for the default context).
     */
    explicit PimDevice(const PimDeviceConfig &config,
                       uint32_t ctx_id = 1,
                       const std::string &label = std::string());

    /** Flushes any pending fusion window before members tear down. */
    ~PimDevice();

    const PimDeviceConfig &config() const { return config_; }

    /** The architecture's performance/energy model. */
    const PerfEnergyModel *model() const { return model_.get(); }

    /** Owning context id (1 = process default). */
    uint32_t contextId() const { return ctx_id_; }

    /** Context label ("" for the default context). */
    const std::string &label() const { return label_; }

    /**
     * Modeling scale factor (paper-size what-if): functional
     * execution stays at the allocated sizes while every command,
     * transfer, and host phase is costed as if objects held
     * scale-times more elements, analytically redistributed across
     * all cores. Enables regenerating the paper's figures, whose
     * input sizes exceed laptop memory (see DESIGN.md).
     */
    void setModelingScale(double scale);
    double modelingScale() const { return modeling_scale_; }

    PimStatsMgr &stats() { return stats_; }
    const PimStatsMgr &stats() const { return stats_; }
    PimResourceMgr &resources() { return resources_; }

    /** Reset statistics (pimResetStats). Pending fusion-window
     *  commands were issued before the reset, so they flush first and
     *  the reset drops their stats with everything else. */
    void resetStats();

    /** Flush the fusion window: every buffered command executed and
     *  its statistics recorded (pimSync). */
    void sync();

    // --- Elementwise command fusion (core/pim_fusion.h) ---

    /**
     * Fusion toggle (PIMEVAL_FUSION env, pimSetFusionEnabled). While
     * enabled, every fusable elementwise command is buffered in the
     * fusion window; disabling flushes pending commands first.
     */
    void setFusionEnabled(bool on);
    bool fusionEnabled() const { return fusion_on_; }

    /**
     * Explicit fusion region (pimBeginFusion/pimEndFusion): captures
     * commands regardless of the global toggle until the matching
     * endFusion, which flushes. Regions nest; only the outermost
     * endFusion flushes. endFusion returns false when there is no
     * matching beginFusion.
     */
    void beginFusion();
    bool endFusion();

    // --- Resource management ---
    PimObjId alloc(PimAllocEnum alloc_type, uint64_t num_elements,
                   PimDataType data_type);
    PimObjId allocAssociated(PimObjId ref, PimDataType data_type);
    bool free(PimObjId id);
    PimDataObject *object(PimObjId id) { return resources_.get(id); }

    // --- Data movement ---
    PimStatus copyHostToDevice(const void *src, PimObjId dest,
                               uint64_t idx_begin, uint64_t idx_end);
    PimStatus copyDeviceToHost(PimObjId src, void *dest,
                               uint64_t idx_begin, uint64_t idx_end);
    PimStatus copyDeviceToDevice(PimObjId src, PimObjId dest);

    // --- Computation ---
    PimStatus executeBinary(PimCmdEnum cmd, PimObjId a, PimObjId b,
                            PimObjId dest);
    PimStatus executeUnary(PimCmdEnum cmd, PimObjId a, PimObjId dest)
    {
        return executeOneSource(cmd, a, dest, 0, "executeUnary");
    }
    PimStatus executeScalar(PimCmdEnum cmd, PimObjId a, PimObjId dest,
                            uint64_t scalar)
    {
        return executeOneSource(cmd, a, dest, scalar, "executeScalar");
    }
    PimStatus executeScaledAdd(PimObjId a, PimObjId b, PimObjId dest,
                               uint64_t scalar);
    PimStatus executeShift(PimCmdEnum cmd, PimObjId a, PimObjId dest,
                           unsigned amount)
    {
        return executeOneSource(cmd, a, dest, amount, "executeShift");
    }
    PimStatus executeRedSum(PimObjId a, uint64_t idx_begin,
                            uint64_t idx_end, int64_t *result);
    PimStatus executeBroadcast(PimObjId dest, uint64_t value);
    PimStatus executeElementShift(PimCmdEnum cmd, PimObjId obj);

    /** Model a host phase on the CPU-baseline host parameters. */
    void addHostWork(uint64_t bytes, uint64_t ops);

    /** Host-phase wall-clock timing; the measured seconds join the
     *  stats in issue order like everything else. */
    void startHostTimer();
    void stopHostTimer();
    void addHostTime(double seconds);

  private:
    /** Native layout of this device type. */
    bool deviceUsesVLayout() const
    {
        return config_.device ==
            PimDeviceEnum::PIM_DEVICE_BITSIMD_V_AP ||
            config_.device == PimDeviceEnum::PIM_DEVICE_SIMDRAM;
    }

    /** Transfer size under the modeling scale. */
    uint64_t modeledBytes(uint64_t bytes) const;

    /** Interned stats key id plus the tracer-stable name for the same
     *  "cmd.dtype.layout" string (execution-span labels). */
    struct CmdKeyInfo
    {
        PimStatsMgr::CmdKeyId id;
        const char *trace_name;
    };

    /** Interned stats key for the op (issuing thread only, so key
     *  ids follow issue order): a cache-array read once the
     *  (cmd, dtype, layout) combination has been seen. */
    CmdKeyInfo
    keyFor(PimCmdEnum cmd, const PimDataObject &obj)
    {
        const KeyCacheEntry &entry =
            stats_key_cache_[static_cast<size_t>(cmd)]
                            [static_cast<size_t>(obj.dataType())]
                            [obj.isVLayout() ? 1 : 0];
        if (entry.id < 0) [[unlikely]]
            return internKey(cmd, obj);
        return {static_cast<PimStatsMgr::CmdKeyId>(entry.id), entry.name};
    }

    /** keyFor's first sight of a combination: build, intern and cache
     *  the canonical "cmd.dtype.layout" key. */
    CmdKeyInfo internKey(PimCmdEnum cmd, const PimDataObject &obj);

    /** Validate operand compatibility; logs on failure. */
    bool
    checkCompatible(const PimDataObject *a, const PimDataObject *b,
                    const PimDataObject *dest, const char *what) const
    {
        if (a && dest && (!b || b->numElements() == a->numElements()) &&
            dest->numElements() == a->numElements()) [[likely]]
            return true;
        logIncompatible(a, b, dest, what);
        return false;
    }

    /** checkCompatible's failure log. */
    static void logIncompatible(const PimDataObject *a,
                                const PimDataObject *b,
                                const PimDataObject *dest,
                                const char *what);

    /**
     * Build one command over @p shape's elements (its width, sign and
     * count): operand ids and pointers (null objects leave them
     * unset), dest's element mask, the object's cost shape (scaled
     * when the modeling scale is above 1) and the interned stats key
     * (a copy gets neither: it records under no key, and is costed
     * from the copy_payload its caller sets). The caller adds the
     * kernel, the immediates and the command's flags.
     */
    PimFusedOp makeOp(PimCmdEnum cmd, const PimDataObject &shape,
                      const PimDataObject *a, const PimDataObject *b,
                      PimDataObject *dest);

    /** Capture @p op in the fusion window, or run it now. */
    PimStatus issue(const PimFusedOp &op);

    /** The body of executeUnary/Scalar/Shift: a scalar immediate is
     *  masked to the element width (cost_scalar); a shift amount
     *  reaches the kernel unmasked (cost_aux). */
    PimStatus executeOneSource(PimCmdEnum cmd, PimObjId a, PimObjId dest,
                               uint64_t imm, const char *what);

    /** True while fusable elementwise commands should be buffered in
     *  the fusion window instead of issued. */
    bool fusionCapturing() const
    {
        return fusion_on_ || fusion_region_depth_ > 0;
    }

    /** Buffer one captured command (flushing first if the window is
     *  full); a load's host bytes are snapshotted here. */
    void recordFusion(const PimFusedOp &op);

    /**
     * Plan and execute the pending fusion window: singleton chains go
     * through runFusedOp, multi-op chains lower to expression tapes,
     * and deferred frees resolve (elided temporaries return pristine
     * to the allocator). No-op when empty.
     */
    void flushFusion();

    /** The singleton executor: run one command alone and commit its
     *  stats. Every uncaptured fusable command (a ranged H2D copy
     *  included) and every singleton chain of a flushed window runs
     *  here. */
    void runFusedOp(const PimFusedOp &op);

    /**
     * The only per-command stats record. Every op is costed through
     * the cost memo. A copy (op.cmd kCopyH2D, kCopyD2H or kCopyD2D)
     * records its transfer of op.copy_payload bytes; any other op
     * records opCost(op) under its key.
     */
    void commit(const PimFusedOp &op);

    /** The modeled cost of non-copy @p op, from its cost inputs. */
    PimOpCost opCost(const PimFusedOp &op)
    {
        return cost_memo_.cost(op.cmd, op.shape, op.cost_scalar,
                               op.cost_aux);
    }

    /** commit() of a non-copy op with a cost the caller computed: an
     *  element shift's data movement, a ranged reduction's range
     *  fraction. */
    void commit(const PimFusedOp &op, const PimOpCost &cost);

    /** Execute one multi-op chain as a single tape sweep that
     *  records every member's stats in issue order; a chain ending in
     *  a reduction writes the scalar result back to the host. */
    void executeFusedChain(const std::vector<PimFusedOp> &ops,
                           const PimFusionChain &chain);

    PimDeviceConfig config_;
    uint32_t ctx_id_ = 1;
    std::string label_;
    PimResourceMgr resources_;
    std::unique_ptr<PerfEnergyModel> model_;
    /** Memoized model_->costOp and costCopy for every stats record. */
    PimCostMemo cost_memo_;
    PimStatsMgr stats_;
    ThreadPool pool_;
    double modeling_scale_ = 1.0;

    /** Fusion issue window (issuing thread only). */
    PimFusionWindow fusion_window_;
    /** Recycles captured-copy snapshot buffers; shared so snapshot
     *  deleters never outlive the pool. */
    std::shared_ptr<PimSnapshotPool> snapshot_pool_ =
        std::make_shared<PimSnapshotPool>();
    bool fusion_on_ = false;
    int fusion_region_depth_ = 0;

    /** Host-phase wall-clock timer (issuing thread only). */
    std::chrono::high_resolution_clock::time_point host_timer_start_;
    bool host_timing_ = false;

    /** One (cmd, dtype, layout) cache slot; id -1 = unseen. */
    struct KeyCacheEntry
    {
        int32_t id = -1;
        const char *name = nullptr;
    };

    /** (cmd, dtype, layout) -> interned stats key + trace name. */
    static constexpr size_t kNumCmds =
        static_cast<size_t>(PimCmdEnum::kCopyD2D) + 1;
    static constexpr size_t kNumDataTypes =
        static_cast<size_t>(PimDataType::PIM_UINT64) + 1;
    KeyCacheEntry stats_key_cache_[kNumCmds][kNumDataTypes][2];
};

} // namespace pimeval

#endif // PIMEVAL_CORE_PIM_DEVICE_H_
