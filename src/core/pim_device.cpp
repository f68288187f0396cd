/**
 * @file
 * PimDevice implementation: functional semantics plus costing.
 */

#include "core/pim_device.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <unordered_set>

#include "core/pim_host_io.h"
#include "core/pim_metrics.h"
#include "core/pim_trace.h"
#include "fulcrum/alpu_kernels.h"
#include "fulcrum/fulcrum_core.h"
#include "util/logging.h"

namespace pimeval {

namespace {

/** Map a two/one-operand PIM command to the shared ALU semantics. */
bool
cmdToAlpuOp(PimCmdEnum cmd, AlpuOp &op)
{
    switch (cmd) {
      case PimCmdEnum::kAdd:
      case PimCmdEnum::kAddScalar:
        op = AlpuOp::kAdd;
        return true;
      case PimCmdEnum::kSub:
      case PimCmdEnum::kSubScalar:
        op = AlpuOp::kSub;
        return true;
      case PimCmdEnum::kMul:
      case PimCmdEnum::kMulScalar:
        op = AlpuOp::kMul;
        return true;
      case PimCmdEnum::kDiv:
      case PimCmdEnum::kDivScalar:
        op = AlpuOp::kDiv;
        return true;
      case PimCmdEnum::kMin:
      case PimCmdEnum::kMinScalar:
        op = AlpuOp::kMin;
        return true;
      case PimCmdEnum::kMax:
      case PimCmdEnum::kMaxScalar:
        op = AlpuOp::kMax;
        return true;
      case PimCmdEnum::kAnd:
      case PimCmdEnum::kAndScalar:
        op = AlpuOp::kAnd;
        return true;
      case PimCmdEnum::kOr:
      case PimCmdEnum::kOrScalar:
        op = AlpuOp::kOr;
        return true;
      case PimCmdEnum::kXor:
      case PimCmdEnum::kXorScalar:
        op = AlpuOp::kXor;
        return true;
      case PimCmdEnum::kXnor:
        op = AlpuOp::kXnor;
        return true;
      case PimCmdEnum::kNot:
        op = AlpuOp::kNot;
        return true;
      case PimCmdEnum::kAbs:
        op = AlpuOp::kAbs;
        return true;
      case PimCmdEnum::kGT:
      case PimCmdEnum::kGTScalar:
        op = AlpuOp::kGT;
        return true;
      case PimCmdEnum::kLT:
      case PimCmdEnum::kLTScalar:
        op = AlpuOp::kLT;
        return true;
      case PimCmdEnum::kEQ:
      case PimCmdEnum::kEQScalar:
        op = AlpuOp::kEQ;
        return true;
      case PimCmdEnum::kShiftBitsLeft:
        op = AlpuOp::kShiftL;
        return true;
      case PimCmdEnum::kShiftBitsRight:
        op = AlpuOp::kShiftR;
        return true;
      case PimCmdEnum::kPopCount:
        op = AlpuOp::kPopCount;
        return true;
      default:
        return false;
    }
}

// ---------------------------------------------------------------------------
// One command issue path.
//
// Every fusable command (the elementwise, scaled-add and broadcast
// commands, a full-object reduction and a host-to-device copy) is
// built once as a PimFusedOp by makeOp: operand pointers, the
// op-specialized chunk kernel (fulcrum/alpu_kernels.h, or the
// host-I/O kernel of core/pim_host_io.h), the object's cost shape and
// the interned stats key. issue() then either buffers it in the
// fusion window (core/pim_fusion.h) or runs it at once through
// runFusedOp, the singleton executor, which hands contiguous [lo, hi)
// chunks to ThreadPool::parallelForChunks. The commands that never
// fuse (device-to-host and device-to-device copies, element shifts
// and a ranged reduction) build their op the same way and run their
// own body. commit() is the only per-command stats record, for all
// of them and for fused chains alike, so fused and unfused runs
// record identical stats. See docs/PERFORMANCE.md.
// ---------------------------------------------------------------------------

/**
 * Chunked reduction of pa[lo, hi): per-chunk partial sums folded into
 * one atomic accumulator (wrapping int64 addition is associative, so
 * chunk order cannot change the result). Sum semantics match
 * PimDataObject::getSigned.
 */
int64_t
sumElements(ThreadPool &pool, const uint64_t *pa, size_t lo, size_t hi,
            bool sgn, unsigned bits)
{
    std::atomic<int64_t> total{0};
    pool.parallelForChunks(lo, hi, [&](size_t clo, size_t chi) {
        int64_t part = 0;
        if (sgn) {
            for (size_t i = clo; i < chi; ++i)
                part += alpuSignExtend(pa[i], bits);
        } else {
            for (size_t i = clo; i < chi; ++i)
                part += static_cast<int64_t>(pa[i]);
        }
        total.fetch_add(part, std::memory_order_relaxed);
    });
    return total.load(std::memory_order_relaxed);
}

} // namespace

PimDevice::PimDevice(const PimDeviceConfig &config, uint32_t ctx_id,
                     const std::string &label)
    : config_(config), ctx_id_(ctx_id ? ctx_id : 1), label_(label),
      resources_(config), model_(PerfEnergyModel::create(config)),
      cost_memo_(*model_)
{
    // The thread constructing the device is its issuing thread; label
    // its trace track accordingly. Concurrent contexts each name their
    // own issuing thread.
    PimTracer::instance().setThreadName(
        label_.empty() ? "issue-thread" : label_ + ".issue");
    stats_.setTraceContext(ctx_id_);
    PimTracer::instance().registerContext(ctx_id_, label_);
    logInfo(strCat("Current Device = PIM_FUNCTIONAL, Simulation Target = ",
                   pimDeviceName(config_.device)));
    logInfo(config_.summary());
    if (config_.device == PimDeviceEnum::PIM_DEVICE_FULCRUM)
        logInfo("Aggregate every two subarrays as a single core");
    logInfo(strCat("Created PIM device with ", config_.numCores(),
                   " cores of ", config_.rowsPerCore(), " rows and ",
                   config_.colsPerCore(), " columns."));
    logInfo(strCat("Created thread pool with ", pool_.size(),
                   " threads."));
    // Fusion defaults off; PIMEVAL_FUSION (any non-empty value but
    // "0") turns it on device-wide, mirroring pimSetFusionEnabled.
    const char *fusion = std::getenv("PIMEVAL_FUSION");
    fusion_on_ = fusion && *fusion && std::strcmp(fusion, "0") != 0;
}

PimDevice::~PimDevice()
{
    flushFusion();
}

void
PimDevice::setFusionEnabled(bool on)
{
    if (!on)
        flushFusion();
    fusion_on_ = on;
}

void
PimDevice::beginFusion()
{
    ++fusion_region_depth_;
}

bool
PimDevice::endFusion()
{
    if (fusion_region_depth_ == 0) {
        logError("pimEndFusion: no matching pimBeginFusion");
        return false;
    }
    // The outermost end always flushes, even with the global toggle
    // on: deferred results (pimRedSum inside the region) must be
    // valid once pimEndFusion returns.
    if (--fusion_region_depth_ == 0)
        flushFusion();
    return true;
}

PimObjId
PimDevice::alloc(PimAllocEnum alloc_type, uint64_t num_elements,
                 PimDataType data_type)
{
    bool v_layout = deviceUsesVLayout();
    if (alloc_type == PimAllocEnum::PIM_ALLOC_V)
        v_layout = true;
    else if (alloc_type == PimAllocEnum::PIM_ALLOC_H)
        v_layout = false;
    // Allocations do not flush the fusion window; objects born while
    // it captures are the dead-temporary elision candidates. But when
    // capacity is exhausted, the rows we need may be held by frees the
    // window has deferred — flush and retry before giving up.
    const bool can_retry = !fusion_window_.empty();
    PimDataObject *obj = resources_.alloc(num_elements, data_type,
                                          v_layout, can_retry);
    if (!obj && can_retry) {
        flushFusion();
        obj = resources_.alloc(num_elements, data_type, v_layout);
    }
    if (obj && fusionCapturing())
        fusion_window_.noteAlloc(obj->id());
    return obj ? obj->id() : -1;
}

PimObjId
PimDevice::allocAssociated(PimObjId ref, PimDataType data_type)
{
    const PimDataObject *ref_obj = resources_.get(ref);
    if (!ref_obj) {
        logError("pimAllocAssociated: unknown reference object");
        return -1;
    }
    // Capacity may be parked in the window's deferred frees: try
    // quietly, then flush the window and retry.
    const bool can_retry = !fusion_window_.empty();
    PimDataObject *obj =
        resources_.allocAssociated(*ref_obj, data_type, can_retry);
    if (!obj && can_retry) {
        flushFusion();
        // The flush ran deferred frees: re-fetch the reference.
        ref_obj = resources_.get(ref);
        if (!ref_obj) {
            logError("pimAllocAssociated: reference object freed");
            return -1;
        }
        obj = resources_.allocAssociated(*ref_obj, data_type);
    }
    if (obj && fusionCapturing())
        fusion_window_.noteAlloc(obj->id());
    return obj ? obj->id() : -1;
}

bool
PimDevice::free(PimObjId id)
{
    if (!fusion_window_.empty()) {
        // A free of a pending dest is deferred to the flush — exactly
        // the alloc -> written -> freed-unread pattern elision needs.
        // This covers pending *copies* too (captured H2D loads carry
        // their dest like any compute): freeing a staging column whose
        // copy is still buffered must not release the storage early.
        // A free of an object the window only reads flushes first.
        if (fusion_window_.noteFree(id))
            return true; // a pending command writes it: defer to flush
        if (fusion_window_.touches(id))
            flushFusion();
    }
    return resources_.free(id);
}

void
PimDevice::sync()
{
    flushFusion();
}

void
PimDevice::resetStats()
{
    flushFusion();
    stats_.reset();
}

PimStatus
PimDevice::copyHostToDevice(const void *src, PimObjId dest,
                            uint64_t idx_begin, uint64_t idx_end)
{
    PimDataObject *obj = resources_.get(dest);
    if (!obj || !src) {
        logError("pimCopyHostToDevice: bad arguments");
        return PimStatus::PIM_ERROR;
    }
    if (idx_end == 0)
        idx_end = obj->numElements();
    if (idx_begin >= idx_end || idx_end > obj->numElements()) {
        logError("pimCopyHostToDevice: bad range");
        return PimStatus::PIM_ERROR;
    }

    PimFusedOp op =
        makeOp(PimCmdEnum::kCopyH2D, *obj, nullptr, nullptr, obj);
    op.is_load = true;
    op.pd += idx_begin;
    op.n = idx_end - idx_begin;
    op.host = static_cast<const uint8_t *>(src);
    op.load_kern = pimHostToDeviceChunkForBits(op.bits);
    op.host_stride = pimHostStrideForBits(op.bits);
    op.copy_payload = modeledBytes(op.n * op.host_stride);
    // A full-object copy captures as an is_load window member, so the
    // planner can link copy->consumer chains and elide a staging dest
    // consumed only in-window. A ranged copy writes part of dest,
    // which the planner cannot model: it keeps the flush barrier.
    if (op.n != obj->numElements()) {
        flushFusion();
        runFusedOp(op);
        return PimStatus::PIM_OK;
    }
    return issue(op);
}

PimStatus
PimDevice::copyDeviceToHost(PimObjId src, void *dest, uint64_t idx_begin,
                            uint64_t idx_end)
{
    flushFusion();
    PimDataObject *obj = resources_.get(src);
    if (!obj || !dest) {
        logError("pimCopyDeviceToHost: bad arguments");
        return PimStatus::PIM_ERROR;
    }
    if (idx_end == 0)
        idx_end = obj->numElements();
    if (idx_begin >= idx_end || idx_end > obj->numElements()) {
        logError("pimCopyDeviceToHost: bad range");
        return PimStatus::PIM_ERROR;
    }

    PimFusedOp op =
        makeOp(PimCmdEnum::kCopyD2H, *obj, obj, nullptr, nullptr);
    op.pa += idx_begin;
    op.n = idx_end - idx_begin;
    op.copy_payload = modeledBytes(op.n * pimHostStrideForBits(op.bits));
    const PimDeviceToHostChunkFn kernel =
        pimDeviceToHostChunkForBits(op.bits);
    auto *bytes = static_cast<uint8_t *>(dest);

    PIM_TRACE_SCOPE_ARG(op.trace_name, "exec", op.copy_payload);
    pool_.parallelForChunks(0, op.n, [&](size_t lo, size_t hi) {
        kernel(op.pa, bytes, lo, hi);
    });
    commit(op);
    return PimStatus::PIM_OK;
}

PimStatus
PimDevice::copyDeviceToDevice(PimObjId src, PimObjId dest)
{
    flushFusion();
    PimDataObject *s = resources_.get(src);
    PimDataObject *d = resources_.get(dest);
    if (!checkCompatible(s, nullptr, d, "pimCopyDeviceToDevice"))
        return PimStatus::PIM_ERROR;
    // Lanes hold values masked to their source's width: copied into
    // another width they would sit out of range or lose their sign.
    if (d->bitsPerElement() != s->bitsPerElement()) {
        logError("pimCopyDeviceToDevice: element width mismatch");
        return PimStatus::PIM_ERROR;
    }

    PimFusedOp op = makeOp(PimCmdEnum::kCopyD2D, *s, s, nullptr, d);
    op.copy_payload = modeledBytes(s->payloadBytes());

    PIM_TRACE_SCOPE_ARG(op.trace_name, "exec", op.copy_payload);
    std::copy(op.pa, op.pa + op.n, op.pd);
    commit(op);
    return PimStatus::PIM_OK;
}

PimStatus
PimDevice::executeElementShift(PimCmdEnum cmd, PimObjId obj_id)
{
    flushFusion(); // inter-element movement is not fusable
    PimDataObject *obj = resources_.get(obj_id);
    if (!obj) {
        logError("pimShift/RotateElements: unknown object id");
        return PimStatus::PIM_ERROR;
    }
    if (obj->raw().empty())
        return PimStatus::PIM_OK;
    switch (cmd) {
      case PimCmdEnum::kShiftElementsRight:
      case PimCmdEnum::kShiftElementsLeft:
      case PimCmdEnum::kRotateElementsRight:
      case PimCmdEnum::kRotateElementsLeft:
        break;
      default:
        logError("pimShift/RotateElements: unsupported command");
        return PimStatus::PIM_ERROR;
    }

    const PimFusedOp op = makeOp(cmd, *obj, obj, nullptr, obj);
    const uint64_t payload = modeledBytes(obj->payloadBytes());
    const uint64_t boundary_bytes =
        obj->numCoresUsed() * pimHostStrideForBits(op.bits);

    PIM_TRACE_SCOPE_ARG(op.trace_name, "exec", payload);
    auto &raw = obj->raw();
    const size_t n = raw.size();
    // Whole-object data movement: memmove/rotate instead of an
    // element-at-a-time loop (same result, streaming speed).
    switch (cmd) {
      case PimCmdEnum::kShiftElementsRight:
        std::memmove(raw.data() + 1, raw.data(),
                     (n - 1) * sizeof(uint64_t));
        raw[0] = 0;
        break;
      case PimCmdEnum::kShiftElementsLeft:
        std::memmove(raw.data(), raw.data() + 1,
                     (n - 1) * sizeof(uint64_t));
        raw[n - 1] = 0;
        break;
      case PimCmdEnum::kRotateElementsRight:
        std::rotate(raw.begin(), raw.end() - 1, raw.end());
        break;
      default:
        std::rotate(raw.begin(), raw.begin() + 1, raw.end());
        break;
    }

    // Cost: inter-element movement rewrites the whole object once in
    // place (read + write of every row) and fixes one boundary element
    // per region through the host interface.
    PimOpCost cost = cost_memo_.copyCost(PimCmdEnum::kCopyD2D, payload);
    cost += cost_memo_.copyCost(PimCmdEnum::kCopyD2H, boundary_bytes);
    cost += cost_memo_.copyCost(PimCmdEnum::kCopyH2D, boundary_bytes);
    commit(op, cost);
    return PimStatus::PIM_OK;
}

void
PimDevice::addHostWork(uint64_t bytes, uint64_t ops)
{
    flushFusion(); // host seconds accumulate in issue order
    // Single-core host phase on the Table II CPU: the greater of the
    // streaming time at the per-core share of peak bandwidth and the
    // scalar op time at the core clock.
    const HostParams host;
    const double b =
        static_cast<double>(bytes) * modeling_scale_;
    const double o = static_cast<double>(ops) * modeling_scale_;
    const double per_core_bw =
        host.cpu_mem_bw_gbps * 1e9 / host.cpu_cores;
    stats_.addHostTimeRaw(
        std::max(b / per_core_bw, o / (host.cpu_freq_ghz * 1e9)));
}

void
PimDevice::startHostTimer()
{
    host_timer_start_ = std::chrono::high_resolution_clock::now();
    host_timing_ = true;
}

void
PimDevice::stopHostTimer()
{
    if (!host_timing_)
        return;
    host_timing_ = false;
    const double seconds =
        std::chrono::duration<double>(
            std::chrono::high_resolution_clock::now() -
            host_timer_start_)
            .count();
    addHostTime(seconds);
}

void
PimDevice::addHostTime(double seconds)
{
    flushFusion();
    stats_.addHostTime(seconds);
}

uint64_t
PimDevice::modeledBytes(uint64_t bytes) const
{
    if (modeling_scale_ <= 1.0)
        return bytes;
    return static_cast<uint64_t>(static_cast<double>(bytes) *
                                 modeling_scale_);
}

void
PimDevice::setModelingScale(double scale)
{
    // Captured window commands hold cost shapes and copy payloads
    // built at the old scale.
    flushFusion();
    modeling_scale_ = scale >= 1.0 ? scale : 1.0;
    stats_.setHostScale(modeling_scale_);
}

PimFusedOp
PimDevice::makeOp(PimCmdEnum cmd, const PimDataObject &shape,
                  const PimDataObject *a, const PimDataObject *b,
                  PimDataObject *dest)
{
    PimFusedOp op;
    op.cmd = cmd;
    if (a) {
        op.a = a->id();
        op.pa = a->raw().data();
    }
    if (b) {
        op.b = b->id();
        op.pb = b->raw().data();
    }
    if (dest) {
        op.dest = dest->id();
        op.pd = dest->raw().data();
        op.dmask = dest->elementMask();
    }
    op.sgn = shape.isSigned();
    op.bits = shape.bitsPerElement();
    op.n = shape.numElements();
    if (const std::optional<PimCopyEnum> dir = pimCopyDirection(cmd)) {
        // A copy is costed from its payload, not from its operands'
        // shape, and records under no command key.
        static const char *const kTraceNames[] = {"copyH2D", "copyD2H",
                                                  "copyD2D"};
        op.trace_name = kTraceNames[static_cast<size_t>(*dir)];
        return op;
    }

    if (modeling_scale_ > 1.0) [[unlikely]] {
        // Paper-size what-if: cost the op as if the object held
        // scale-times more elements, balanced across all cores.
        op.shape = PimCostShape::of(
            op.bits,
            static_cast<uint64_t>(static_cast<double>(op.n) *
                                  modeling_scale_),
            config_.numCores());
    } else {
        op.shape = shape.costShape();
    }
    const CmdKeyInfo key = keyFor(cmd, shape);
    op.key_id = key.id;
    op.trace_name = key.trace_name;
    return op;
}

PimDevice::CmdKeyInfo
PimDevice::internKey(PimCmdEnum cmd, const PimDataObject &obj)
{
    // The canonical "cmd.dtype.layout" key is built (and interned)
    // only the first time a combination is seen. Called from the
    // issuing thread only, so key ids are assigned in issue order
    // (fused and unfused runs produce identical stats reports).
    KeyCacheEntry &entry =
        stats_key_cache_[static_cast<size_t>(cmd)]
                        [static_cast<size_t>(obj.dataType())]
                        [obj.isVLayout() ? 1 : 0];
    const std::string key = pimCmdName(cmd) + "." +
        pimDataTypeName(obj.dataType()) + (obj.isVLayout() ? ".v" : ".h");
    entry.id = static_cast<int32_t>(stats_.internCmdKey(key, cmd));
    // Interned in the tracer too: execution spans need a name that
    // outlives this call on any thread.
    entry.name = PimTracer::instance().intern(key);
    return {static_cast<PimStatsMgr::CmdKeyId>(entry.id), entry.name};
}

void
PimDevice::logIncompatible(const PimDataObject *a, const PimDataObject *b,
                           const PimDataObject *dest, const char *what)
{
    if (!a || !dest)
        logError(strCat(what, ": unknown object id"));
    else if (b && b->numElements() != a->numElements())
        logError(strCat(what, ": operand size mismatch"));
    else
        logError(strCat(what, ": destination size mismatch"));
}

PimStatus
PimDevice::executeBinary(PimCmdEnum cmd, PimObjId a, PimObjId b,
                         PimObjId dest)
{
    PimDataObject *oa = resources_.get(a);
    PimDataObject *ob = resources_.get(b);
    PimDataObject *od = resources_.get(dest);
    if (!ob) {
        logError("executeBinary: unknown object id");
        return PimStatus::PIM_ERROR;
    }
    if (!checkCompatible(oa, ob, od, "executeBinary"))
        return PimStatus::PIM_ERROR;

    AlpuOp alu;
    const bool is_ne = (cmd == PimCmdEnum::kNE);
    if (is_ne) {
        alu = AlpuOp::kEQ;
    } else if (!cmdToAlpuOp(cmd, alu)) {
        logError("executeBinary: unsupported command");
        return PimStatus::PIM_ERROR;
    }

    PimFusedOp op = makeOp(cmd, *oa, oa, ob, od);
    op.kern2 = is_ne ? binaryChunkFor<true>(alu, op.sgn)
                     : binaryChunkFor<false>(alu, op.sgn);
    return issue(op);
}

PimStatus
PimDevice::executeOneSource(PimCmdEnum cmd, PimObjId a, PimObjId dest,
                            uint64_t imm, const char *what)
{
    PimDataObject *oa = resources_.get(a);
    PimDataObject *od = resources_.get(dest);
    if (!checkCompatible(oa, nullptr, od, what))
        return PimStatus::PIM_ERROR;

    AlpuOp alu;
    if (!cmdToAlpuOp(cmd, alu)) {
        logError(strCat(what, ": unsupported command"));
        return PimStatus::PIM_ERROR;
    }

    PimFusedOp op = makeOp(cmd, *oa, oa, nullptr, od);
    op.kern1 = scalarChunkFor(alu, op.sgn);
    if (alu == AlpuOp::kShiftL || alu == AlpuOp::kShiftR) {
        // The kernel range-checks the amount itself: masking it to
        // the element width would wrap 2^bits back to 0.
        op.scalar = imm;
        op.cost_aux = static_cast<unsigned>(imm);
    } else {
        op.scalar = imm & oa->elementMask();
        op.cost_scalar = op.scalar;
    }
    return issue(op);
}

PimStatus
PimDevice::executeScaledAdd(PimObjId a, PimObjId b, PimObjId dest,
                            uint64_t scalar)
{
    PimDataObject *oa = resources_.get(a);
    PimDataObject *ob = resources_.get(b);
    PimDataObject *od = resources_.get(dest);
    if (!ob) {
        logError("pimScaledAdd: unknown object id");
        return PimStatus::PIM_ERROR;
    }
    if (!checkCompatible(oa, ob, od, "pimScaledAdd"))
        return PimStatus::PIM_ERROR;

    PimFusedOp op = makeOp(PimCmdEnum::kScaledAdd, *oa, oa, ob, od);
    op.kern_sa = op.sgn ? &scaledAddChunk<true> : &scaledAddChunk<false>;
    op.scalar = scalar & oa->elementMask();
    op.cost_scalar = op.scalar;
    return issue(op);
}

PimStatus
PimDevice::executeRedSum(PimObjId a, uint64_t idx_begin, uint64_t idx_end,
                         int64_t *result)
{
    PimDataObject *oa = resources_.get(a);
    if (!oa || !result) {
        logError("pimRedSum: bad arguments");
        return PimStatus::PIM_ERROR;
    }
    if (idx_end == 0)
        idx_end = oa->numElements();
    if (idx_begin >= idx_end || idx_end > oa->numElements()) {
        logError("pimRedSum: bad range");
        return PimStatus::PIM_ERROR;
    }

    PimFusedOp op = makeOp(PimCmdEnum::kRedSum, *oa, oa, nullptr, nullptr);
    op.is_reduce = true;
    op.red_result = result;
    // A full-object reduction captures as a chain *terminator*, so
    // mul+redSum lowers to one compute+accumulate sweep with no
    // materialized product. Under the global toggle the window
    // flushes right after the capture, preserving the blocking
    // contract (*result is ready on return); inside
    // pimBeginFusion/pimEndFusion the reduction is deferred and
    // *result is guaranteed at the next flush (see docs/API.md).
    if (idx_begin == 0 && idx_end == oa->numElements()) {
        issue(op);
        if (fusionCapturing() && fusion_region_depth_ == 0)
            flushFusion();
        return PimStatus::PIM_OK;
    }
    // Ranged reductions flush and run here: the planner only models
    // whole-object dataflow.
    flushFusion();
    const double fraction =
        static_cast<double>(idx_end - idx_begin) /
        static_cast<double>(oa->numElements());

    PIM_TRACE_SCOPE_ARG(op.trace_name, "exec", idx_end - idx_begin);
    *result = sumElements(pool_, op.pa, idx_begin, idx_end, op.sgn,
                          op.bits);

    // Cost the full-object reduction (a ranged sum still touches all
    // rows that hold the range; approximate with the range fraction).
    PimOpCost cost = opCost(op);
    cost.runtime_sec *= fraction;
    cost.energy_j *= fraction;
    commit(op, cost);
    return PimStatus::PIM_OK;
}

PimStatus
PimDevice::executeBroadcast(PimObjId dest, uint64_t value)
{
    PimDataObject *od = resources_.get(dest);
    if (!od) {
        logError("pimBroadcast: unknown object id");
        return PimStatus::PIM_ERROR;
    }
    // Broadcast captures as a fill: it can open a chain, and an
    // elided fill flows into its consumer as the tile — no chain
    // break, no materialized constant vector.
    PimFusedOp op =
        makeOp(PimCmdEnum::kBroadcast, *od, nullptr, nullptr, od);
    op.is_fill = true;
    op.scalar = value & od->elementMask();
    op.cost_scalar = op.scalar;
    return issue(op);
}

// ---------------------------------------------------------------------------
// Elementwise command fusion (core/pim_fusion.h).
// ---------------------------------------------------------------------------

namespace {

/** Interned execution-span name for a fused chain of @p len ops
 *  (loads ride along uncapped, so a chain can span the window).
 *  Unused when -DPIMEVAL_TRACING=OFF compiles the span away. */
[[maybe_unused]] const char *
fusedTraceName(size_t len)
{
    static const char *cache[kMaxFusionWindowOps + 1] = {};
    if (len > kMaxFusionWindowOps)
        len = kMaxFusionWindowOps;
    if (!cache[len])
        cache[len] =
            PimTracer::instance().intern(strCat("fused.x", len));
    return cache[len];
}

} // namespace

PimStatus
PimDevice::issue(const PimFusedOp &op)
{
    if (fusionCapturing())
        recordFusion(op);
    else
        runFusedOp(op);
    return PimStatus::PIM_OK;
}

void
PimDevice::recordFusion(const PimFusedOp &op)
{
    if (fusion_window_.full())
        flushFusion();
    // A captured copy reads a snapshot taken now: the caller's buffer
    // need not stay valid once the call returns. The buffer comes
    // from the recycling pool (fresh multi-megabyte blocks pay mmap
    // page faults dwarfing the memcpy) and is filled by a
    // pool-parallel copy, spreading the bandwidth the same way the
    // fused sweep itself does.
    if (!op.is_load) {
        fusion_window_.record(op);
        return;
    }
    const size_t bytes = op.n * op.host_stride;
    std::shared_ptr<uint8_t[]> snap = snapshot_pool_->acquire(bytes);
    uint8_t *to = snap.get();
    const uint8_t *from = op.host;
    pool_.parallelForChunks(0, bytes, [to, from](size_t lo, size_t hi) {
        std::memcpy(to + lo, from + lo, hi - lo);
    });
    fusion_window_.record(op, std::move(snap));
}

void
PimDevice::flushFusion()
{
    if (fusion_window_.empty()) {
        // Even an empty flush is a write barrier: whatever runs next
        // (copies, broadcasts, non-captured elementwise ops) may write
        // objects allocated during capture, so they are no longer
        // provably untouched and must stop being elision candidates.
        // Clearing here keeps noteAlloc's born-set scoped to the
        // window that actually executes.
        fusion_window_.clear();
        return;
    }
    const std::vector<PimFusedOp> &ops = fusion_window_.ops();
    // Per-id write bookkeeping for the deferred frees: an id may now
    // collect both elided and materialized writes in one window (WAW
    // elision), and only an id whose *every* write was elided may
    // return to the allocator pristine — one materialized write means
    // the storage was touched.
    std::unordered_set<PimObjId> written_ids;
    std::unordered_set<PimObjId> materialized_ids;
    if (!ops.empty()) {
        const std::vector<PimFusionChain> chains =
            fusion_window_.plan();
        uint64_t fused_chains = 0;
        uint64_t fused_ops = 0;
        uint64_t reduction_chains = 0;
        uint64_t host_loads = 0;
        uint64_t copy_bytes_fused = 0;
        uint64_t copy_elisions = 0;
        for (const PimFusionChain &chain : chains) {
            if (chain.size() == 1) {
                const PimFusedOp &op = ops[chain.front().op];
                if (op.dest >= 0) {
                    written_ids.insert(op.dest);
                    materialized_ids.insert(op.dest);
                }
                runFusedOp(op);
                continue;
            }
            ++fused_chains;
            fused_ops += chain.size();
            if (ops[chain.back().op].is_reduce)
                ++reduction_chains;
            for (const PimFusionStep &st : chain) {
                const PimFusedOp &op = ops[st.op];
                if (op.dest >= 0) {
                    written_ids.insert(op.dest);
                    if (!st.elide_store)
                        materialized_ids.insert(op.dest);
                }
                if (op.is_load) {
                    ++host_loads;
                    copy_bytes_fused += op.copy_payload;
                    if (st.elide_store)
                        ++copy_elisions;
                }
            }
            executeFusedChain(ops, chain);
        }
        if (fused_chains > 0) {
            PIM_METRIC_COUNT("fusion.chains", fused_chains);
            PIM_METRIC_COUNT("fusion.ops_fused", fused_ops);
        }
        if (reduction_chains > 0)
            PIM_METRIC_COUNT("fusion.reduction_chains",
                             reduction_chains);
        if (host_loads > 0) {
            PIM_METRIC_COUNT("fusion.host_loads", host_loads);
            PIM_METRIC_COUNT("fusion.copy_bytes_fused",
                             copy_bytes_fused);
        }
        if (copy_elisions > 0)
            PIM_METRIC_COUNT("fusion.copy_elisions", copy_elisions);
    }
    // Deferred frees: a temporary whose every write was elided never
    // materialized, so its storage goes back to the allocator
    // pristine. Anything with a materialized write frees normally.
    uint64_t temps_elided = 0;
    for (PimObjId id : fusion_window_.deferredFrees()) {
        if (written_ids.count(id) > 0 &&
            materialized_ids.count(id) == 0) {
            resources_.freeElided(id);
            ++temps_elided;
        } else {
            resources_.free(id);
        }
    }
    if (temps_elided > 0)
        PIM_METRIC_COUNT("fusion.temps_elided", temps_elided);
    fusion_window_.clear();
}

void
PimDevice::runFusedOp(const PimFusedOp &op)
{
    PIM_TRACE_SCOPE_ARG(op.trace_name, "exec",
                        op.is_load ? op.copy_payload : op.n);
    if (op.is_reduce) {
        *op.red_result =
            sumElements(pool_, op.pa, 0, op.n, op.sgn, op.bits);
    } else {
        pool_.parallelForChunks(0, op.n, [&op](size_t lo, size_t hi) {
            if (op.is_load)
                op.load_kern(op.host, op.pd, lo, hi, op.dmask);
            else if (op.is_fill)
                std::fill(op.pd + lo, op.pd + hi, op.scalar);
            else if (op.kern2)
                op.kern2(op.pa, op.pb, op.pd, lo, hi, op.bits, op.dmask);
            else if (op.kern_sa)
                op.kern_sa(op.pa, op.pb, op.scalar, op.pd, lo, hi,
                           op.bits, op.dmask);
            else
                op.kern1(op.pa, op.scalar, op.pd, lo, hi, op.bits,
                         op.dmask);
        });
    }
    commit(op);
}

void
PimDevice::commit(const PimFusedOp &op)
{
    const std::optional<PimCopyEnum> dir = pimCopyDirection(op.cmd);
    if (!dir) {
        commit(op, opCost(op));
        return;
    }
    stats_.recordCopy(*dir, op.copy_payload,
                      cost_memo_.copyCost(op.cmd, op.copy_payload));
}

void
PimDevice::commit(const PimFusedOp &op, const PimOpCost &cost)
{
    assert(!pimCopyDirection(op.cmd));
    stats_.recordCmd(op.key_id, cost);
}

void
PimDevice::executeFusedChain(const std::vector<PimFusedOp> &ops,
                             const PimFusionChain &chain)
{
    const PimFusedTape tape = pimBuildFusedTape(ops, chain);

    // A reduction-terminated chain writes its scalar result back to
    // the host. Per-chunk tape partials tree-combine through one
    // atomic accumulator (wrapping addition is associative, so chunk
    // order cannot change the result).
    PIM_TRACE_SCOPE_ARG(fusedTraceName(chain.size()), "exec", tape.n);
    std::atomic<uint64_t> total{0};
    pool_.parallelForChunks(0, tape.n,
                            [&tape, &total](size_t lo, size_t hi) {
        const uint64_t part = tape.run(lo, hi);
        if (part)
            total.fetch_add(part, std::memory_order_relaxed);
    });
    const PimFusedOp &last = ops[chain.back().op];
    if (last.is_reduce)
        *last.red_result =
            static_cast<int64_t>(total.load(std::memory_order_relaxed));

    // Per-member stats records in issue order from issue-time cost
    // inputs: exactly what each command records when it runs alone.
    for (const PimFusionStep &st : chain)
        commit(ops[st.op]);
}

} // namespace pimeval
