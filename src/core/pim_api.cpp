/**
 * @file
 * Public PIM API implementation: thin dispatch onto the active device.
 */

#include "core/pim_api.h"

#include <fstream>

#include "core/pim_error.h"
#include "core/pim_sim.h"
#include "core/pim_trace.h"
#include "util/logging.h"

using pimeval::PimSim;
using pimeval::PimDevice;
using pimeval::PimTracer;

namespace {

[[gnu::cold]] [[gnu::noinline]] void
logNoDevice(const char *what)
{
    pimeval::logError(std::string(what) + ": no active PIM device");
}

/** Active device or nullptr with an error log. Every API call starts
 *  here, so the log stays out of line and this inlines. */
inline PimDevice *
activeDevice(const char *what)
{
    PimDevice *dev = PimSim::instance().device();
    if (!dev) [[unlikely]]
        logNoDevice(what);
    return dev;
}

} // namespace

PimStatus
pimCreateDevice(PimDeviceEnum device, uint64_t num_ranks,
                uint64_t num_banks_per_rank,
                uint64_t num_subarrays_per_bank,
                uint64_t num_rows_per_subarray, uint64_t num_cols_per_row)
{
    pimeval::PimDeviceConfig config;
    config.device = device;
    if (num_ranks)
        config.num_ranks = num_ranks;
    if (num_banks_per_rank)
        config.num_banks_per_rank = num_banks_per_rank;
    if (num_subarrays_per_bank)
        config.num_subarrays_per_bank = num_subarrays_per_bank;
    if (num_rows_per_subarray)
        config.num_rows_per_subarray = num_rows_per_subarray;
    if (num_cols_per_row)
        config.num_cols_per_row = num_cols_per_row;
    return PimSim::instance().createDevice(config);
}

PimStatus
pimCreateDeviceFromConfig(const pimeval::PimDeviceConfig &config)
{
    return PimSim::instance().createDevice(config);
}

PimStatus
pimDeleteDevice()
{
    return PimSim::instance().deleteDevice();
}

bool
pimIsDeviceActive()
{
    return PimSim::instance().hasDevice();
}

const pimeval::PimDeviceConfig &
pimGetDeviceConfig()
{
    static const pimeval::PimDeviceConfig kNoDevice = [] {
        pimeval::PimDeviceConfig config;
        config.device = PimDeviceEnum::PIM_DEVICE_NONE;
        return config;
    }();
    PimDevice *dev = activeDevice("pimGetDeviceConfig");
    return dev ? dev->config() : kNoDevice;
}

PimMemBackend
pimGetMemBackend()
{
    PimDevice *dev = PimSim::instance().device();
    return dev && dev->model()
        ? dev->model()->memBackendKind()
        : PimMemBackend::PIM_MEM_BACKEND_DEFAULT;
}

PimStatus
pimSync()
{
    PIM_TRACE_SCOPE("pimSync", "api");
    PimDevice *dev = activeDevice("pimSync");
    if (!dev)
        return PimStatus::PIM_ERROR;
    dev->sync();
    return PimStatus::PIM_OK;
}

PimStatus
pimSetFusionEnabled(bool enabled)
{
    PimDevice *dev = activeDevice("pimSetFusionEnabled");
    if (!dev)
        return PimStatus::PIM_ERROR;
    dev->setFusionEnabled(enabled);
    return PimStatus::PIM_OK;
}

bool
pimGetFusionEnabled()
{
    PimDevice *dev = PimSim::instance().device();
    return dev ? dev->fusionEnabled() : false;
}

PimStatus
pimBeginFusion()
{
    PIM_TRACE_INSTANT("pimBeginFusion", "api", 0);
    PimDevice *dev = activeDevice("pimBeginFusion");
    if (!dev)
        return PimStatus::PIM_ERROR;
    dev->beginFusion();
    return PimStatus::PIM_OK;
}

PimStatus
pimEndFusion()
{
    PIM_TRACE_INSTANT("pimEndFusion", "api", 0);
    PimDevice *dev = activeDevice("pimEndFusion");
    if (!dev)
        return PimStatus::PIM_ERROR;
    return dev->endFusion() ? PimStatus::PIM_OK
                            : PimStatus::PIM_ERROR;
}

PimObjId
pimAlloc(PimAllocEnum alloc_type, uint64_t num_elements,
         unsigned bits_per_element, PimDataType data_type)
{
    PIM_TRACE_INSTANT("pimAlloc", "api", num_elements);
    PimDevice *dev = activeDevice("pimAlloc");
    if (!dev)
        return -1;
    if (bits_per_element != pimBitsOfDataType(data_type)) {
        pimeval::logError("pimAlloc: bitsPerElement does not match type");
        return -1;
    }
    return dev->alloc(alloc_type, num_elements, data_type);
}

PimObjId
pimAllocAssociated(unsigned bits_per_element, PimObjId ref,
                   PimDataType data_type)
{
    PimDevice *dev = activeDevice("pimAllocAssociated");
    if (!dev)
        return -1;
    if (bits_per_element != pimBitsOfDataType(data_type)) {
        pimeval::logError(
            "pimAllocAssociated: bitsPerElement does not match type");
        return -1;
    }
    return dev->allocAssociated(ref, data_type);
}

PimStatus
pimFree(PimObjId obj)
{
    PIM_TRACE_INSTANT("pimFree", "api", obj);
    PimDevice *dev = activeDevice("pimFree");
    if (!dev)
        return PimStatus::PIM_ERROR;
    if (!dev->free(obj))
        return pimeval::fail(
            pimeval::strCat("pimFree: unknown object id ", obj));
    return PimStatus::PIM_OK;
}

PimStatus
pimCopyHostToDevice(const void *src, PimObjId dest, uint64_t idx_begin,
                    uint64_t idx_end)
{
    PIM_TRACE_INSTANT("pimCopyHostToDevice", "api", dest);
    PimDevice *dev = activeDevice("pimCopyHostToDevice");
    if (!dev)
        return PimStatus::PIM_ERROR;
    return dev->copyHostToDevice(src, dest, idx_begin, idx_end);
}

PimStatus
pimCopyDeviceToHost(PimObjId src, void *dest, uint64_t idx_begin,
                    uint64_t idx_end)
{
    PIM_TRACE_INSTANT("pimCopyDeviceToHost", "api", src);
    PimDevice *dev = activeDevice("pimCopyDeviceToHost");
    if (!dev)
        return PimStatus::PIM_ERROR;
    return dev->copyDeviceToHost(src, dest, idx_begin, idx_end);
}

PimStatus
pimCopyDeviceToDevice(PimObjId src, PimObjId dest)
{
    PIM_TRACE_INSTANT("pimCopyDeviceToDevice", "api", dest);
    PimDevice *dev = activeDevice("pimCopyDeviceToDevice");
    if (!dev)
        return PimStatus::PIM_ERROR;
    return dev->copyDeviceToDevice(src, dest);
}

// --- Binary ops -------------------------------------------------------------

namespace {

PimStatus
binary(PimCmdEnum cmd, PimObjId a, PimObjId b, PimObjId dest,
       const char *what)
{
    PIM_TRACE_INSTANT(what, "api", dest);
    PimDevice *dev = activeDevice(what);
    if (!dev)
        return PimStatus::PIM_ERROR;
    return dev->executeBinary(cmd, a, b, dest);
}

PimStatus
unary(PimCmdEnum cmd, PimObjId a, PimObjId dest, const char *what)
{
    PIM_TRACE_INSTANT(what, "api", dest);
    PimDevice *dev = activeDevice(what);
    if (!dev)
        return PimStatus::PIM_ERROR;
    return dev->executeUnary(cmd, a, dest);
}

PimStatus
scalarOp(PimCmdEnum cmd, PimObjId a, PimObjId dest, uint64_t scalar,
         const char *what)
{
    PIM_TRACE_INSTANT(what, "api", dest);
    PimDevice *dev = activeDevice(what);
    if (!dev)
        return PimStatus::PIM_ERROR;
    return dev->executeScalar(cmd, a, dest, scalar);
}

} // namespace

PimStatus
pimAdd(PimObjId a, PimObjId b, PimObjId dest)
{
    return binary(PimCmdEnum::kAdd, a, b, dest, "pimAdd");
}

PimStatus
pimSub(PimObjId a, PimObjId b, PimObjId dest)
{
    return binary(PimCmdEnum::kSub, a, b, dest, "pimSub");
}

PimStatus
pimMul(PimObjId a, PimObjId b, PimObjId dest)
{
    return binary(PimCmdEnum::kMul, a, b, dest, "pimMul");
}

PimStatus
pimDiv(PimObjId a, PimObjId b, PimObjId dest)
{
    return binary(PimCmdEnum::kDiv, a, b, dest, "pimDiv");
}

PimStatus
pimMin(PimObjId a, PimObjId b, PimObjId dest)
{
    return binary(PimCmdEnum::kMin, a, b, dest, "pimMin");
}

PimStatus
pimMax(PimObjId a, PimObjId b, PimObjId dest)
{
    return binary(PimCmdEnum::kMax, a, b, dest, "pimMax");
}

PimStatus
pimAnd(PimObjId a, PimObjId b, PimObjId dest)
{
    return binary(PimCmdEnum::kAnd, a, b, dest, "pimAnd");
}

PimStatus
pimOr(PimObjId a, PimObjId b, PimObjId dest)
{
    return binary(PimCmdEnum::kOr, a, b, dest, "pimOr");
}

PimStatus
pimXor(PimObjId a, PimObjId b, PimObjId dest)
{
    return binary(PimCmdEnum::kXor, a, b, dest, "pimXor");
}

PimStatus
pimXnor(PimObjId a, PimObjId b, PimObjId dest)
{
    return binary(PimCmdEnum::kXnor, a, b, dest, "pimXnor");
}

PimStatus
pimGT(PimObjId a, PimObjId b, PimObjId dest)
{
    return binary(PimCmdEnum::kGT, a, b, dest, "pimGT");
}

PimStatus
pimLT(PimObjId a, PimObjId b, PimObjId dest)
{
    return binary(PimCmdEnum::kLT, a, b, dest, "pimLT");
}

PimStatus
pimEQ(PimObjId a, PimObjId b, PimObjId dest)
{
    return binary(PimCmdEnum::kEQ, a, b, dest, "pimEQ");
}

PimStatus
pimNE(PimObjId a, PimObjId b, PimObjId dest)
{
    return binary(PimCmdEnum::kNE, a, b, dest, "pimNE");
}

// --- Unary ops --------------------------------------------------------------

PimStatus
pimAbs(PimObjId a, PimObjId dest)
{
    return unary(PimCmdEnum::kAbs, a, dest, "pimAbs");
}

PimStatus
pimNot(PimObjId a, PimObjId dest)
{
    return unary(PimCmdEnum::kNot, a, dest, "pimNot");
}

PimStatus
pimPopCount(PimObjId a, PimObjId dest)
{
    return unary(PimCmdEnum::kPopCount, a, dest, "pimPopCount");
}

// --- Scalar ops -------------------------------------------------------------

namespace {

/** Stable trace/error label per scalar command — identical to the
 *  labels the twelve per-op entry points used to emit. */
const char *
scalarOpName(PimCmdEnum cmd)
{
    switch (cmd) {
      case PimCmdEnum::kAddScalar: return "pimAddScalar";
      case PimCmdEnum::kSubScalar: return "pimSubScalar";
      case PimCmdEnum::kMulScalar: return "pimMulScalar";
      case PimCmdEnum::kDivScalar: return "pimDivScalar";
      case PimCmdEnum::kMinScalar: return "pimMinScalar";
      case PimCmdEnum::kMaxScalar: return "pimMaxScalar";
      case PimCmdEnum::kAndScalar: return "pimAndScalar";
      case PimCmdEnum::kOrScalar:  return "pimOrScalar";
      case PimCmdEnum::kXorScalar: return "pimXorScalar";
      case PimCmdEnum::kGTScalar:  return "pimGTScalar";
      case PimCmdEnum::kLTScalar:  return "pimLTScalar";
      case PimCmdEnum::kEQScalar:  return "pimEQScalar";
      default:                     return "pimOpScalar";
    }
}

} // namespace

PimStatus
pimOpScalar(PimCmdEnum op, PimObjId a, PimObjId dest, uint64_t scalar)
{
    // Only the contiguous *Scalar block is legal here; kScaledAdd has
    // its own three-operand entry point.
    if (op < PimCmdEnum::kAddScalar || op > PimCmdEnum::kEQScalar)
        return pimeval::fail(
            pimeval::strCat("pimOpScalar: '", pimCmdName(op),
                            "' is not a scalar-operand command"));
    return scalarOp(op, a, dest, scalar, scalarOpName(op));
}

PimStatus
pimScaledAdd(PimObjId a, PimObjId b, PimObjId dest, uint64_t scalar)
{
    PIM_TRACE_INSTANT("pimScaledAdd", "api", dest);
    PimDevice *dev = activeDevice("pimScaledAdd");
    if (!dev)
        return PimStatus::PIM_ERROR;
    return dev->executeScaledAdd(a, b, dest, scalar);
}

PimStatus
pimShiftBitsLeft(PimObjId a, PimObjId dest, unsigned amount)
{
    PimDevice *dev = activeDevice("pimShiftBitsLeft");
    if (!dev)
        return PimStatus::PIM_ERROR;
    return dev->executeShift(PimCmdEnum::kShiftBitsLeft, a, dest, amount);
}

PimStatus
pimShiftBitsRight(PimObjId a, PimObjId dest, unsigned amount)
{
    PimDevice *dev = activeDevice("pimShiftBitsRight");
    if (!dev)
        return PimStatus::PIM_ERROR;
    return dev->executeShift(PimCmdEnum::kShiftBitsRight, a, dest, amount);
}

PimStatus
pimShiftElementsLeft(PimObjId obj)
{
    PimDevice *dev = activeDevice("pimShiftElementsLeft");
    if (!dev)
        return PimStatus::PIM_ERROR;
    return dev->executeElementShift(PimCmdEnum::kShiftElementsLeft,
                                    obj);
}

PimStatus
pimShiftElementsRight(PimObjId obj)
{
    PimDevice *dev = activeDevice("pimShiftElementsRight");
    if (!dev)
        return PimStatus::PIM_ERROR;
    return dev->executeElementShift(PimCmdEnum::kShiftElementsRight,
                                    obj);
}

PimStatus
pimRotateElementsLeft(PimObjId obj)
{
    PimDevice *dev = activeDevice("pimRotateElementsLeft");
    if (!dev)
        return PimStatus::PIM_ERROR;
    return dev->executeElementShift(PimCmdEnum::kRotateElementsLeft,
                                    obj);
}

PimStatus
pimRotateElementsRight(PimObjId obj)
{
    PimDevice *dev = activeDevice("pimRotateElementsRight");
    if (!dev)
        return PimStatus::PIM_ERROR;
    return dev->executeElementShift(PimCmdEnum::kRotateElementsRight,
                                    obj);
}

// --- Reductions -------------------------------------------------------------

PimStatus
pimRedSum(PimObjId a, int64_t *result)
{
    PIM_TRACE_INSTANT("pimRedSum", "api", a);
    PimDevice *dev = activeDevice("pimRedSum");
    if (!dev)
        return PimStatus::PIM_ERROR;
    return dev->executeRedSum(a, 0, 0, result);
}

PimStatus
pimRedSumRanged(PimObjId a, uint64_t idx_begin, uint64_t idx_end,
                int64_t *result)
{
    PimDevice *dev = activeDevice("pimRedSumRanged");
    if (!dev)
        return PimStatus::PIM_ERROR;
    return dev->executeRedSum(a, idx_begin, idx_end, result);
}

PimStatus
pimBroadcastInt(PimObjId dest, uint64_t value)
{
    PIM_TRACE_INSTANT("pimBroadcastInt", "api", dest);
    PimDevice *dev = activeDevice("pimBroadcastInt");
    if (!dev)
        return PimStatus::PIM_ERROR;
    return dev->executeBroadcast(dest, value);
}

// --- Statistics -------------------------------------------------------------

PimStatus
pimShowStats(std::ostream &os)
{
    PimDevice *dev = activeDevice("pimShowStats");
    if (!dev)
        return PimStatus::PIM_ERROR;
    dev->sync(); // stats queries observe everything issued so far
    dev->stats().printReport(os);
    return PimStatus::PIM_OK;
}

PimStatus
pimDumpStats(const char *path)
{
    PimDevice *dev = activeDevice("pimDumpStats");
    if (!dev)
        return PimStatus::PIM_ERROR;
    if (!path || !*path) {
        pimeval::logError("pimDumpStats: empty path");
        return PimStatus::PIM_ERROR;
    }
    dev->sync();
    std::ofstream os(path);
    if (!os) {
        pimeval::logError(std::string("pimDumpStats: cannot open '") +
                          path + "'");
        return PimStatus::PIM_ERROR;
    }
    dev->stats().dumpJson(os);
    if (!os)
        return pimeval::fail(
            std::string("pimDumpStats: write failed for '") + path +
            "'");
    return PimStatus::PIM_OK;
}

PimStatus
pimResetStats()
{
    PimDevice *dev = activeDevice("pimResetStats");
    if (!dev)
        return PimStatus::PIM_ERROR;
    dev->resetStats();
    return PimStatus::PIM_OK;
}

pimeval::PimRunStats
pimGetStats()
{
    PimDevice *dev = activeDevice("pimGetStats");
    if (!dev)
        return {};
    dev->sync();
    return dev->stats().snapshot();
}

std::map<std::string, uint64_t>
pimGetOpMix()
{
    PimDevice *dev = activeDevice("pimGetOpMix");
    if (!dev)
        return {};
    dev->sync();
    return dev->stats().opMix();
}

PimStatus
pimStartHostTimer()
{
    PimDevice *dev = activeDevice("pimStartHostTimer");
    if (!dev)
        return PimStatus::PIM_ERROR;
    dev->startHostTimer();
    return PimStatus::PIM_OK;
}

PimStatus
pimStopHostTimer()
{
    PimDevice *dev = activeDevice("pimStopHostTimer");
    if (!dev)
        return PimStatus::PIM_ERROR;
    dev->stopHostTimer();
    return PimStatus::PIM_OK;
}

PimStatus
pimAddHostTime(double seconds)
{
    PimDevice *dev = activeDevice("pimAddHostTime");
    if (!dev)
        return PimStatus::PIM_ERROR;
    dev->addHostTime(seconds);
    return PimStatus::PIM_OK;
}

PimStatus
pimAddHostWork(uint64_t bytes, uint64_t ops)
{
    PimDevice *dev = activeDevice("pimAddHostWork");
    if (!dev)
        return PimStatus::PIM_ERROR;
    dev->addHostWork(bytes, ops);
    return PimStatus::PIM_OK;
}

PimStatus
pimSetModelingScale(double scale)
{
    PimDevice *dev = activeDevice("pimSetModelingScale");
    if (!dev)
        return PimStatus::PIM_ERROR;
    dev->setModelingScale(scale);
    return PimStatus::PIM_OK;
}

double
pimGetModelingScale()
{
    PimDevice *dev = PimSim::instance().device();
    return dev ? dev->modelingScale() : 1.0;
}

// --- Observability ----------------------------------------------------------

PimStatus
pimTraceBegin(const char *path)
{
    if (!path || !*path) {
        pimeval::logError("pimTraceBegin: empty path");
        return PimStatus::PIM_ERROR;
    }
    // Quiesce the device so the trace starts at a command boundary.
    if (PimDevice *dev = PimSim::instance().device())
        dev->sync();
    PimTracer::instance().begin(path);
    return PimStatus::PIM_OK;
}

PimStatus
pimTraceEnd(const char *path)
{
    if (PimDevice *dev = PimSim::instance().device())
        dev->sync(); // buffered commands' spans land in the trace
    const bool ok =
        PimTracer::instance().end(path ? std::string(path) : "");
    if (!ok)
        return pimeval::fail(
            "pimTraceEnd: no active trace or export failed");
    return PimStatus::PIM_OK;
}

PimStatus
pimTraceDump(const char *path)
{
    if (!path || !*path) {
        pimeval::logError("pimTraceDump: empty path");
        return PimStatus::PIM_ERROR;
    }
    if (PimDevice *dev = PimSim::instance().device())
        dev->sync();
    if (!PimTracer::instance().dump(path))
        return pimeval::fail(
            "pimTraceDump: no active trace or export failed");
    return PimStatus::PIM_OK;
}

bool
pimTraceActive()
{
    return PimTracer::enabled();
}

bool
pimGetMetric(const char *name, double *value)
{
    if (!name)
        return false;
    return pimeval::PimMetrics::instance().get(name, value);
}

std::map<std::string, pimeval::PimMetricValue>
pimGetAllMetrics()
{
    return pimeval::PimMetrics::instance().snapshotAll();
}

PimStatus
pimDumpMetrics(std::ostream &os)
{
    pimeval::PimMetrics::instance().dumpJson(os);
    os << '\n';
    if (!os)
        return pimeval::fail("pimDumpMetrics: write failed");
    return PimStatus::PIM_OK;
}

PimStatus
pimResetMetrics()
{
    pimeval::PimMetrics::instance().reset();
    return PimStatus::PIM_OK;
}
