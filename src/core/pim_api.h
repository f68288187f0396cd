/**
 * @file
 * The public PIM API (paper Section V-B).
 *
 * High-level, architecture-portable C-style calls. A benchmark written
 * against these functions runs unmodified on every simulated PIM
 * target (bit-serial DRAM-AP, Fulcrum, bank-level); see paper
 * Listing 1 for the canonical AXPY example.
 *
 * All calls return PimStatus (or an object id where noted) and operate
 * on the process-wide active device created by pimCreateDevice().
 */

#ifndef PIMEVAL_CORE_PIM_API_H_
#define PIMEVAL_CORE_PIM_API_H_

#include <cstdint>
#include <ostream>

#include "core/pim_metrics.h"
#include "core/pim_params.h"
#include "core/pim_stats.h"
#include "core/pim_types.h"

// ---------------------------------------------------------------------------
// Device management
// ---------------------------------------------------------------------------

/**
 * Create the active PIM device.
 * @param device   simulation target.
 * @param num_ranks / banks / subarrays / rows / cols  DRAM geometry;
 *        pass 0 to keep the Table II default for that field.
 */
PimStatus pimCreateDevice(PimDeviceEnum device, uint64_t num_ranks = 0,
                          uint64_t num_banks_per_rank = 0,
                          uint64_t num_subarrays_per_bank = 0,
                          uint64_t num_rows_per_subarray = 0,
                          uint64_t num_cols_per_row = 0);

/** Create a device from a full configuration struct. */
PimStatus pimCreateDeviceFromConfig(const pimeval::PimDeviceConfig &config);

/** Destroy the active device and all its objects. A trace or profile
 *  armed by PIMEVAL_TRACE / PIMEVAL_PROFILE is exported first; if that
 *  file cannot be written the device is still destroyed, and the call
 *  returns PIM_ERROR with the file named in the last error. */
PimStatus pimDeleteDevice();

/** Whether a device is active. */
bool pimIsDeviceActive();

/** Configuration of the active device. With none active, sets the
 *  last error and returns a default configuration whose device is
 *  PIM_DEVICE_NONE. */
const pimeval::PimDeviceConfig &pimGetDeviceConfig();

/**
 * Resolved memory-timing backend of the active device (docs/
 * PERFORMANCE.md): the implementation costing H2D/D2H transfers.
 * Selection: PimDeviceConfig::mem_backend, else PIMEVAL_MEM_BACKEND
 * (cycle|analytical|lut), else LUT. Returns PIM_MEM_BACKEND_DEFAULT
 * when no device is active.
 */
PimMemBackend pimGetMemBackend();

/**
 * Flush the fusion window of the active device: every buffered
 * command has executed and recorded its statistics when this returns,
 * and deferred results (pimRedSum captured in a fusion region) are
 * valid. Every other call already runs to completion when it returns.
 */
PimStatus pimSync();

// ---------------------------------------------------------------------------
// Elementwise command fusion (docs/PERFORMANCE.md). Fusion is a
// functional-simulation optimization: chained elementwise commands
// execute as one pass over memory with dead temporaries elided, while
// perf/energy statistics stay bit-identical to unfused execution.
// PIMEVAL_FUSION=1 enables it device-wide at creation.
// ---------------------------------------------------------------------------

/**
 * Enable or disable elementwise command fusion on the active device.
 * Disabling flushes any pending fusion window first. Independent of
 * explicit pimBeginFusion/pimEndFusion regions, which capture even
 * while the global toggle is off.
 */
PimStatus pimSetFusionEnabled(bool enabled);

/** Whether device-wide fusion is enabled (false if no device). */
bool pimGetFusionEnabled();

/**
 * Open an explicit fusion region: elementwise commands buffer for
 * fusion until the matching pimEndFusion, regardless of the global
 * toggle. Regions nest; only the outermost pimEndFusion flushes.
 * Full-object pimRedSum captures as a chain terminator and
 * pimBroadcastInt as a chain head, so compute+reduce sequences fuse;
 * a reduction result captured inside a region is deferred and must
 * only be read after the outermost pimEndFusion (or an intervening
 * flush such as pimSync). Other non-fusable calls (copies, ranged
 * reductions, stats queries) inside a region flush the pending
 * window and execute in order, so a region never changes final
 * observable semantics.
 */
PimStatus pimBeginFusion();

/** Close the innermost fusion region, flushing pending commands. */
PimStatus pimEndFusion();

// ---------------------------------------------------------------------------
// Resource management
// ---------------------------------------------------------------------------

/**
 * Allocate a PIM data object.
 * @param alloc_type layout strategy (AUTO picks the device native).
 * @param num_elements element count.
 * @param bits_per_element must match the data type width.
 * @param data_type element type.
 * @return object id, or -1 on failure.
 */
PimObjId pimAlloc(PimAllocEnum alloc_type, uint64_t num_elements,
                  unsigned bits_per_element, PimDataType data_type);

/**
 * Allocate an object with the same element distribution as @p ref so
 * element-wise commands pair corresponding elements within each core.
 */
PimObjId pimAllocAssociated(unsigned bits_per_element, PimObjId ref,
                            PimDataType data_type);

/** Free an object. */
PimStatus pimFree(PimObjId obj);

// ---------------------------------------------------------------------------
// Data movement
// ---------------------------------------------------------------------------

/** Copy host memory into an object (full object, or [begin,end)). */
PimStatus pimCopyHostToDevice(const void *src, PimObjId dest,
                              uint64_t idx_begin = 0, uint64_t idx_end = 0);

/** Copy an object back to host memory. */
PimStatus pimCopyDeviceToHost(PimObjId src, void *dest,
                              uint64_t idx_begin = 0, uint64_t idx_end = 0);

/** Device-to-device copy between same-shape objects. */
PimStatus pimCopyDeviceToDevice(PimObjId src, PimObjId dest);

// ---------------------------------------------------------------------------
// Element-wise computation (two vector operands)
// ---------------------------------------------------------------------------

PimStatus pimAdd(PimObjId a, PimObjId b, PimObjId dest);
PimStatus pimSub(PimObjId a, PimObjId b, PimObjId dest);
PimStatus pimMul(PimObjId a, PimObjId b, PimObjId dest);
PimStatus pimDiv(PimObjId a, PimObjId b, PimObjId dest);
PimStatus pimMin(PimObjId a, PimObjId b, PimObjId dest);
PimStatus pimMax(PimObjId a, PimObjId b, PimObjId dest);
PimStatus pimAnd(PimObjId a, PimObjId b, PimObjId dest);
PimStatus pimOr(PimObjId a, PimObjId b, PimObjId dest);
PimStatus pimXor(PimObjId a, PimObjId b, PimObjId dest);
PimStatus pimXnor(PimObjId a, PimObjId b, PimObjId dest);

/** Comparisons write 0/1 per element into dest. */
PimStatus pimGT(PimObjId a, PimObjId b, PimObjId dest);
PimStatus pimLT(PimObjId a, PimObjId b, PimObjId dest);
PimStatus pimEQ(PimObjId a, PimObjId b, PimObjId dest);
PimStatus pimNE(PimObjId a, PimObjId b, PimObjId dest);

// ---------------------------------------------------------------------------
// Element-wise computation (one vector operand)
// ---------------------------------------------------------------------------

PimStatus pimAbs(PimObjId a, PimObjId dest);
PimStatus pimNot(PimObjId a, PimObjId dest);
PimStatus pimPopCount(PimObjId a, PimObjId dest);

// ---------------------------------------------------------------------------
// Scalar-operand computation
// ---------------------------------------------------------------------------

/**
 * Single entry point for every vector-op-scalar command: dest[i] =
 * a[i] <op> scalar. @p op must be one of the *Scalar members of
 * PimCmdEnum (kAddScalar ... kEQScalar); anything else fails. The
 * scalar is interpreted in the object's data type: pass negative
 * values for signed types bit-cast to uint64_t (e.g. via
 * static_cast<uint64_t>(int64_t{-5})); the device masks and
 * sign-extends to the element width.
 *
 * The pim<Op>Scalar names below are source-compatible wrappers.
 */
PimStatus pimOpScalar(PimCmdEnum op, PimObjId a, PimObjId dest,
                      uint64_t scalar);

// clang-format off
inline PimStatus pimAddScalar(PimObjId a, PimObjId dest, uint64_t scalar) { return pimOpScalar(PimCmdEnum::kAddScalar, a, dest, scalar); }
inline PimStatus pimSubScalar(PimObjId a, PimObjId dest, uint64_t scalar) { return pimOpScalar(PimCmdEnum::kSubScalar, a, dest, scalar); }
inline PimStatus pimMulScalar(PimObjId a, PimObjId dest, uint64_t scalar) { return pimOpScalar(PimCmdEnum::kMulScalar, a, dest, scalar); }
inline PimStatus pimDivScalar(PimObjId a, PimObjId dest, uint64_t scalar) { return pimOpScalar(PimCmdEnum::kDivScalar, a, dest, scalar); }
inline PimStatus pimMinScalar(PimObjId a, PimObjId dest, uint64_t scalar) { return pimOpScalar(PimCmdEnum::kMinScalar, a, dest, scalar); }
inline PimStatus pimMaxScalar(PimObjId a, PimObjId dest, uint64_t scalar) { return pimOpScalar(PimCmdEnum::kMaxScalar, a, dest, scalar); }
inline PimStatus pimAndScalar(PimObjId a, PimObjId dest, uint64_t scalar) { return pimOpScalar(PimCmdEnum::kAndScalar, a, dest, scalar); }
inline PimStatus pimOrScalar(PimObjId a, PimObjId dest, uint64_t scalar) { return pimOpScalar(PimCmdEnum::kOrScalar, a, dest, scalar); }
inline PimStatus pimXorScalar(PimObjId a, PimObjId dest, uint64_t scalar) { return pimOpScalar(PimCmdEnum::kXorScalar, a, dest, scalar); }
inline PimStatus pimGTScalar(PimObjId a, PimObjId dest, uint64_t scalar) { return pimOpScalar(PimCmdEnum::kGTScalar, a, dest, scalar); }
inline PimStatus pimLTScalar(PimObjId a, PimObjId dest, uint64_t scalar) { return pimOpScalar(PimCmdEnum::kLTScalar, a, dest, scalar); }
inline PimStatus pimEQScalar(PimObjId a, PimObjId dest, uint64_t scalar) { return pimOpScalar(PimCmdEnum::kEQScalar, a, dest, scalar); }
// clang-format on

/** dest = a * scalar + b (the AXPY inner operation). */
PimStatus pimScaledAdd(PimObjId a, PimObjId b, PimObjId dest,
                       uint64_t scalar);

/** Bit shifts by a constant amount (arithmetic right for signed). */
PimStatus pimShiftBitsLeft(PimObjId a, PimObjId dest, unsigned amount);
PimStatus pimShiftBitsRight(PimObjId a, PimObjId dest, unsigned amount);

/**
 * Shift every element one position toward lower/higher indices
 * (vacated slot filled with zero), or rotate the whole vector by one.
 * Inter-element movement crosses region boundaries, so the model
 * charges a full object rewrite plus a host-assisted boundary fix —
 * why kernels needing data reshuffling gravitate to the host (paper
 * Section VIII, radix sort / KNN discussion).
 */
PimStatus pimShiftElementsLeft(PimObjId obj);
PimStatus pimShiftElementsRight(PimObjId obj);
PimStatus pimRotateElementsLeft(PimObjId obj);
PimStatus pimRotateElementsRight(PimObjId obj);

// ---------------------------------------------------------------------------
// Reductions and broadcast
// ---------------------------------------------------------------------------

/** Sum all elements into @p result (sign-aware). */
PimStatus pimRedSum(PimObjId a, int64_t *result);

/** Sum elements in [idx_begin, idx_end). */
PimStatus pimRedSumRanged(PimObjId a, uint64_t idx_begin, uint64_t idx_end,
                          int64_t *result);

/** Broadcast a scalar to every element of dest. */
PimStatus pimBroadcastInt(PimObjId dest, uint64_t value);

// ---------------------------------------------------------------------------
// Statistics and host timing
// ---------------------------------------------------------------------------

/** Print the Listing-3 style report to the stream. */
PimStatus pimShowStats(std::ostream &os);

/**
 * Export the statistics of the active device as structured JSON:
 * aggregate totals, data-copy byte counts, and the full per-command
 * modeled runtime/energy table (what pimShowStats pretty-prints).
 * Flushes the fusion window first so the export observes everything
 * issued.
 */
PimStatus pimDumpStats(const char *path);

/** Reset all statistics of the active device. */
PimStatus pimResetStats();

/** Snapshot of the aggregate statistics. */
pimeval::PimRunStats pimGetStats();

/** Operation-mix counters (Fig. 8). */
std::map<std::string, uint64_t> pimGetOpMix();

/** Host-phase timing helpers for PIM+Host benchmarks. */
PimStatus pimStartHostTimer();
PimStatus pimStopHostTimer();
PimStatus pimAddHostTime(double seconds);

/**
 * Account a host-executed phase by its work characterization instead
 * of wall-clock time: the phase is costed on the same host parameters
 * as the CPU baseline (single-core: max(bytes / per-core bandwidth,
 * ops / clock)), so PIM-side host phases and the CPU baseline stay
 * mutually consistent regardless of the machine running the
 * simulation. Honors the modeling scale.
 */
PimStatus pimAddHostWork(uint64_t bytes, uint64_t ops);

/**
 * Paper-size what-if modeling: cost every subsequent command,
 * transfer, and host phase as if inputs were @p scale times larger
 * (functional execution stays at the allocated sizes). Used by the
 * figure-regeneration benches; see DESIGN.md. Pass 1.0 to disable.
 */
PimStatus pimSetModelingScale(double scale);

/** Current modeling scale of the active device (1.0 if none). */
double pimGetModelingScale();

// ---------------------------------------------------------------------------
// Observability: event tracing and simulator metrics
// (docs/OBSERVABILITY.md). The tracer and metrics registry are
// process-wide; tracing calls work with or without an active device.
// Setting the environment variable PIMEVAL_TRACE=<path> starts a trace
// at device creation and exports it at device deletion — existing
// benchmarks need no code changes.
// ---------------------------------------------------------------------------

/**
 * Start (or restart) event tracing; the trace is exported to @p path
 * by pimTraceEnd as Chrome trace-event JSON (for Perfetto /
 * chrome://tracing). Flushes the fusion window of the active device,
 * if any, so the trace starts at a command boundary.
 */
PimStatus pimTraceBegin(const char *path);

/**
 * Stop tracing and export. @p path overrides the pimTraceBegin path
 * when non-null. Flushes the fusion window first so buffered
 * commands' spans land in the trace.
 */
PimStatus pimTraceEnd(const char *path = nullptr);

/** Export a snapshot of the active trace to @p path without stopping
 *  it. */
PimStatus pimTraceDump(const char *path);

/** Whether event tracing is currently recording. */
bool pimTraceActive();

/**
 * Read one simulator metric by name (e.g. "fusion.chains",
 * "freelist.hit"; see docs/OBSERVABILITY.md for the glossary).
 * Counters yield their count, gauges their value, histograms their
 * mean. @return false when no such metric has been registered.
 */
bool pimGetMetric(const char *name, double *value);

/** Snapshot of every registered simulator metric, keyed by name. */
std::map<std::string, pimeval::PimMetricValue> pimGetAllMetrics();

/** Write all metrics as a JSON object to the stream. */
PimStatus pimDumpMetrics(std::ostream &os);

/** Zero all simulator metrics (e.g. between benchmark phases). */
PimStatus pimResetMetrics();

#endif // PIMEVAL_CORE_PIM_API_H_
