/**
 * @file
 * Context-handle API (API v2): multiple independent simulated PIM
 * devices in one process.
 *
 * A PimContext owns a full device instance — resource manager,
 * thread pool, fusion window, statistics, and trace track — with
 * zero mutable state shared between contexts, so N contexts execute
 * concurrently from N host threads. Two ways to use a context:
 *
 *   1. Pin it: pimSetCurrentContext(ctx) makes every subsequent
 *      global API call (pimAlloc, pimAdd, ...) on the *calling
 *      thread* target ctx. Existing code runs against any context
 *      unmodified. Threads that never pin fall back to the
 *      process-default context created by pimCreateDevice.
 *   2. Scope it: PimContextScope pins for one C++ scope and restores
 *      the previous pin on exit (exception-safe).
 *
 * The legacy pimCreateDevice/pimDeleteDevice pair is now a shim that
 * manages the process-default context; mixing it with explicit
 * contexts is fully supported. In the Chrome trace every context
 * exports its own modeled-time track (pid 1 + context id) named after
 * its label.
 */

#ifndef PIMEVAL_CORE_PIM_CONTEXT_H_
#define PIMEVAL_CORE_PIM_CONTEXT_H_

#include <cstdint>
#include <string>

#include "core/pim_params.h"
#include "core/pim_types.h"

namespace pimeval {
struct PimContextRec;
}

/** Opaque handle to one simulated device context. */
typedef pimeval::PimContextRec *PimContext;

/**
 * Create an independent device context for @p device with default
 * parameters (same defaults as pimCreateDevice). @p label names the
 * context in traces, logs, and reports; may be empty.
 * @return the handle, or nullptr on failure (pimGetLastError has the
 *         detail). Does not change any thread's current context.
 */
PimContext pimCreateContext(PimDeviceEnum device,
                            const char *label = "");

/** As pimCreateContext, from a full device configuration. */
PimContext
pimCreateContextFromConfig(const pimeval::PimDeviceConfig &config,
                           const char *label = "");

/**
 * Destroy a context: flushes fusion, frees its objects. The handle
 * is dead afterwards. The caller must ensure no other thread is
 * executing against the context. If the calling thread had the
 * context pinned, the pin is cleared.
 */
PimStatus pimDestroyContext(PimContext ctx);

/**
 * Pin @p ctx as the calling thread's current context: all global API
 * calls from this thread target it until changed. nullptr unpins
 * (restores process-default resolution). Fails on dead handles.
 */
PimStatus pimSetCurrentContext(PimContext ctx);

/** The calling thread's pinned context (nullptr when unpinned). */
PimContext pimGetCurrentContext();

/** Stable nonzero id of a context (0 for nullptr). The context's
 *  modeled trace track is pid 1 + id. */
uint32_t pimContextId(PimContext ctx);

/** The label given at creation ("" for nullptr / unlabeled). */
const char *pimContextLabel(PimContext ctx);

/** Device type a context simulates (PIM_DEVICE_NONE for nullptr). */
PimDeviceEnum pimContextDeviceType(PimContext ctx);

/** Resolved memory-timing backend costing this context's H2D/D2H
 *  transfers (never PIM_MEM_BACKEND_DEFAULT for a live context;
 *  DEFAULT for nullptr / dead handles). */
PimMemBackend pimContextMemBackend(PimContext ctx);

namespace pimeval {

/**
 * RAII pin: targets @p ctx for the lifetime of the scope, restoring
 * the previous pin (or unpinned state) on destruction.
 */
class PimContextScope
{
  public:
    explicit PimContextScope(PimContext ctx)
        : prev_(pimGetCurrentContext())
    {
        pimSetCurrentContext(ctx);
    }
    ~PimContextScope() { pimSetCurrentContext(prev_); }

    PimContextScope(const PimContextScope &) = delete;
    PimContextScope &operator=(const PimContextScope &) = delete;

  private:
    PimContext prev_;
};

} // namespace pimeval

#endif // PIMEVAL_CORE_PIM_CONTEXT_H_
