/**
 * @file
 * Simulator context registry holding every active PIM device.
 *
 * Historically one simulated device was active per process behind a
 * singleton; the registry generalizes that to N independent contexts
 * (pimCreateContext in core/pim_context.h), each owning its own
 * PimDevice — resource manager, thread pool, fusion window, and
 * statistics included — so contexts execute concurrently on host
 * threads with zero shared mutable state between them.
 *
 * The original global C API keeps working unchanged: it resolves the
 * calling thread's *current* context (a thread-local set by
 * pimSetCurrentContext), falling back to the *process-default*
 * context, which is exactly the device pimCreateDevice creates. A
 * program that never touches the context API behaves as before; a
 * program that pins a different context per host thread runs the same
 * global calls against per-thread devices concurrently.
 */

#ifndef PIMEVAL_CORE_PIM_SIM_H_
#define PIMEVAL_CORE_PIM_SIM_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/pim_device.h"

namespace pimeval {

/**
 * One registered context: an id (stable, never reused within a
 * process), a label for trace/report naming, and the owned device.
 * The public opaque handle PimContext points at one of these.
 */
struct PimContextRec
{
    uint32_t id = 0;
    std::string label;
    std::unique_ptr<PimDevice> device;
    /** True for the context pimCreateDevice manages. */
    bool is_default = false;
};

class PimSim
{
  public:
    /** Process-wide instance. */
    static PimSim &
    instance()
    {
        static PimSim sim;
        return sim;
    }

    PimSim(const PimSim &) = delete;
    PimSim &operator=(const PimSim &) = delete;

    // --- Legacy global-API path (process-default context) ---

    /** Create the process-default device; fails if one already
     *  exists. Honors PIMEVAL_TRACE and PIMEVAL_PROFILE (armed for
     *  the device's lifetime, exported at deleteDevice). */
    PimStatus createDevice(const PimDeviceConfig &config);

    /** Destroy the process-default device. */
    PimStatus deleteDevice();

    /**
     * Device of the calling thread's current context: the context set
     * by setCurrentContext on this thread, else the process default.
     * nullptr when neither exists. This is the single dispatch point
     * of the global C API, so it is inline: a thread-local read, then
     * one atomic load.
     */
    PimDevice *
    device()
    {
        if (tls_current_)
            return tls_current_->device.get();
        PimContextRec *def = default_ctx_.load(std::memory_order_acquire);
        return def ? def->device.get() : nullptr;
    }

    bool hasDevice() { return device() != nullptr; }

    // --- Context registry (API v2) ---

    /**
     * Register a new independent context. @return the record, or
     * nullptr on failure (device type NONE). Thread-safe.
     */
    PimContextRec *createContext(const PimDeviceConfig &config,
                                 const std::string &label);

    /**
     * Destroy a context. Fails on unknown/already-destroyed handles.
     * The caller must ensure no other thread is executing in the
     * context. A destroyed context that is some thread's current
     * context simply stops resolving (falls back to the default).
     */
    PimStatus destroyContext(PimContextRec *ctx);

    /** Whether @p ctx is a live registered context. */
    bool validContext(const PimContextRec *ctx);

    /** The process-default context record (nullptr when none). */
    PimContextRec *defaultContext()
    {
        return default_ctx_.load(std::memory_order_acquire);
    }

    /**
     * Pin @p ctx as the calling thread's current context (nullptr
     * unpins, restoring default-context resolution). Validated;
     * returns PIM_ERROR for dead handles.
     */
    PimStatus setCurrentContext(PimContextRec *ctx);

    /** The calling thread's pinned context (nullptr when unpinned or
     *  the pinned context has been destroyed). */
    PimContextRec *currentContext() { return tls_current_; }

    /** Live context count (for tests and reports). */
    size_t numContexts();

    /** (id, label) of every live context, for reports (the
     *  profiler's PROFILE.json lists them). */
    std::vector<std::pair<uint32_t, std::string>> listContexts();

  private:
    PimSim() = default;

    /**
     * The calling thread's pinned context. Destroying a context while
     * another thread still has it pinned is a caller error (the same
     * use-after-destroy contract as every handle API); destroyContext
     * does clear the destroying thread's own pin. constinit: no
     * dynamic initializer, so a read needs no TLS init-function test.
     */
    static constinit inline thread_local PimContextRec *tls_current_ =
        nullptr;

    /** Register under the lock; assigns the next context id. */
    PimContextRec *registerContext(const PimDeviceConfig &config,
                                   const std::string &label,
                                   bool is_default);

    std::mutex mutex_;
    /** Live contexts; erase on destroy. */
    std::vector<std::unique_ptr<PimContextRec>> contexts_;
    /** Ids start at 1: the first (default) context keeps the legacy
     *  modeled-trace pid 2 = 1 + id. Never reused. */
    uint32_t next_ctx_id_ = 1;

    /** Hot-path default-context pointer (global API fallback). */
    std::atomic<PimContextRec *> default_ctx_{nullptr};

    /** Export path when tracing was armed via PIMEVAL_TRACE. */
    std::string env_trace_path_;

    /** Export path when profiling was armed via PIMEVAL_PROFILE. */
    std::string env_profile_path_;
};

} // namespace pimeval

#endif // PIMEVAL_CORE_PIM_SIM_H_
