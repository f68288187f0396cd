/**
 * @file
 * Context registry implementation.
 *
 * Locking: the registry mutex guards the context list and the
 * default-context slot during create/destroy; the hot path (device())
 * is a thread-local read plus one relaxed atomic load and takes no
 * lock. Destroying a context other threads are still using is a
 * caller error, as with any handle API; setCurrentContext validates
 * its handle against the live set before pinning.
 */

#include "core/pim_sim.h"

#include <algorithm>
#include <cstdlib>

#include "core/pim_error.h"
#include "core/pim_metrics.h"
#include "core/pim_profile.h"
#include "core/pim_trace.h"
#include "util/logging.h"

namespace pimeval {

PimContextRec *
PimSim::registerContext(const PimDeviceConfig &config,
                        const std::string &label, bool is_default)
{
    if (config.device == PimDeviceEnum::PIM_DEVICE_NONE)
        return nullptr;
    std::lock_guard<std::mutex> lock(mutex_);
    const uint32_t id = next_ctx_id_++;
    auto rec = std::make_unique<PimContextRec>();
    rec->id = id;
    rec->label = label;
    rec->is_default = is_default;
    rec->device = std::make_unique<PimDevice>(config, id, label);
    PimContextRec *raw = rec.get();
    contexts_.push_back(std::move(rec));
    if (is_default)
        default_ctx_.store(raw, std::memory_order_release);
    PIM_METRIC_COUNT("context.created", 1);
    PIM_METRIC_GAUGE("context.live", contexts_.size());
    return raw;
}

PimStatus
PimSim::createDevice(const PimDeviceConfig &config)
{
    if (defaultContext())
        return fail("pimCreateDevice: a device is already active");
    if (config.device == PimDeviceEnum::PIM_DEVICE_NONE)
        return fail("pimCreateDevice: no device type selected");
    PimContextRec *rec =
        registerContext(config, std::string(), /*is_default=*/true);
    if (!rec)
        return fail("pimCreateDevice: device creation failed");
#if PIMEVAL_TRACING_ENABLED
    // PIMEVAL_TRACE / PIMEVAL_PROFILE name a file: tracing/profiling
    // runs for the device's lifetime and exports at device deletion.
    const char *trace_path = std::getenv("PIMEVAL_TRACE");
    if (trace_path && *trace_path && !PimTracer::enabled()) {
        env_trace_path_ = trace_path;
        PimTracer::instance().begin(env_trace_path_);
        logInfo("tracing to " + env_trace_path_ + " (PIMEVAL_TRACE)");
    }
    const char *profile_path = std::getenv("PIMEVAL_PROFILE");
    if (profile_path && *profile_path && !PimProfiler::enabled()) {
        env_profile_path_ = profile_path;
        PimProfiler::instance().start(env_profile_path_);
        logInfo("profiling to " + env_profile_path_ +
                " (PIMEVAL_PROFILE)");
    }
#endif
    return PimStatus::PIM_OK;
}

PimStatus
PimSim::deleteDevice()
{
    PimContextRec *rec = defaultContext();
    if (!rec)
        return fail("pimDeleteDevice: no active device");
    // The files an env-armed export could not write. The device goes
    // either way; a failed export then fails the call.
    std::string unwritten;
#if PIMEVAL_TRACING_ENABLED
    // Export while the context is still live, so the profile lists it;
    // the sync lands buffered fusion work in both files first.
    rec->device->sync();
    if (!env_trace_path_.empty()) {
        if (!PimTracer::instance().end(env_trace_path_))
            unwritten = "'" + env_trace_path_ + "' (PIMEVAL_TRACE)";
        env_trace_path_.clear();
    }
    if (!env_profile_path_.empty()) {
        if (!PimProfiler::instance().stop(env_profile_path_))
            unwritten += (unwritten.empty() ? "'" : ", '") +
                env_profile_path_ + "' (PIMEVAL_PROFILE)";
        env_profile_path_.clear();
    }
#endif
    const PimStatus status = destroyContext(rec);
    if (status == PimStatus::PIM_OK && !unwritten.empty())
        return fail("pimDeleteDevice: cannot write " + unwritten);
    return status;
}

PimContextRec *
PimSim::createContext(const PimDeviceConfig &config,
                      const std::string &label)
{
    PimContextRec *rec =
        registerContext(config, label, /*is_default=*/false);
    if (!rec)
        fail("pimCreateContext: no device type selected");
    return rec;
}

PimStatus
PimSim::destroyContext(PimContextRec *ctx)
{
    std::unique_ptr<PimContextRec> dying;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto it = std::find_if(
            contexts_.begin(), contexts_.end(),
            [ctx](const std::unique_ptr<PimContextRec> &rec) {
                return rec.get() == ctx;
            });
        if (it == contexts_.end())
            return fail("pimDestroyContext: unknown or already "
                        "destroyed context");
        if (ctx == default_ctx_.load(std::memory_order_acquire))
            default_ctx_.store(nullptr, std::memory_order_release);
        dying = std::move(*it);
        contexts_.erase(it);
        if (tls_current_ == ctx)
            tls_current_ = nullptr;
        PIM_METRIC_COUNT("context.destroyed", 1);
        PIM_METRIC_GAUGE("context.live", contexts_.size());
    }
    // Device teardown (fusion flush, pool join) happens outside
    // the registry lock so other contexts keep creating/destroying.
    dying.reset();
    return PimStatus::PIM_OK;
}

bool
PimSim::validContext(const PimContextRec *ctx)
{
    if (!ctx)
        return false;
    std::lock_guard<std::mutex> lock(mutex_);
    return std::any_of(
        contexts_.begin(), contexts_.end(),
        [ctx](const std::unique_ptr<PimContextRec> &rec) {
            return rec.get() == ctx;
        });
}

PimStatus
PimSim::setCurrentContext(PimContextRec *ctx)
{
    if (ctx && !validContext(ctx))
        return fail("pimSetCurrentContext: unknown or destroyed "
                    "context");
    tls_current_ = ctx;
    return PimStatus::PIM_OK;
}

size_t
PimSim::numContexts()
{
    std::lock_guard<std::mutex> lock(mutex_);
    return contexts_.size();
}

std::vector<std::pair<uint32_t, std::string>>
PimSim::listContexts()
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::pair<uint32_t, std::string>> out;
    out.reserve(contexts_.size());
    for (const auto &rec : contexts_)
        out.emplace_back(rec->id, rec->label);
    return out;
}

} // namespace pimeval
