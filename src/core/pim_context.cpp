/**
 * @file
 * Context-handle API implementation: thin veneer over the PimSim
 * registry.
 */

#include "core/pim_context.h"

#include "core/pim_sim.h"

using pimeval::PimSim;

PimContext
pimCreateContext(PimDeviceEnum device, const char *label)
{
    pimeval::PimDeviceConfig config;
    config.device = device;
    return pimCreateContextFromConfig(config, label);
}

PimContext
pimCreateContextFromConfig(const pimeval::PimDeviceConfig &config,
                           const char *label)
{
    return PimSim::instance().createContext(
        config, label ? std::string(label) : std::string());
}

PimStatus
pimDestroyContext(PimContext ctx)
{
    return PimSim::instance().destroyContext(ctx);
}

PimStatus
pimSetCurrentContext(PimContext ctx)
{
    return PimSim::instance().setCurrentContext(ctx);
}

PimContext
pimGetCurrentContext()
{
    return PimSim::instance().currentContext();
}

uint32_t
pimContextId(PimContext ctx)
{
    return ctx ? ctx->id : 0;
}

const char *
pimContextLabel(PimContext ctx)
{
    return ctx ? ctx->label.c_str() : "";
}

PimDeviceEnum
pimContextDeviceType(PimContext ctx)
{
    return ctx && ctx->device
        ? ctx->device->config().device
        : PimDeviceEnum::PIM_DEVICE_NONE;
}

PimMemBackend
pimContextMemBackend(PimContext ctx)
{
    return ctx && ctx->device && ctx->device->model()
        ? ctx->device->model()->memBackendKind()
        : PimMemBackend::PIM_MEM_BACKEND_DEFAULT;
}
