/**
 * @file
 * Runtime-configuration resolver implementation: the process's single
 * getenv point for PIMEVAL_* knobs.
 */

#include "core/pim_runtime_config.h"

#include <cstdlib>
#include <cstring>
#include <mutex>

#include "core/pim_json.h"
#include "core/pim_trace.h"

namespace pimeval {

namespace {

std::mutex g_config_mutex;
PimRuntimeConfig g_config;

/** Non-empty environment value, or nullptr. */
const char *
envValue(const char *name)
{
    const char *v = std::getenv(name);
    return (v && *v) ? v : nullptr;
}

/** "0" is false, any other non-empty value is true (the historical
 *  PIMEVAL_FUSION convention). */
bool
envBool(const char *v)
{
    return *v != '0';
}

const char *
sourceName(PimKnobSource source)
{
    switch (source) {
      case PimKnobSource::kConfig:
        return "config";
      case PimKnobSource::kEnv:
        return "env";
      case PimKnobSource::kDefault:
        break;
    }
    return "default";
}

/**
 * Parse "cycle" / "analytical" / "lut". Kept local (rather than
 * calling MemTimingBackend::parseKind) so this resolver stays in the
 * bottom-most library with no dependency on the DRAM layer, which
 * itself resolves through here.
 */
bool
parseBackend(const char *name, PimMemBackend *out)
{
    if (std::strcmp(name, "cycle") == 0) {
        *out = PimMemBackend::PIM_MEM_BACKEND_CYCLE;
        return true;
    }
    if (std::strcmp(name, "analytical") == 0) {
        *out = PimMemBackend::PIM_MEM_BACKEND_ANALYTICAL;
        return true;
    }
    if (std::strcmp(name, "lut") == 0) {
        *out = PimMemBackend::PIM_MEM_BACKEND_LUT;
        return true;
    }
    return false;
}

const char *
backendName(PimMemBackend kind)
{
    switch (kind) {
      case PimMemBackend::PIM_MEM_BACKEND_CYCLE:
        return "cycle";
      case PimMemBackend::PIM_MEM_BACKEND_ANALYTICAL:
        return "analytical";
      case PimMemBackend::PIM_MEM_BACKEND_LUT:
        return "lut";
      case PimMemBackend::PIM_MEM_BACKEND_DEFAULT:
        break;
    }
    return "default";
}

} // namespace

PimResolvedRuntimeConfig
pimResolveRuntimeConfig()
{
    PimRuntimeConfig cfg;
    {
        std::lock_guard<std::mutex> lock(g_config_mutex);
        cfg = g_config;
    }
    PimResolvedRuntimeConfig r;

    if (cfg.trace_path) {
        r.trace_path = {*cfg.trace_path, PimKnobSource::kConfig};
    } else if (const char *v = envValue("PIMEVAL_TRACE")) {
        r.trace_path = {v, PimKnobSource::kEnv};
    }

    r.trace_capacity = {PimTracer::kDefaultCapacity,
                        PimKnobSource::kDefault};
    if (cfg.trace_capacity) {
        if (*cfg.trace_capacity > 0)
            r.trace_capacity = {*cfg.trace_capacity,
                                PimKnobSource::kConfig};
    } else if (const char *v = envValue("PIMEVAL_TRACE_CAPACITY")) {
        const long long parsed = std::atoll(v);
        if (parsed > 0)
            r.trace_capacity = {static_cast<uint64_t>(parsed),
                                PimKnobSource::kEnv};
    }

    if (cfg.profile_path) {
        r.profile_path = {*cfg.profile_path, PimKnobSource::kConfig};
    } else if (const char *v = envValue("PIMEVAL_PROFILE")) {
        r.profile_path = {v, PimKnobSource::kEnv};
    }

    r.profile_sample_ms = {25.0, PimKnobSource::kDefault};
    if (cfg.profile_sample_ms) {
        r.profile_sample_ms = {
            *cfg.profile_sample_ms > 0.0 ? *cfg.profile_sample_ms : 0.0,
            PimKnobSource::kConfig};
    } else if (const char *v = envValue("PIMEVAL_PROFILE_SAMPLE_MS")) {
        const double parsed = std::atof(v);
        r.profile_sample_ms = {parsed > 0.0 ? parsed : 0.0,
                               PimKnobSource::kEnv};
    }

    r.fusion = {false, PimKnobSource::kDefault};
    if (cfg.fusion) {
        r.fusion = {*cfg.fusion, PimKnobSource::kConfig};
    } else if (const char *v = envValue("PIMEVAL_FUSION")) {
        r.fusion = {envBool(v), PimKnobSource::kEnv};
    }

    r.mem_backend = {PimMemBackend::PIM_MEM_BACKEND_DEFAULT,
                     PimKnobSource::kDefault};
    if (cfg.mem_backend &&
        *cfg.mem_backend != PimMemBackend::PIM_MEM_BACKEND_DEFAULT) {
        r.mem_backend = {*cfg.mem_backend, PimKnobSource::kConfig};
    } else if (const char *v = envValue("PIMEVAL_MEM_BACKEND")) {
        PimMemBackend parsed;
        if (parseBackend(v, &parsed))
            r.mem_backend = {parsed, PimKnobSource::kEnv};
    }

    return r;
}

} // namespace pimeval

PimStatus
pimSetRuntimeConfig(const pimeval::PimRuntimeConfig &config)
{
    std::lock_guard<std::mutex> lock(pimeval::g_config_mutex);
    pimeval::g_config = config;
    return PimStatus::PIM_OK;
}

pimeval::PimRuntimeConfig
pimGetRuntimeConfig()
{
    std::lock_guard<std::mutex> lock(pimeval::g_config_mutex);
    return pimeval::g_config;
}

PimStatus
pimDumpRuntimeConfig(std::ostream &os)
{
    using pimeval::jsonEscape;
    using pimeval::sourceName;
    const pimeval::PimResolvedRuntimeConfig r =
        pimeval::pimResolveRuntimeConfig();
    os << "{\n";
    const auto knob = [&os](const char *name, const char *env,
                            const std::string &value,
                            pimeval::PimKnobSource source, bool quote,
                            bool last = false) {
        os << "  \"" << name << "\": {\"value\": ";
        if (quote)
            os << '"' << jsonEscape(value) << '"';
        else
            os << value;
        os << ", \"source\": \"" << sourceName(source)
           << "\", \"env\": \"" << env << "\"}" << (last ? "\n" : ",\n");
    };
    knob("trace_path", "PIMEVAL_TRACE", r.trace_path.value,
         r.trace_path.source, true);
    knob("trace_capacity", "PIMEVAL_TRACE_CAPACITY",
         std::to_string(r.trace_capacity.value),
         r.trace_capacity.source, false);
    knob("profile_path", "PIMEVAL_PROFILE", r.profile_path.value,
         r.profile_path.source, true);
    knob("profile_sample_ms", "PIMEVAL_PROFILE_SAMPLE_MS",
         std::to_string(r.profile_sample_ms.value),
         r.profile_sample_ms.source, false);
    knob("fusion", "PIMEVAL_FUSION", r.fusion.value ? "true" : "false",
         r.fusion.source, false);
    knob("mem_backend", "PIMEVAL_MEM_BACKEND",
         pimeval::backendName(r.mem_backend.value), r.mem_backend.source,
         true, /*last=*/true);
    os << "}\n";
    return PimStatus::PIM_OK;
}
