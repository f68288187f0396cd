/**
 * @file
 * Consolidated runtime configuration: one resolver for every
 * PIMEVAL_* environment knob.
 *
 * Historically each subsystem parsed its own environment variable at
 * its own time (trace capacity in the tracer, fusion in the device
 * constructor, the memory backend in the DRAM layer, ...), which made
 * the effective configuration impossible to see in one place and the
 * precedence rules implicit. All of those knobs now resolve through
 * this header with one explicit precedence:
 *
 *     programmatic config (pimSetRuntimeConfig) > environment > default
 *
 * Subsystems keep their resolution *timing* (the fusion default is
 * still read at device creation, the trace capacity at trace begin),
 * but the *parsing* and precedence live here, and
 * pimDumpRuntimeConfig() reports every knob's resolved value plus
 * where it came from.
 *
 * Knobs covered (see docs/API.md for the table):
 *   PIMEVAL_TRACE              trace export path, armed at device create
 *   PIMEVAL_TRACE_CAPACITY     per-thread trace ring capacity (events)
 *   PIMEVAL_PROFILE            profile export path, armed at device create
 *   PIMEVAL_PROFILE_SAMPLE_MS  profiler sampler period (0 disables)
 *   PIMEVAL_FUSION             device-wide fusion default
 *   PIMEVAL_MEM_BACKEND        memory-timing backend (cycle|analytical|lut)
 *
 * PimDeviceConfig::mem_backend stays the highest-priority selector
 * for the memory backend (an explicit per-device struct field beats
 * every process-wide knob); this resolver supplies the layer below it.
 */

#ifndef PIMEVAL_CORE_PIM_RUNTIME_CONFIG_H_
#define PIMEVAL_CORE_PIM_RUNTIME_CONFIG_H_

#include <cstdint>
#include <optional>
#include <ostream>
#include <string>

#include "core/pim_types.h"

namespace pimeval {

/**
 * Programmatic overrides for the runtime knobs. An unset optional
 * defers to the environment variable, then to the built-in default;
 * a set optional wins over both. Apply with pimSetRuntimeConfig.
 */
struct PimRuntimeConfig
{
    /** Trace export path armed at device creation ("" = no trace). */
    std::optional<std::string> trace_path;
    /** Per-thread trace ring capacity in events. */
    std::optional<uint64_t> trace_capacity;
    /** Profile export path armed at device creation ("" = none). */
    std::optional<std::string> profile_path;
    /** Profiler background-sampler period in ms (0 = no sampler). */
    std::optional<double> profile_sample_ms;
    /** Device-wide elementwise-fusion default at device creation. */
    std::optional<bool> fusion;
    /** Memory-timing backend (below PimDeviceConfig::mem_backend). */
    std::optional<PimMemBackend> mem_backend;
};

/** Where a resolved knob value came from. */
enum class PimKnobSource {
    kDefault, ///< built-in default
    kEnv,     ///< PIMEVAL_* environment variable
    kConfig,  ///< pimSetRuntimeConfig override
};

/** One resolved knob: the effective value plus its provenance. */
template <typename T> struct PimResolvedKnob
{
    T value{};
    PimKnobSource source = PimKnobSource::kDefault;
};

/**
 * The fully resolved runtime configuration. Environment variables are
 * read when resolve() is called (the single getenv point), so tests
 * that set and restore PIMEVAL_* see their changes on the next
 * resolve — matching the historical per-subsystem read timing.
 */
struct PimResolvedRuntimeConfig
{
    PimResolvedKnob<std::string> trace_path;
    PimResolvedKnob<uint64_t> trace_capacity;
    PimResolvedKnob<std::string> profile_path;
    PimResolvedKnob<double> profile_sample_ms;
    PimResolvedKnob<bool> fusion;
    /** DEFAULT when neither config nor env selects one (the caller
     *  then applies its own fallback, LUT). */
    PimResolvedKnob<PimMemBackend> mem_backend;
};

/** The single parse point: overrides > environment > defaults. */
PimResolvedRuntimeConfig pimResolveRuntimeConfig();

} // namespace pimeval

/**
 * Install process-wide programmatic overrides (replacing any previous
 * ones; pass a default-constructed struct to clear). Thread-safe.
 * Takes effect at each knob's natural resolution time — e.g. the
 * fusion default applies to devices created afterwards.
 */
PimStatus pimSetRuntimeConfig(const pimeval::PimRuntimeConfig &config);

/** The currently installed programmatic overrides. */
pimeval::PimRuntimeConfig pimGetRuntimeConfig();

/**
 * Write the resolved runtime configuration as a JSON object to
 * @p os: every knob with its effective value, its provenance
 * ("config" | "env" | "default"), and the environment variable it
 * listens to.
 */
PimStatus pimDumpRuntimeConfig(std::ostream &os);

#endif // PIMEVAL_CORE_PIM_RUNTIME_CONFIG_H_
