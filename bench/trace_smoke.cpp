/**
 * @file
 * Observability smoke check (ctest `trace_smoke`): exercises the
 * tracing layer end to end and bounds the cost of the
 * runtime-disabled fast path.
 *
 * Three checks, all fatal on failure:
 *
 *  1. Export validity: a traced workload produces a Chrome trace-event
 *     file that parses back (pimValidateChromeTraceFile) and contains
 *     host-side spans and modeled-PIM spans.
 *
 *  2. Disabled overhead < 3%: with tracing compiled in but not begun,
 *     each hook costs one relaxed atomic load and branch. The check
 *     measures that cost directly over many hook invocations, scales
 *     it by a generous hooks-per-command budget, and compares against
 *     the measured per-command simulation time. A direct A/B
 *     wall-clock comparison would be noise-bound on small machines;
 *     the per-hook measurement is deterministic and far stricter.
 *
 *  3. Guarded export: PimScopedTraceExport begun in an inner scope
 *     exports a valid trace when the scope exits without an explicit
 *     pimTraceEnd — the early-error path quickstart guards against.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/pim_api.h"
#include "core/pim_trace.h"
#include "util/logging.h"

using namespace pimeval;

namespace {

double
nowSec()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** A small command stream; returns commands issued. */
uint64_t
runWorkload(uint64_t n, int rounds)
{
    std::vector<int> xs(n, 3);
    const PimObjId a = pimAlloc(PimAllocEnum::PIM_ALLOC_AUTO, n, 32,
                                PimDataType::PIM_INT32);
    const PimObjId b =
        pimAllocAssociated(32, a, PimDataType::PIM_INT32);
    if (a < 0 || b < 0)
        return 0;
    uint64_t commands = 0;
    pimCopyHostToDevice(xs.data(), a);
    ++commands;
    for (int r = 0; r < rounds; ++r) {
        pimAddScalar(a, b, 1);
        pimMulScalar(b, b, 2);
        pimAdd(a, b, b);
        commands += 3;
    }
    pimCopyDeviceToHost(b, xs.data());
    ++commands;
    pimSync();
    pimFree(a);
    pimFree(b);
    return commands;
}

} // namespace

int
main()
{
    LogConfig::setThreshold(LogLevel::Error);
    if (pimCreateDevice(PimDeviceEnum::PIM_DEVICE_FULCRUM, 4) !=
        PimStatus::PIM_OK) {
        std::fprintf(stderr, "trace_smoke: device creation failed\n");
        return 1;
    }

    // --- Check 1: traced run exports a valid dual-clock trace. ---
    const std::string trace_path = "trace_smoke_out.json";
    if (pimTraceBegin(trace_path.c_str()) != PimStatus::PIM_OK) {
        std::fprintf(stderr, "trace_smoke: pimTraceBegin failed\n");
        return 1;
    }
    runWorkload(1 << 14, 20);
    size_t modeled_spans = 0, host_spans = 0;
    for (const TraceEvent &e : PimTracer::instance().snapshotEvents()) {
        if (e.type == TraceEventType::kModeledSpan)
            ++modeled_spans;
        else if (e.type == TraceEventType::kSpan)
            ++host_spans;
    }
    if (pimTraceEnd(nullptr) != PimStatus::PIM_OK) {
        std::fprintf(stderr, "trace_smoke: pimTraceEnd failed\n");
        return 1;
    }
    size_t num_events = 0;
    std::string error;
    if (!pimValidateChromeTraceFile(trace_path, &num_events, &error)) {
        std::fprintf(stderr, "trace_smoke: invalid trace: %s\n",
                     error.c_str());
        return 1;
    }
    if (modeled_spans == 0 || host_spans == 0) {
        std::fprintf(stderr,
                     "trace_smoke: expected both host and modeled "
                     "spans (host=%zu modeled=%zu)\n",
                     host_spans, modeled_spans);
        return 1;
    }
    std::printf("trace_smoke: %zu events exported (%zu host spans, "
                "%zu modeled spans), file validates\n",
                num_events, host_spans, modeled_spans);
    std::remove(trace_path.c_str());

    // --- Check 2: runtime-disabled hook overhead < 3%. ---
    // Per-command simulation time with tracing inactive.
    const double t0 = nowSec();
    const uint64_t commands = runWorkload(1 << 14, 50);
    const double per_command_sec = (nowSec() - t0) /
        static_cast<double>(commands ? commands : 1);

    // Disabled-hook unit cost, averaged over many invocations. The
    // volatile sink stops the loop from being optimized away around
    // the hook's relaxed load.
    constexpr uint64_t kHookReps = 20'000'000;
    volatile uint64_t sink = 0;
    const double h0 = nowSec();
    for (uint64_t i = 0; i < kHookReps; ++i) {
        PIM_TRACE_INSTANT("overhead-probe", "bench", i);
        sink = sink + 1;
    }
    const double raw_loop_sec = nowSec() - h0;
    // Subtract the bare loop (same body minus the hook).
    volatile uint64_t sink2 = 0;
    const double b0 = nowSec();
    for (uint64_t i = 0; i < kHookReps; ++i)
        sink2 = sink2 + 1;
    const double bare_loop_sec = nowSec() - b0;
    const double hook_sec =
        (raw_loop_sec - bare_loop_sec) / kHookReps;

    // Generous budget: API instant + exec span (2 stamps) + issue and
    // commit instants + in-flight counter + slack.
    constexpr double kHooksPerCommand = 16.0;
    const double overhead_frac =
        (hook_sec > 0 ? hook_sec : 0.0) * kHooksPerCommand /
        per_command_sec;
    std::printf("trace_smoke: disabled hook %.2f ns, per-command "
                "%.2f us, est. overhead %.4f%% (budget %.0f "
                "hooks/command)\n",
                hook_sec * 1e9, per_command_sec * 1e6,
                overhead_frac * 100.0, kHooksPerCommand);
    if (overhead_frac >= 0.03) {
        std::fprintf(stderr,
                     "trace_smoke: disabled-tracing overhead %.2f%% "
                     "exceeds 3%% bound\n",
                     overhead_frac * 100.0);
        return 1;
    }

    // --- Check 3: scoped guard exports on early-exit paths. ---
    // Mimic a program that errors out of a scope without reaching its
    // explicit export: the guard must still write a valid file.
    const std::string guard_path = "trace_smoke_guard.json";
    {
        PimScopedTraceExport guard(guard_path);
        if (!PimTracer::enabled()) {
            std::fprintf(
                stderr,
                "trace_smoke: guard did not arm tracing\n");
            return 1;
        }
        runWorkload(1 << 12, 2);
        // "Early error": leave the scope without pimTraceEnd.
    }
    if (PimTracer::enabled()) {
        std::fprintf(stderr,
                     "trace_smoke: guard left tracing armed\n");
        return 1;
    }
    size_t guard_events = 0;
    if (!pimValidateChromeTraceFile(guard_path, &guard_events,
                                    &error)) {
        std::fprintf(stderr,
                     "trace_smoke: guard trace invalid: %s\n",
                     error.c_str());
        return 1;
    }
    if (guard_events == 0) {
        std::fprintf(stderr,
                     "trace_smoke: guard trace is empty\n");
        return 1;
    }
    std::printf("trace_smoke: guard exported %zu events on scope "
                "exit\n",
                guard_events);
    std::remove(guard_path.c_str());

    pimDeleteDevice();
    std::printf("trace_smoke: PASSED\n");
    return 0;
}
