/**
 * @file
 * Suite-throughput benchmark: simulator wall-clock of PIMbench
 * workloads with elementwise command fusion off and on.
 *
 * Each selected workload runs to completion in two timed passes on
 * the same device — unfused and fused — after one untimed unfused
 * warm-up pass, so neither timed pass starts with cold device caches
 * (cost memo, free list); the report compares end-to-end
 * wall-clock (best of N repetitions) and checks that the modeled
 * statistics — kernel/copy time and energy, transfer bytes — are
 * bit-identical across the passes, the correctness contract of the
 * fusion pass (per-original-command costing). Single-chain
 * fused/unfused rates are measured by bench_sim_throughput alone (its
 * *_chain entries, gated in CI); this bench times whole apps.
 *
 * A multi-target sweep (API v2 contexts) also rides along: the same
 * workloads run on all three PIM targets — bit-serial, Fulcrum, and
 * bank-level — first sequentially (one context at a time), then
 * concurrently on three host threads, each thread pinned to its own
 * pimCreateContext device. Per-target modeled statistics must be
 * bit-identical between the two schedules; the measured wall-clock
 * speedup of the concurrent schedule lands in the JSON as
 * "sweep_metrics" (honest numbers: on a single host core the two
 * schedules tie).
 *
 * Results are always written as JSON to BENCH_SUITE.json in the
 * current directory (override with PIMEVAL_BENCH_SUITE_JSON). Scale
 * and repetitions come from PIMEVAL_BENCH_SUITE_SCALE (tiny|small,
 * default small) and PIMEVAL_BENCH_SUITE_REPS (default 3).
 *
 * Observability: the JSON also carries each pass's metrics registry
 * as pimDumpMetrics writes it (docs/OBSERVABILITY.md). When
 * PIMEVAL_TRACE=<base> is set, each pass additionally exports a
 * Chrome/Perfetto trace of its whole run to <base>.sync.json /
 * <base>.sync_fused.json.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <iterator>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/pim_context.h"
#include "core/pim_error.h"
#include "dram/mem_timing_backend.h"

using namespace pimbench;

namespace {

/** Workloads whose hot loops issue long dependency chains. */
const char *const kApps[] = {
    "Vector Addition", "AXPY", "GEMV", "GEMM", "K-means",
};

/** One pass's measurement for one app. */
struct ModeRun
{
    double best_wall_sec = std::numeric_limits<double>::infinity();
    bool verified = false;
    PimRunStats stats;
};

double
nowSec()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(
               clock::now().time_since_epoch())
        .count();
}

ModeRun
runApp(const std::string &name, SuiteScale scale, unsigned reps)
{
    ModeRun run;
    for (unsigned r = 0; r < reps; ++r) {
        const double start = nowSec();
        const AppResult result = runBenchmarkByName(name, scale);
        const double wall = nowSec() - start;
        run.best_wall_sec = std::min(run.best_wall_sec, wall);
        run.verified = result.verified;
        run.stats = result.stats;
    }
    return run;
}

double
metricOr(const char *name, double fallback)
{
    double v = fallback;
    if (!pimGetMetric(name, &v))
        return fallback;
    return v;
}

/** Modeled-stats equality: the bit-identity contract. Host time is
 *  measured wall-clock, so it is excluded. */
bool
modeledStatsMatch(const PimRunStats &a, const PimRunStats &b)
{
    return a.kernel_sec == b.kernel_sec && a.kernel_j == b.kernel_j &&
        a.copy_sec == b.copy_sec && a.copy_j == b.copy_j &&
        a.bytes_h2d == b.bytes_h2d && a.bytes_d2h == b.bytes_d2h &&
        a.bytes_d2d == b.bytes_d2d;
}

/** One target's leg of the multi-target context sweep. */
struct SweepTarget
{
    PimDeviceEnum device = PimDeviceEnum::PIM_DEVICE_NONE;
    std::string name;
    double seq_wall_sec = 0.0;  ///< whole leg, sequential schedule
    double conc_wall_sec = 0.0; ///< this thread's leg, concurrent
    std::vector<AppResult> seq, conc;
};

/**
 * Run the suite apps once with @p ctx pinned as the calling thread's
 * current context (the apps themselves use the unchanged global API).
 * @return wall seconds for the whole leg.
 */
double
runSweepLeg(PimContext ctx, SuiteScale scale,
            std::vector<AppResult> *out)
{
    pimeval::PimContextScope scope(ctx);
    const double start = nowSec();
    for (const char *app : kApps)
        out->push_back(runBenchmarkByName(app, scale));
    return nowSec() - start;
}

} // namespace

int
main()
{
    quietLogs();

    const char *scale_env = std::getenv("PIMEVAL_BENCH_SUITE_SCALE");
    const bool tiny =
        scale_env != nullptr && std::string(scale_env) == "tiny";
    const SuiteScale scale =
        tiny ? SuiteScale::kTiny : SuiteScale::kSmall;

    unsigned reps = 3;
    if (const char *reps_env = std::getenv("PIMEVAL_BENCH_SUITE_REPS")) {
        const long v = std::strtol(reps_env, nullptr, 10);
        if (v > 0)
            reps = static_cast<unsigned>(v);
    }

    const char *env = std::getenv("PIMEVAL_BENCH_SUITE_JSON");
    const std::string json_path =
        (env && *env) ? env : "BENCH_SUITE.json";

    std::cout << "suite_throughput: unfused vs fused"
              << " (scale=" << (tiny ? "tiny" : "small")
              << ", reps=" << reps << ", host threads="
              << std::thread::hardware_concurrency() << ")\n";

    // Unfused pass first, fused second (fusion ON in the fused pass
    // is the identity gate this bench enforces).
    struct ModePass
    {
        bool fused;
        const char *name;
    };
    constexpr ModePass kPasses[] = {
        {false, "sync"},
        {true, "sync_fused"},
    };
    constexpr size_t kNumPasses = std::size(kPasses);

    struct AppRow
    {
        std::string app;
        ModeRun runs[kNumPasses];
    };
    std::vector<AppRow> rows;
    for (const char *app : kApps)
        rows.push_back(AppRow{app, {}});

    // Whole-pass structure (all apps per pass, not all passes per app)
    // so per-pass metrics and traces cover one configuration cleanly.
    const char *trace_base = std::getenv("PIMEVAL_TRACE");
    const bool tracing = trace_base != nullptr && *trace_base != '\0';
    // Each pass's registry dump, taken before the next pass resets it.
    std::string pass_metrics[kNumPasses];
    {
        // One representative target keeps runtime sane.
        DeviceSession session(
            benchConfig(PimDeviceEnum::PIM_DEVICE_FULCRUM, 32));
        if (!session.ok()) {
            std::cerr << "device creation failed\n";
            return 1;
        }
        // One untimed unfused pass first. It pays the process's first
        // transfer (the LUT timing backend's calibration, tens of ms)
        // and fills this device's cost memo and free list, so both
        // timed passes start warm: a cold first pass would pay every
        // cache miss and bias each app's fused/unfused ratio.
        for (const char *app : kApps)
            runBenchmarkByName(app, scale);
        for (size_t p = 0; p < kNumPasses; ++p) {
            const ModePass &pass = kPasses[p];
            pimSetFusionEnabled(pass.fused);
            if (tracing) {
                const std::string path = std::string(trace_base) +
                    "." + pass.name + ".json";
                if (pimTraceBegin(path.c_str()) == PimStatus::PIM_OK)
                    std::cout << "[tracing " << pass.name
                              << " pass to " << path << "]\n";
            }
            pimResetMetrics();
            for (auto &row : rows)
                row.runs[p] = runApp(row.app, scale, reps);
            std::ostringstream metrics;
            pimeval::PimMetrics::instance().dumpJson(metrics);
            pass_metrics[p] = metrics.str();
            if (tracing)
                pimTraceEnd(nullptr);
        }
        pimSetFusionEnabled(false);
    }

    // Multi-target sweep: the same workloads on all three targets,
    // first one context at a time, then three contexts on three host
    // threads. Each leg routes the unchanged global API through the
    // thread's pinned context, so per-target modeled stats must be
    // bit-identical between the two schedules.
    std::vector<SweepTarget> sweep;
    for (const auto &[device, target_name] : pimTargets())
        sweep.push_back(
            SweepTarget{device, target_name, 0.0, 0.0, {}, {}});

    bool sweep_ok = true;
    double sweep_seq_total = 0.0;
    for (auto &t : sweep) {
        const PimContext ctx = pimCreateContextFromConfig(
            benchConfig(t.device, 32), (t.name + " seq").c_str());
        if (ctx == nullptr) {
            std::cerr << "sweep: context creation failed for "
                      << t.name << ": " << pimGetLastErrorMessage()
                      << "\n";
            sweep_ok = false;
            break;
        }
        t.seq_wall_sec = runSweepLeg(ctx, scale, &t.seq);
        sweep_seq_total += t.seq_wall_sec;
        pimDestroyContext(ctx);
    }

    double sweep_conc_wall = 0.0;
    if (sweep_ok) {
        std::vector<PimContext> ctxs;
        for (const auto &t : sweep)
            ctxs.push_back(pimCreateContextFromConfig(
                benchConfig(t.device, 32), t.name.c_str()));
        for (const PimContext ctx : ctxs)
            sweep_ok = sweep_ok && ctx != nullptr;
        if (sweep_ok) {
            const double start = nowSec();
            std::vector<std::thread> threads;
            for (size_t i = 0; i < sweep.size(); ++i)
                threads.emplace_back([&ctxs, &sweep, scale, i]() {
                    sweep[i].conc_wall_sec = runSweepLeg(
                        ctxs[i], scale, &sweep[i].conc);
                });
            for (auto &th : threads)
                th.join();
            sweep_conc_wall = nowSec() - start;
        }
        for (const PimContext ctx : ctxs) {
            if (ctx != nullptr)
                pimDestroyContext(ctx);
        }
    }

    // Memory-backend comparison pass: copy-heavy workloads once per
    // timing backend (cycle / lut / analytical) on their own contexts.
    // Records the modeled copy seconds per backend, the LUT's relative
    // error against the cycle model, and the cycle pass's channel
    // telemetry (utilization, row-hit rate) for BENCH_SUITE.json's
    // "backend_metrics" block.
    const char *const kBackendApps[] = {"Histogram",
                                        "Image Downsampling",
                                        "Radix Sort"};
    struct BackendApp
    {
        std::string app;
        double cycle_copy_sec = 0.0;
        double lut_copy_sec = 0.0;
        double analytical_copy_sec = 0.0;
        double lut_rel_err = 0.0;
        bool verified = true;
    };
    std::vector<BackendApp> backend_apps;
    for (const char *app : kBackendApps)
        backend_apps.push_back(BackendApp{app, 0, 0, 0, 0, true});

    struct ChannelTelemetry
    {
        double util = 0.0;
        double row_hit_rate = 0.0;
        uint64_t requests = 0;
        uint64_t row_hits = 0;
        uint64_t row_misses = 0;
        uint64_t activates = 0;
    } channel_telemetry;
    double lut_lookups = 0.0, lut_calibrations = 0.0;
    double lut_calibration_ms = 0.0;
    bool backend_ok = true;

    const PimMemBackend kBackendKinds[] = {
        PimMemBackend::PIM_MEM_BACKEND_CYCLE,
        PimMemBackend::PIM_MEM_BACKEND_LUT,
        PimMemBackend::PIM_MEM_BACKEND_ANALYTICAL,
    };
    for (const PimMemBackend kind : kBackendKinds) {
        pimeval::PimDeviceConfig config =
            benchConfig(PimDeviceEnum::PIM_DEVICE_FULCRUM, 32);
        config.mem_backend = kind;
        const PimContext ctx = pimCreateContextFromConfig(
            config, pimMemBackendName(kind).c_str());
        if (ctx == nullptr) {
            backend_ok = false;
            break;
        }
        pimeval::PimContextScope scope(ctx);
        pimResetMetrics();
        for (auto &row : backend_apps) {
            const AppResult result = runBenchmarkByName(row.app, scale);
            row.verified = row.verified && result.verified;
            switch (kind) {
              case PimMemBackend::PIM_MEM_BACKEND_CYCLE:
                row.cycle_copy_sec = result.stats.copy_sec;
                break;
              case PimMemBackend::PIM_MEM_BACKEND_LUT:
                row.lut_copy_sec = result.stats.copy_sec;
                break;
              default:
                row.analytical_copy_sec = result.stats.copy_sec;
                break;
            }
        }
        if (kind == PimMemBackend::PIM_MEM_BACKEND_CYCLE) {
            channel_telemetry.util = metricOr("dram.channel.util", 0.0);
            channel_telemetry.row_hit_rate =
                metricOr("dram.channel.row_hit_rate", 0.0);
            channel_telemetry.requests = static_cast<uint64_t>(
                metricOr("dram.channel.requests", 0.0));
            channel_telemetry.row_hits = static_cast<uint64_t>(
                metricOr("dram.channel.row_hits", 0.0));
            channel_telemetry.row_misses = static_cast<uint64_t>(
                metricOr("dram.channel.row_misses", 0.0));
            channel_telemetry.activates = static_cast<uint64_t>(
                metricOr("dram.channel.activates", 0.0));
        } else if (kind == PimMemBackend::PIM_MEM_BACKEND_LUT) {
            lut_lookups = metricOr("dram.lut.lookups", 0.0);
            lut_calibrations = metricOr("dram.lut.calibrations", 0.0);
            lut_calibration_ms =
                metricOr("dram.lut.calibration_ms", 0.0);
        }
        pimDestroyContext(ctx);
    }
    double lut_max_rel_err = 0.0;
    for (auto &row : backend_apps) {
        if (row.cycle_copy_sec > 0.0)
            row.lut_rel_err =
                std::abs(row.lut_copy_sec - row.cycle_copy_sec) /
                row.cycle_copy_sec;
        lut_max_rel_err = std::max(lut_max_rel_err, row.lut_rel_err);
    }

    bool sweep_match = sweep_ok, sweep_verified = sweep_ok;
    pimeval::TableWriter sweep_table(
        "Multi-target sweep: one context at a time vs three"
        " concurrent contexts",
        {"Target", "Sequential s", "Concurrent s", "Stats match",
         "Verified"});
    for (const auto &t : sweep) {
        bool match = t.seq.size() == t.conc.size();
        bool verified = match;
        for (size_t a = 0; match && a < t.seq.size(); ++a) {
            match = modeledStatsMatch(t.seq[a].stats, t.conc[a].stats);
            verified = verified && t.seq[a].verified &&
                t.conc[a].verified;
        }
        sweep_match = sweep_match && match;
        sweep_verified = sweep_verified && verified;
        char seq_s[32], conc_s[32];
        std::snprintf(seq_s, sizeof seq_s, "%.3f", t.seq_wall_sec);
        std::snprintf(conc_s, sizeof conc_s, "%.3f", t.conc_wall_sec);
        sweep_table.addRow({t.name, seq_s, conc_s,
                            match ? "yes" : "NO",
                            verified ? "yes" : "NO"});
    }
    const double sweep_speedup = sweep_conc_wall > 0.0
        ? sweep_seq_total / sweep_conc_wall
        : 0.0;

    pimeval::TableWriter table(
        "Suite wall-clock: unfused vs fused (Fulcrum)",
        {"Application", "Unfused s", "Fused s", "Speedup",
         "Stats match", "Verified"});
    double totals[kNumPasses] = {};
    bool all_match = true, all_verified = true;
    for (const auto &row : rows) {
        bool match = true, verified = true;
        for (size_t p = 0; p < kNumPasses; ++p) {
            match = match &&
                modeledStatsMatch(row.runs[0].stats,
                                  row.runs[p].stats);
            verified = verified && row.runs[p].verified;
            totals[p] += row.runs[p].best_wall_sec;
        }
        all_match = all_match && match;
        all_verified = all_verified && verified;
        char sync_s[32], fused_s[32], speedup_s[32];
        std::snprintf(sync_s, sizeof sync_s, "%.3f",
                      row.runs[0].best_wall_sec);
        std::snprintf(fused_s, sizeof fused_s, "%.3f",
                      row.runs[1].best_wall_sec);
        std::snprintf(speedup_s, sizeof speedup_s, "%.2fx",
                      row.runs[0].best_wall_sec /
                          row.runs[1].best_wall_sec);
        table.addRow({row.app, sync_s, fused_s, speedup_s,
                      match ? "yes" : "NO", verified ? "yes" : "NO"});
    }
    emitTable(table);
    const double sync_total = totals[0], fused_total = totals[1];
    std::cout << "suite wall-clock: unfused " << sync_total
              << " s, fused " << fused_total << " s, speedup "
              << sync_total / fused_total << "x\n";
    emitTable(sweep_table);
    std::printf("multi-target sweep: sequential %.3f s, concurrent "
                "%.3f s, speedup %.2fx on %u host threads (stats %s)\n",
                sweep_seq_total, sweep_conc_wall, sweep_speedup,
                std::thread::hardware_concurrency(),
                sweep_match ? "identical" : "DIVERGED");

    pimeval::TableWriter backend_table(
        "Memory-timing backends: modeled copy seconds per app"
        " (Fulcrum, 32 ranks)",
        {"Application", "Cycle s", "LUT s", "Analytical s",
         "LUT rel err"});
    for (const auto &row : backend_apps) {
        char cyc[32], lut[32], ana[32], err[32];
        std::snprintf(cyc, sizeof cyc, "%.3e", row.cycle_copy_sec);
        std::snprintf(lut, sizeof lut, "%.3e", row.lut_copy_sec);
        std::snprintf(ana, sizeof ana, "%.3e",
                      row.analytical_copy_sec);
        std::snprintf(err, sizeof err, "%.4f%%",
                      row.lut_rel_err * 100.0);
        backend_table.addRow({row.app, cyc, lut, ana, err});
    }
    emitTable(backend_table);
    std::printf("memory backends: LUT max rel err %.4f%% vs cycle; "
                "cycle channel util %.1f%%, row-hit rate %.1f%%; "
                "%.0f LUT lookups over %.0f calibration(s) "
                "(%.1f ms)\n",
                lut_max_rel_err * 100.0,
                channel_telemetry.util * 100.0,
                channel_telemetry.row_hit_rate * 100.0, lut_lookups,
                lut_calibrations, lut_calibration_ms);

    std::ofstream json_out(json_path);
    if (!json_out) {
        std::cerr << "cannot open " << json_path << " for writing\n";
        return 1;
    }
    json_out << "{\n  \"bench\": \"suite_throughput\",\n"
             << "  \"target\": \"fulcrum\",\n"
             << "  \"scale\": \"" << (tiny ? "tiny" : "small")
             << "\",\n"
             << "  \"repetitions\": " << reps << ",\n"
             << "  \"host_threads\": "
             << std::thread::hardware_concurrency() << ",\n"
             << "  \"suite_sync_wall_sec\": " << sync_total << ",\n"
             << "  \"suite_sync_fused_wall_sec\": " << fused_total
             << ",\n"
             << "  \"suite_fused_speedup\": " << sync_total / fused_total
             << ",\n  \"sync_metrics\": " << pass_metrics[0]
             << ",\n  \"sync_fused_metrics\": " << pass_metrics[1];
    json_out << ",\n  \"sweep_metrics\": {\n"
             << "    \"host_threads\": "
             << std::thread::hardware_concurrency() << ",\n"
             << "    \"sequential_total_wall_sec\": " << sweep_seq_total
             << ",\n"
             << "    \"concurrent_wall_sec\": " << sweep_conc_wall
             << ",\n"
             << "    \"concurrent_speedup\": " << sweep_speedup << ",\n"
             << "    \"stats_identical\": "
             << (sweep_match ? "true" : "false") << ",\n"
             << "    \"verified\": "
             << (sweep_verified ? "true" : "false") << ",\n"
             << "    \"targets\": [\n";
    for (size_t i = 0; i < sweep.size(); ++i) {
        const SweepTarget &t = sweep[i];
        json_out << "      {\"target\": \"" << pimeval::jsonEscape(t.name)
                 << "\", \"sequential_wall_sec\": " << t.seq_wall_sec
                 << ", \"concurrent_wall_sec\": " << t.conc_wall_sec
                 << "}" << (i + 1 < sweep.size() ? "," : "") << "\n";
    }
    json_out << "    ]\n  }";
    json_out << ",\n  \"backend_metrics\": {\n"
             << "    \"default_backend\": \""
             << pimMemBackendName(
                    pimeval::MemTimingBackend::resolve(
                        PimMemBackend::PIM_MEM_BACKEND_DEFAULT))
             << "\",\n"
             << "    \"cycle_channel\": {\"utilization\": "
             << channel_telemetry.util
             << ", \"row_hit_rate\": " << channel_telemetry.row_hit_rate
             << ", \"requests\": " << channel_telemetry.requests
             << ", \"row_hits\": " << channel_telemetry.row_hits
             << ", \"row_misses\": " << channel_telemetry.row_misses
             << ", \"activates\": " << channel_telemetry.activates
             << "},\n"
             << "    \"lut\": {\"lookups\": " << lut_lookups
             << ", \"calibrations\": " << lut_calibrations
             << ", \"calibration_ms\": " << lut_calibration_ms
             << ", \"max_rel_err\": " << lut_max_rel_err << "},\n"
             << "    \"apps\": [\n";
    for (size_t i = 0; i < backend_apps.size(); ++i) {
        const BackendApp &row = backend_apps[i];
        json_out << "      {\"app\": \"" << pimeval::jsonEscape(row.app)
                 << "\", \"cycle_copy_sec\": " << row.cycle_copy_sec
                 << ", \"lut_copy_sec\": " << row.lut_copy_sec
                 << ", \"analytical_copy_sec\": "
                 << row.analytical_copy_sec
                 << ", \"lut_rel_err\": " << row.lut_rel_err
                 << ", \"verified\": "
                 << (row.verified ? "true" : "false") << "}"
                 << (i + 1 < backend_apps.size() ? "," : "") << "\n";
    }
    json_out << "    ]\n  }";
    // Per-phase breakdown of the two passes, recorded when
    // PIMEVAL_PROFILE armed the profiler for the main device session
    // (each suite app is a top-level phase with setup/h2d/compute/d2h
    // children). Empty when the profiler never ran.
    json_out << ",\n  \"profile_phases\": ";
    pimeval::writeProfilePhasesJson(json_out, pimProfileSnapshot().phases);
    json_out << ",\n  \"results\": [\n";
    bool first = true;
    for (const auto &row : rows) {
        if (!first)
            json_out << ",\n";
        first = false;
        bool match = true;
        for (size_t p = 1; p < kNumPasses; ++p)
            match = match &&
                modeledStatsMatch(row.runs[0].stats,
                                  row.runs[p].stats);
        bool verified = true;
        for (size_t p = 0; p < kNumPasses; ++p)
            verified = verified && row.runs[p].verified;
        json_out << "    {\"app\": \"" << pimeval::jsonEscape(row.app)
                 << "\", \"sync_wall_sec\": "
                 << row.runs[0].best_wall_sec
                 << ", \"sync_fused_wall_sec\": "
                 << row.runs[1].best_wall_sec
                 << ", \"fused_speedup\": "
                 << row.runs[0].best_wall_sec /
                        row.runs[1].best_wall_sec
                 << ", \"modeled_stats_match\": "
                 << (match ? "true" : "false")
                 << ", \"verified\": " << (verified ? "true" : "false")
                 << "}";
    }
    json_out << "\n  ]\n}\n";
    std::cout << "[json written: " << json_path << "]\n";

    // The bit-identity contract is load-bearing: fail loudly if any
    // workload's modeled stats diverged between fused and unfused
    // execution.
    if (!all_match || !all_verified) {
        std::cerr << (all_match ? "verification" : "modeled stats")
                  << " mismatch across fusion passes\n";
        return 1;
    }
    if (!sweep_ok || !sweep_match || !sweep_verified) {
        std::cerr << "multi-target sweep "
                  << (!sweep_ok ? "setup failed"
                                : "stats/verification mismatch between"
                                  " sequential and concurrent runs")
                  << "\n";
        return 1;
    }
    if (!backend_ok || lut_max_rel_err > 0.05) {
        std::cerr << "memory-backend pass "
                  << (!backend_ok
                          ? "setup failed"
                          : "LUT error above the 5% calibration gate")
                  << "\n";
        return 1;
    }
    return 0;
}
