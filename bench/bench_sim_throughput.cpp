/**
 * @file
 * Simulator-throughput benchmark: simulated elements per second of the
 * functional-simulation hot path, per PIM command and per target.
 *
 * The paper's artifact runtime is dominated by functional simulation
 * of the 18 PIMbench workloads at Table I problem sizes, so this bench
 * is the measured trajectory for every perf PR touching the kernel
 * execution engine: each entry times one PIM command on a 2^20-element
 * int32 vector and reports items/second (= simulated elements/second).
 * Every entry is timed by wall clock (UseRealTime), so work done on
 * thread-pool workers counts, not just the main thread's CPU time.
 *
 * Besides the console report, results are always written as JSON to
 * BENCH_SIM.json in the current directory (override the path with the
 * PIMEVAL_BENCH_SIM_JSON environment variable) so successive runs can
 * be diffed mechanically. See docs/PERFORMANCE.md.
 */

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "core/perf_energy_model.h"
#include "core/pim_api.h"
#include "core/pim_json.h"
#include "util/logging.h"
#include "util/prng.h"

using namespace pimeval;

namespace {

/** Problem size per command invocation (elements). */
constexpr uint64_t kNumElements = 1ull << 20;

struct TargetSpec
{
    PimDeviceEnum device;
    const char *name;
};

/** The three digital PIM targets in paper order. */
const TargetSpec kTargetSpecs[] = {
    {PimDeviceEnum::PIM_DEVICE_BITSIMD_V_AP, "bitserial"},
    {PimDeviceEnum::PIM_DEVICE_FULCRUM, "fulcrum"},
    {PimDeviceEnum::PIM_DEVICE_BANK_LEVEL, "banklevel"},
};

/** RAII active-device guard for one benchmark run. */
class DeviceGuard
{
  public:
    explicit DeviceGuard(PimDeviceEnum device)
    {
        LogConfig::setThreshold(LogLevel::Error);
        PimDeviceConfig config;
        config.device = device;
        ok_ = pimCreateDeviceFromConfig(config) == PimStatus::PIM_OK;
    }
    ~DeviceGuard()
    {
        if (ok_)
            pimDeleteDevice();
    }
    bool ok() const { return ok_; }

  private:
    bool ok_ = false;
};

/** Three int32 operands preloaded with pseudo-random data. */
struct Operands
{
    PimObjId a = -1;
    PimObjId b = -1;
    PimObjId d = -1;

    bool
    init()
    {
        a = pimAlloc(PimAllocEnum::PIM_ALLOC_AUTO, kNumElements, 32,
                     PimDataType::PIM_INT32);
        if (a < 0)
            return false;
        b = pimAllocAssociated(32, a, PimDataType::PIM_INT32);
        d = pimAllocAssociated(32, a, PimDataType::PIM_INT32);
        if (b < 0 || d < 0)
            return false;
        Prng rng(42);
        std::vector<int32_t> host(kNumElements);
        for (auto &v : host)
            v = static_cast<int32_t>(rng.next());
        pimCopyHostToDevice(host.data(), a);
        for (auto &v : host)
            v = static_cast<int32_t>(rng.next() | 1); // non-zero divisor
        pimCopyHostToDevice(host.data(), b);
        return true;
    }

    ~Operands()
    {
        if (a >= 0)
            pimFree(a);
        if (b >= 0)
            pimFree(b);
        if (d >= 0)
            pimFree(d);
    }
};

/** AXPY as a fusable 2-op chain with one dead temporary. */
void
axpyChain(const Operands &o)
{
    const PimObjId t =
        pimAllocAssociated(32, o.a, PimDataType::PIM_INT32);
    pimMulScalar(o.a, t, 5);
    pimAdd(t, o.b, o.d);
    pimFree(t);
    pimSync();
}

/** Linear-regression residual (w*x + b - y) as a fusable 3-op chain
 *  with two dead temporaries. */
void
linregChain(const Operands &o)
{
    const PimObjId t0 =
        pimAllocAssociated(32, o.a, PimDataType::PIM_INT32);
    const PimObjId t1 =
        pimAllocAssociated(32, o.a, PimDataType::PIM_INT32);
    pimMulScalar(o.a, t0, 3);
    pimAddScalar(t0, t1, 7);
    pimSub(t1, o.b, o.d);
    pimFree(t0);
    pimFree(t1);
    pimSync();
}

/** Dot product as a fusable compute+reduce chain: the mul's dead
 *  temporary feeds a pimRedSum terminator, so the fused form never
 *  materializes the product vector. */
void
dotChain(const Operands &o)
{
    const PimObjId t =
        pimAllocAssociated(32, o.a, PimDataType::PIM_INT32);
    int64_t sum = 0;
    pimMul(o.a, o.b, t);
    pimRedSum(t, &sum);
    pimFree(t);
    pimSync();
    benchmark::DoNotOptimize(sum);
}

/** One pseudo-random host "matrix column" shared by the GEMV/GEMM
 *  chain micros (the copy payload, not the values, is what's timed). */
const std::vector<int32_t> &
hostColumn()
{
    static const std::vector<int32_t> column = [] {
        std::vector<int32_t> v(kNumElements);
        Prng rng(7);
        for (auto &x : v)
            x = static_cast<int32_t>(rng.next());
        return v;
    }();
    return column;
}

/** GEMV column sweep: per column a full-object H2D copy into one
 *  staging buffer feeding a scaled-add accumulation. Unfused, every
 *  copy is a flush barrier; fused, the copies become tape loads, the
 *  staging stores are WAW-elided, and the window runs as one sweep.
 *  Column snapshots are captured at issue and all live until the
 *  window flushes, so the sweep width bounds the snapshot working
 *  set (cols x 4 MiB here) — size it to stay LLC-resident or the
 *  tape re-reads every snapshot from DRAM. */
void
gemvChain(const Operands &o, unsigned cols)
{
    const PimObjId col =
        pimAllocAssociated(32, o.a, PimDataType::PIM_INT32);
    pimBroadcastInt(o.d, 0);
    for (unsigned j = 0; j < cols; ++j) {
        pimCopyHostToDevice(hostColumn().data(), col);
        pimScaledAdd(col, o.d, o.d, j + 1);
    }
    pimFree(col);
    pimSync();
}

/** GEMM as batched GEMV: two output-column sweeps back to back over
 *  the shared staging buffer (the apps' batched formulation). */
void
gemmChain(const Operands &o)
{
    const PimObjId col =
        pimAllocAssociated(32, o.a, PimDataType::PIM_INT32);
    for (unsigned jc = 0; jc < 2; ++jc) {
        pimBroadcastInt(o.d, 0);
        for (unsigned j = 0; j < 4; ++j) {
            pimCopyHostToDevice(hostColumn().data(), col);
            pimScaledAdd(col, o.d, o.d, j + 1);
        }
    }
    pimFree(col);
    pimSync();
}

using CmdBody = std::function<void(const Operands &)>;

/** One timed command: name + a body issuing it once over kNumElements. */
struct CmdSpec
{
    const char *name;
    CmdBody body;
};

const std::vector<CmdSpec> &
commandSpecs()
{
    static const std::vector<CmdSpec> specs = {
        {"add", [](const Operands &o) { pimAdd(o.a, o.b, o.d); }},
        {"sub", [](const Operands &o) { pimSub(o.a, o.b, o.d); }},
        {"mul", [](const Operands &o) { pimMul(o.a, o.b, o.d); }},
        {"min", [](const Operands &o) { pimMin(o.a, o.b, o.d); }},
        {"xor", [](const Operands &o) { pimXor(o.a, o.b, o.d); }},
        {"gt", [](const Operands &o) { pimGT(o.a, o.b, o.d); }},
        {"abs", [](const Operands &o) { pimAbs(o.a, o.d); }},
        {"popcount",
         [](const Operands &o) { pimPopCount(o.a, o.d); }},
        {"addscalar",
         [](const Operands &o) { pimAddScalar(o.a, o.d, 7); }},
        {"scaledadd",
         [](const Operands &o) { pimScaledAdd(o.a, o.b, o.d, 3); }},
        {"shiftbitsleft",
         [](const Operands &o) { pimShiftBitsLeft(o.a, o.d, 2); }},
        {"broadcast",
         [](const Operands &o) { pimBroadcastInt(o.d, 42); }},
        {"redsum",
         [](const Operands &o) {
             int64_t sum = 0;
             pimRedSum(o.a, &sum);
             benchmark::DoNotOptimize(sum);
         }},
        {"copyh2d",
         [](const Operands &o) {
             static std::vector<int32_t> host(kNumElements, 3);
             pimCopyHostToDevice(host.data(), o.d);
         }},
        {"copyd2h",
         [](const Operands &o) {
             static std::vector<int32_t> host(kNumElements);
             pimCopyDeviceToHost(o.a, host.data());
             benchmark::DoNotOptimize(host.data());
         }},
        // Fusion-chain microbenches: the same dead-temporary chains
        // fused (begin/end region) and unfused, so BENCH_SIM.json
        // tracks the fusion engine's speedup per target. AXPY as
        // mulScalar->add; a linear-regression residual as
        // mulScalar->addScalar->sub.
        {"axpy_chain_unfused",
         [](const Operands &o) { axpyChain(o); }},
        {"axpy_chain_fused",
         [](const Operands &o) {
             pimBeginFusion();
             axpyChain(o);
             pimEndFusion();
         }},
        {"linreg_chain_unfused",
         [](const Operands &o) { linregChain(o); }},
        {"linreg_chain_fused",
         [](const Operands &o) {
             pimBeginFusion();
             linregChain(o);
             pimEndFusion();
         }},
        // Reduction-terminated chain (mul -> redSum = dot product):
        // fused, the product tape step feeds the accumulator directly
        // and the dead temporary is never written.
        {"dot_chain_unfused",
         [](const Operands &o) { dotChain(o); }},
        {"dot_chain_fused",
         [](const Operands &o) {
             pimBeginFusion();
             dotChain(o);
             pimEndFusion();
         }},
        // Copy-aware fusion micros: the GEMV/GEMM copy+compute
        // interleave that unfused pays a window flush per column for.
        {"gemv_chain_unfused",
         [](const Operands &o) { gemvChain(o, 6); }},
        {"gemv_chain_fused",
         [](const Operands &o) {
             pimBeginFusion();
             gemvChain(o, 6);
             pimEndFusion();
         }},
        {"gemm_chain_unfused",
         [](const Operands &o) { gemmChain(o); }},
        {"gemm_chain_fused",
         [](const Operands &o) {
             pimBeginFusion();
             gemmChain(o);
             pimEndFusion();
         }},
    };
    return specs;
}

void
runCommand(benchmark::State &state, PimDeviceEnum device,
           const CmdBody &body)
{
    DeviceGuard guard(device);
    if (!guard.ok()) {
        state.SkipWithError("device creation failed");
        return;
    }
    Operands operands;
    if (!operands.init()) {
        state.SkipWithError("allocation failed");
        return;
    }
    for (auto _ : state)
        body(operands);
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(kNumElements));
    state.counters["simulated_elements"] =
        benchmark::Counter(static_cast<double>(kNumElements));
}

/**
 * Cold-shape costCopy micro: every iteration costs a transfer size
 * the model has never seen, so the cycle backend pays a fresh channel
 * drain each time while the LUT answers from its calibrated table.
 * This is the measured speedup behind making LUT the default (and the
 * CI bench-regression gate: lut must be >= 10x cycle here).
 */
void
runCostCopyCold(benchmark::State &state, PimMemBackend kind)
{
    LogConfig::setThreshold(LogLevel::Error);
    PimDeviceConfig config;
    config.device = PimDeviceEnum::PIM_DEVICE_FULCRUM;
    config.num_ranks = 8;
    config.num_channels = 2;
    config.mem_backend = kind;
    const auto model = PerfEnergyModel::create(config);
    if (!model) {
        state.SkipWithError("model creation failed");
        return;
    }
    // First touch outside the timed loop: LUT calibration (one-time,
    // process-wide) must not count against steady-state lookups.
    benchmark::DoNotOptimize(
        model->costCopy(PimCopyEnum::PIM_COPY_H2D, 64).runtime_sec);

    uint64_t k = 0;
    double acc = 0.0;
    for (auto _ : state) {
        // Distinct per-channel column count each iteration (wraps far
        // beyond any plausible iteration count for the cycle model).
        const uint64_t columns = 1000 + (k++ % 60000);
        const uint64_t bytes = columns * 2 * 64; // 2 channels
        acc += model->costCopy(PimCopyEnum::PIM_COPY_H2D, bytes)
                   .runtime_sec;
    }
    benchmark::DoNotOptimize(acc);
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}

/**
 * Console reporter that additionally captures every run so main() can
 * emit BENCH_SIM.json without depending on --benchmark_out plumbing
 * (which varies across google-benchmark versions).
 */
class CaptureReporter : public benchmark::ConsoleReporter
{
  public:
    void
    ReportRuns(const std::vector<Run> &runs) override
    {
        benchmark::ConsoleReporter::ReportRuns(runs);
        for (const auto &run : runs)
            captured_.push_back(run);
    }

    const std::vector<Run> &captured() const { return captured_; }

  private:
    std::vector<Run> captured_;
};

/**
 * Write the captured runs as a JSON array of
 * {name, command, target, repetition_index, elements_per_second,
 *  real_time_ns, iterations} records, one per repetition
 * (--benchmark_repetitions); google-benchmark's aggregate rows (mean,
 * median, stddev) are left out, so readers compute their own
 * statistics. Schema documented in docs/PERFORMANCE.md.
 */
void
writeJson(std::ostream &os,
          const std::vector<benchmark::BenchmarkReporter::Run> &runs)
{
    os << "{\n  \"bench\": \"sim_throughput\",\n"
       << "  \"elements_per_invocation\": " << kNumElements << ",\n"
       << "  \"results\": [\n";
    bool first = true;
    for (const auto &run : runs) {
        if (run.error_occurred ||
            run.run_type == benchmark::BenchmarkReporter::Run::RT_Aggregate)
            continue;
        // name = "sim_throughput/<command>/<target>"; the full
        // benchmark_name() also carries a "/real_time" suffix.
        const std::string &name = run.run_name.function_name;
        std::string command, target;
        const size_t slash1 = name.find('/');
        if (slash1 != std::string::npos) {
            const size_t slash2 = name.find('/', slash1 + 1);
            if (slash2 != std::string::npos) {
                command = name.substr(slash1 + 1, slash2 - slash1 - 1);
                target = name.substr(slash2 + 1);
            }
        }
        double eps = 0.0;
        const auto it = run.counters.find("items_per_second");
        if (it != run.counters.end())
            eps = static_cast<double>(it->second);
        if (!first)
            os << ",\n";
        first = false;
        os << "    {\"name\": \"" << jsonEscape(name)
           << "\", \"command\": \"" << jsonEscape(command)
           << "\", \"target\": \"" << jsonEscape(target)
           << "\", \"repetition_index\": " << run.repetition_index
           << ", \"elements_per_second\": " << eps
           << ", \"real_time_ns\": " << run.GetAdjustedRealTime()
           << ", \"iterations\": " << run.iterations << "}";
    }
    os << "\n  ]\n}\n";
}

void
registerAll()
{
    for (const auto &target : kTargetSpecs) {
        for (const auto &cmd : commandSpecs()) {
            const std::string name =
                std::string("sim_throughput/") + cmd.name + "/" +
                target.name;
            benchmark::RegisterBenchmark(
                name.c_str(),
                [device = target.device, body = cmd.body](
                    benchmark::State &state) {
                    runCommand(state, device, body);
                })
                ->UseRealTime();
        }
    }
    // Memory-backend costCopy micros (target "model": these time the
    // perf model directly, not a simulated device).
    const struct
    {
        const char *name;
        PimMemBackend kind;
    } backends[] = {
        {"costcopy_cold_cycle", PimMemBackend::PIM_MEM_BACKEND_CYCLE},
        {"costcopy_cold_lut", PimMemBackend::PIM_MEM_BACKEND_LUT},
        {"costcopy_cold_analytical",
         PimMemBackend::PIM_MEM_BACKEND_ANALYTICAL},
    };
    for (const auto &backend : backends) {
        const std::string name = std::string("sim_throughput/") +
            backend.name + "/model";
        benchmark::RegisterBenchmark(
            name.c_str(), [kind = backend.kind](benchmark::State &s) {
                runCostCopyCold(s, kind);
            })
            ->UseRealTime();
    }
}

} // namespace

int
main(int argc, char **argv)
{
    registerAll();
    // Repetitions run in random order across the selected benchmarks,
    // so each fused chain micro and its unfused baseline sample the
    // same host conditions. Run in sequence, the first benchmark of a
    // process started after an idle spell ran ~1.7x slow through all
    // five of its repetitions, enough to trip the 1.3x fused/unfused
    // floor with no code at fault (docs/PERFORMANCE.md). A later
    // --benchmark_enable_random_interleaving=false still wins.
    static char interleave[] = "--benchmark_enable_random_interleaving=true";
    std::vector<char *> args(argv, argv + argc);
    args.insert(args.begin() + 1, interleave);
    int num_args = static_cast<int>(args.size());
    benchmark::Initialize(&num_args, args.data());
    if (benchmark::ReportUnrecognizedArguments(num_args, args.data()))
        return 1;

    const char *env = std::getenv("PIMEVAL_BENCH_SIM_JSON");
    const std::string json_path =
        (env && *env) ? env : "BENCH_SIM.json";
    std::ofstream json_out(json_path);
    if (!json_out) {
        std::cerr << "cannot open " << json_path << " for writing\n";
        return 1;
    }

    CaptureReporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);
    writeJson(json_out, reporter.captured());
    benchmark::Shutdown();
    std::cout << "[json written: " << json_path << "]\n";
    return 0;
}
