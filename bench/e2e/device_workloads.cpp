/**
 * @file
 * Device workloads: the Table I suite split by what dominates host time
 * (table1_cmd, table1_elem) and a DRAM-resident fused GEMV
 * (gemv_large), each run on all three targets from one process.
 *
 * One op is one app run on one target; the timed unit is a pass over
 * every (app, target) pair. Every op is checked twice: the app's own
 * CPU-reference verification (or, for gemv_large, a host GEMV), and its
 * modeled statistics against modeled_golden.json.
 */

#include <array>
#include <fstream>
#include <memory>
#include <sstream>
#include <string_view>

#include "apps/gemv.h"
#include "apps/suite.h"
#include "core/pim_context.h"
#include "core/pim_json.h"
#include "core/pim_profile.h"
#include "e2e.h"
#include "trace.h"
#include "util/prng.h"

namespace e2e {

namespace {

/** Apps whose passes issue ~1.3 M commands per target on small
 *  objects: API dispatch, cost lookup and stats commit dominate. */
const std::vector<std::string> kCmdApps = {
    "AES-Encryption", "AES-Decryption", "VGG-13", "VGG-16",
    "VGG-19",         "GEMM",           "Triangle Count",
};

/**
 * Table I apps with a handful of commands on 2^20-element objects, so
 * kernels, copies and the thread pool dominate. The other Table I apps
 * are left out: on 2^11..2^18-element objects ThreadPool::
 * parallelForChunks can touch its stack-allocated completion mutex
 * after the caller has returned, and GEMV, KNN, K-means, Radix Sort,
 * Histogram, Brightness and Image Downsampling crash the process within
 * minutes under CPU contention (README, "Known seed defects").
 */
const std::vector<std::string> kElemApps = {
    "Vector Addition",
    "AXPY",
    "Filter-By-Key",
    "Linear Regression",
};

/**
 * gemv_large shape: 8 MiB int32 columns, a 256 MiB matrix. Past the
 * per-core L2 and the usable share of a shared L3, so the fused sweep's
 * snapshot copies and tape stream from DRAM.
 */
constexpr uint64_t kGemvRows = 1ull << 21;
constexpr uint64_t kGemvCols = 32;
const std::string kGemvApp = "GEMV-large";

/** Modeled statistics pinned by modeled_golden.json, in kModeledFields
 *  order. host_sec is measured, not modeled, so it is left out. */
constexpr const char *kModeledFields[] = {
    "kernel_sec", "kernel_j",  "copy_sec",  "copy_j",
    "bytes_h2d",  "bytes_d2h", "bytes_d2d", "commands",
};
using Modeled = std::array<double, std::size(kModeledFields)>;
constexpr size_t kCommands = 7;
static_assert(std::string_view(kModeledFields[kCommands]) == "commands");

Modeled
modeledFrom(const pimeval::PimRunStats &s,
            const std::map<std::string, uint64_t> &op_mix)
{
    double commands = 0.0;
    for (const auto &[cmd, count] : op_mix)
        commands += static_cast<double>(count);
    return {s.kernel_sec,
            s.kernel_j,
            s.copy_sec,
            s.copy_j,
            static_cast<double>(s.bytes_h2d),
            static_cast<double>(s.bytes_d2h),
            static_cast<double>(s.bytes_d2d),
            commands};
}

/** Golden entries of one workload, keyed "<app>/<target>". */
std::map<std::string, Modeled>
loadGolden(const std::string &path, const std::string &workload,
           std::string *error)
{
    std::map<std::string, Modeled> golden;
    std::ifstream in(path);
    if (!in) {
        *error = "cannot read " + path;
        return golden;
    }
    std::stringstream text;
    text << in.rdbuf();
    const std::string body = text.str();
    pimeval::JsonValue root;
    pimeval::JsonParser parser(body, error);
    if (!parser.parse(&root))
        return golden;
    const pimeval::JsonValue *all = root.find("workloads");
    const pimeval::JsonValue *entries = all ? all->find(workload) : nullptr;
    if (!entries) {
        *error = path + " has no entries for " + workload;
        return golden;
    }
    for (const auto &[key, value] : entries->object) {
        Modeled &m = golden[key];
        for (size_t i = 0; i < m.size(); ++i) {
            const pimeval::JsonValue *v = value.find(kModeledFields[i]);
            if (!v || v->kind != pimeval::JsonValue::Kind::kNumber) {
                *error = path + ": " + key + " lacks " + kModeledFields[i];
                return {};
            }
            m[i] = v->number;
        }
    }
    return golden;
}

struct OpOutcome
{
    uint64_t wall_ns = 0;
    bool verified = false;
    Modeled modeled{};
};

/** Everything one device workload child holds across its passes. */
struct DeviceRun
{
    std::string kind;
    const RunOptions *opts = nullptr;
    std::vector<std::string> apps;
    std::vector<PimContext> ctx; ///< one per target
    std::vector<std::unique_ptr<pimbench::GemvWorkspace>> ws;
    std::vector<int> matrix, vec, ref; ///< gemv_large inputs
    std::map<std::string, Modeled> golden, observed;
    std::string golden_error;
    /** "apps.<app>.<target>_ms" -> one sample per untraced pass. */
    std::map<std::string, std::vector<double>> app_ms;

    ~DeviceRun()
    {
        for (size_t t = 0; t < ws.size(); ++t) {
            pimeval::PimContextScope scope(ctx[t]);
            ws[t].reset();
        }
        for (PimContext c : ctx)
            pimDestroyContext(c);
    }
};

OpOutcome
runOp(DeviceRun &run, size_t target, const std::string &app)
{
    OpOutcome o;
    if (run.kind == "gemv_large") {
        pimResetStats();
        const uint64_t t0 = nowNs();
        const std::vector<int> y = pimbench::pimGemvColumnSweep(
            *run.ws[target], run.matrix, run.vec, kGemvRows, kGemvCols);
        o.wall_ns = nowNs() - t0;
        o.verified = y == run.ref;
        o.modeled = modeledFrom(pimGetStats(), pimGetOpMix());
        return o;
    }
    const uint64_t t0 = nowNs();
    const pimbench::AppResult r =
        pimbench::runBenchmarkByName(app, pimbench::SuiteScale::kSmall);
    o.wall_ns = nowNs() - t0;
    o.verified = r.verified;
    o.modeled = modeledFrom(r.stats, r.features.op_mix);
    return o;
}

/** Count the op and check it against its reference and the golden. */
void
checkOp(DeviceRun &run, const std::string &key, const OpOutcome &o,
        Report &rep)
{
    ++rep.attempted;
    if (!o.verified) {
        rep.fail(run.kind + " " + key + ": output differs from the CPU "
                 "reference");
        return;
    }
    if (run.opts->write_golden) {
        const auto [it, fresh] = run.observed.emplace(key, o.modeled);
        if (!fresh && it->second != o.modeled)
            rep.fail(run.kind + " " + key +
                     ": modeled stats differ between passes");
        return;
    }
    const auto it = run.golden.find(key);
    if (it == run.golden.end()) {
        rep.fail(run.kind + " " + key + ": no golden entry" +
                 (run.golden_error.empty() ? ""
                                           : " (" + run.golden_error + ")"));
        return;
    }
    for (size_t i = 0; i < o.modeled.size(); ++i) {
        if (o.modeled[i] != it->second[i]) {
            rep.fail(run.kind + " " + key + ": modeled " +
                     kModeledFields[i] + " " + exact(o.modeled[i]) +
                     " != golden " + exact(it->second[i]));
            return;
        }
    }
}

struct PassOutcome
{
    double wall_ms = 0.0;
    uint64_t op_ns = 0;    ///< summed app wall time
    double commands = 0.0; ///< simulated commands
};

PassOutcome
runPass(DeviceRun &run, const std::string &req, Report &rep,
        SpanTrace &trace, bool record_apps)
{
    PassOutcome p;
    const uint64_t t0 = nowNs();
    SpanScope pass(trace, "pass", req);
    const std::vector<std::string> gemv_only = {kGemvApp};
    const std::vector<std::string> &apps =
        run.apps.empty() ? gemv_only : run.apps;
    for (size_t t = 0; t < targets().size(); ++t) {
        const std::string target = targets()[t].name;
        pimeval::PimContextScope scope(run.ctx[t]);
        SpanScope tspan(trace, ("target." + target).c_str(),
                        req + "/" + target, pass.id());
        for (const std::string &app : apps) {
            const std::string key = app + "/" + target;
            OpOutcome o;
            {
                SpanScope aspan(trace, app.c_str(), req + "/" + key,
                                tspan.id());
                o = runOp(run, t, app);
            }
            checkOp(run, key, o, rep);
            p.op_ns += o.wall_ns;
            p.commands += o.modeled[kCommands];
            if (record_apps)
                run.app_ms["apps." + slug(app) + "." + target + "_ms"]
                    .push_back(static_cast<double>(o.wall_ns) / 1e6);
        }
    }
    p.wall_ms = static_cast<double>(nowNs() - t0) / 1e6;
    return p;
}

/** Host-side set-up of gemv_large: seeded inputs, the host reference,
 *  and a fused column-sweep workspace per target. */
bool
setupGemv(DeviceRun &run, Report &rep)
{
    // Only the matrix follows the seed: the bit-serial scaled-add cost
    // depends on the scalar's bits, so a fixed vector keeps the modeled
    // statistics seed-independent.
    pimeval::Prng rng(run.opts->seed * 0x9e3779b97f4a7c15ull + 11);
    run.matrix = rng.intVector(kGemvRows * kGemvCols, -1000, 1000);
    run.vec = pimeval::Prng(11).intVector(kGemvCols, -1000, 1000);
    std::vector<int64_t> acc(kGemvRows, 0);
    for (uint64_t j = 0; j < kGemvCols; ++j) {
        const int *col = run.matrix.data() + j * kGemvRows;
        for (uint64_t i = 0; i < kGemvRows; ++i)
            acc[i] += static_cast<int64_t>(col[i]) * run.vec[j];
    }
    run.ref.assign(acc.begin(), acc.end());
    for (size_t t = 0; t < targets().size(); ++t) {
        pimeval::PimContextScope scope(run.ctx[t]);
        // The fused copy->scaledAdd sweep is what this workload
        // measures; with the toggle off GEMV issues 2 commands/column.
        pimSetFusionEnabled(true);
        run.ws.push_back(
            std::make_unique<pimbench::GemvWorkspace>(kGemvRows));
        if (!run.ws.back()->ok()) {
            rep.fail("gemv_large: workspace allocation failed on " +
                     std::string(targets()[t].name));
            return false;
        }
    }
    return true;
}

/** Profiler phase totals of the last traced pass, by phase name. */
void
addPhases(std::map<std::string, std::vector<double>> &phase_ms)
{
    std::map<std::string, double> pass;
    for (const char *name : {"setup", "h2d", "compute", "d2h"})
        pass[name] = 0.0;
    for (const auto &p : pimProfileSnapshot().phases) {
        const auto it = pass.find(p.name);
        if (it != pass.end())
            it->second += static_cast<double>(p.host_ns_total) / 1e6;
    }
    for (const auto &[name, ms] : pass)
        phase_ms["phase." + name + "_ms"].push_back(ms);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

} // namespace

Report
runDeviceWorkload(const std::string &kind, const RunOptions &opts,
                  SpanTrace &trace)
{
    Report rep;
    DeviceRun run;
    run.kind = kind;
    run.opts = &opts;
    if (kind == "table1_cmd")
        run.apps = kCmdApps;
    else if (kind == "table1_elem")
        run.apps = kElemApps;
    if (!opts.write_golden)
        run.golden = loadGolden(kGoldenPath, kind, &run.golden_error);

    // Table II device, 32 ranks, seed defaults (sync, LUT backend,
    // global fusion toggle off; apps open their own fusion regions).
    for (const TargetDesc &t : targets()) {
        pimeval::PimDeviceConfig config;
        config.device = static_cast<PimDeviceEnum>(t.device);
        config.num_ranks = 32;
        const PimContext ctx = pimCreateContextFromConfig(config, t.name);
        if (!ctx) {
            rep.fail(std::string("context creation failed on ") + t.name);
            return rep;
        }
        run.ctx.push_back(ctx);
    }
    if (kind == "gemv_large" && !setupGemv(run, rep))
        return rep;

    // Warm-up pass: fills cost-model caches, free lists and the LUT.
    runPass(run, "warmup", rep, trace, false);
    rep.ready_ns = nowNs();
    HostSpeed speed;
    rep.setup_scale = speed.scaleNow(kSetupCalibrations);
    if (opts.setup_only)
        return rep;

    const auto before = metricSnapshot();
    std::vector<double> untraced_ms, traced_ms;
    std::map<std::string, std::vector<double>> phase_ms;
    uint64_t op_ns = 0;
    double commands = 0.0;
    // Traced runs need untraced and traced passes to compare.
    const size_t min_passes =
        (opts.quick ? 1 : 3) + (opts.traced ? 1 : 0);
    const uint64_t budget_ns = static_cast<uint64_t>(opts.seconds * 1e9);
    const uint64_t start = nowNs();
    for (size_t i = 0;; ++i) {
        if (i >= min_passes &&
            (opts.quick || nowNs() - start >= budget_ns))
            break;
        // Traced runs alternate untraced and traced passes, so the
        // overhead compares passes under the same host conditions.
        const bool traced = opts.traced && i % 2 == 1;
        if (traced) {
            trace.setEnabled(true);
            pimeval::PimProfiler::instance().start("");
        }
        const PassOutcome p =
            runPass(run, std::string("p").append(std::to_string(i)), rep,
                    trace, !traced);
        if (traced) {
            trace.setEnabled(false);
            addPhases(phase_ms);
            pimeval::PimProfiler::instance().stop();
            traced_ms.push_back(p.wall_ms);
        } else {
            untraced_ms.push_back(p.wall_ms);
            op_ns += p.op_ns;
            commands += p.commands;
        }
        speed.sample();
    }
    const auto after = metricSnapshot();

    double pass_ms_sum = 0.0;
    for (const double ms : untraced_ms)
        pass_ms_sum += ms;
    rep.e2e["latency_ms"] = speed.normalise(
        pass_ms_sum / static_cast<double>(untraced_ms.size()));
    rep.info["pass_p50_ms"] = median(untraced_ms);
    rep.info["calibration_ms"] = speed.medianMs();
    for (const auto &[name, samples] : run.app_ms)
        rep.info[name] = median(samples);
    for (const auto &[name, samples] : phase_ms)
        rep.info[name] = median(samples);
    rep.info["passes"] = static_cast<double>(untraced_ms.size());

    // Per-layer view: costs per simulated command and counters per op
    // (one op = one pass here).
    const double passes =
        static_cast<double>(untraced_ms.size() + traced_ms.size());
    auto &layer = rep.layer;
    addLayerCounters(rep, before, after, passes);
    layer["op_p99_ms"] = percentile(untraced_ms, 0.99);
    layer["host_ns_per_cmd"] = ratio(static_cast<double>(op_ns), commands);
    layer["cmds_per_op"] =
        ratio(commands, static_cast<double>(untraced_ms.size()));
    if (opts.traced) {
        layer["trace_overhead_frac"] =
            median(traced_ms) / median(untraced_ms) - 1.0;
        if (!trace.writeChrome(
                opts.trace_path, kind,
                traceOtherData(trace, static_cast<double>(traced_ms.size()),
                               before, after, layer)))
            rep.fail("cannot write " + opts.trace_path);
    }

    if (opts.write_golden) {
        for (auto &[key, m] : run.observed)
            for (size_t i = 0; i < m.size(); ++i)
                rep.golden[key][kModeledFields[i]] = m[i];
    }
    return rep;
}

} // namespace e2e
