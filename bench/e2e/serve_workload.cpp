/**
 * @file
 * serve: bursts of mixed jobs against a one-worker PimServer.
 *
 * Each op of the run is one job of a burst. The driving thread pauses
 * the server, submits a burst, releases it, and waits for it to drain:
 *   tenant "bulk":        2,048 batchable kVecScaledAdd jobs, n = 64
 *                         (128 full 16-job batches)
 *   tenant "interactive": 16 kInteractive kGemv jobs, 1024 x 16, one
 *                         after every 128 bulk jobs
 * A job's latency runs from the release to its completion, so it is the
 * worker's queueing, coalescing and execution in a schedule that is the
 * same every burst, not the submitting thread's timing. (Jobs arriving
 * on a clock, or refilled by a thread that sleeps, moved these
 * microsecond medians by 20% or more between runs on a virtualised
 * host; a thread waiting job by job costs the worker a futex wake per
 * batch.) Both tenants
 * share the worker; weighted
 * fair queuing (interactive weight 16) interleaves the GEMVs with the
 * bulk batches, so a change to batching or queuing moves both classes'
 * latency. Operands come from kSets seeded sets per kind, and every
 * output is compared with a host reference.
 *
 * Every object stays below the thread pool's 2,048-element dispatch
 * threshold (16 x 64 for a full bulk batch), so no served job takes
 * the ThreadPool::parallelForChunks path (see kElemApps in
 * device_workloads.cpp).
 */

#include <algorithm>
#include <cmath>
#include <memory>

#include "core/pim_api.h"
#include "core/pim_context.h"
#include "core/pim_profile.h"
#include "e2e.h"
#include "serve/pim_serve.h"
#include "trace.h"
#include "util/prng.h"

namespace e2e {

namespace {

using pimeval::PimJobDeadline;
using pimeval::PimJobHandle;
using pimeval::PimJobKind;
using pimeval::PimJobSpec;
using pimeval::PimJobState;

constexpr size_t kBurstBulk = 2048;
constexpr size_t kBurstInteractive = 16;
/** ~0.1 s of warm-up work, part of set-up. */
constexpr size_t kWarmupBursts = 32;
constexpr double kSegmentSec = 1.0;
/** Host-speed samples are taken between bursts this often. */
constexpr uint64_t kCalibrationEveryNs = 1000000000;
constexpr size_t kSets = 8;
constexpr uint64_t kBulkN = 64;
constexpr uint64_t kGemvN = 1024;
constexpr uint64_t kGemvCols = 16;

/** One job kind per class: a class mixing kinds with different service
 *  times has a bimodal latency whose median sits between the modes. */
enum Kind : uint8_t { kBulk, kGemv, kNumKinds };
const char *const kKindNames[kNumKinds] = {"bulk_scaled_add", "gemv"};
const char *const kClassNames[kNumKinds] = {"bulk", "interactive"};
/**
 * The class whose latency is the workload's end-to-end latency. The
 * median interactive job waits for ~8 GEMVs and the ~8 bulk batches fair
 * queuing puts between them, so it moves with batching, queuing and
 * execution alike, while bulk latency does not show a change that
 * delays interactive jobs.
 */
constexpr Kind kGated = kGemv;
/** Latency samples kept per class per 1 s segment; traced segments keep
 *  spans for every kSpanEvery-th job of a class. */
constexpr size_t kReservoir = 16384;
constexpr uint64_t kSpanEvery[kNumKinds] = {4096, 64};

/** One seeded operand set with its host reference result. */
struct OperandSet
{
    std::vector<int32_t> a, b;
    PimJobSpec spec;
    std::vector<int32_t> ref;
};

/** Wraparound int32 arithmetic, as the device computes it. */
int32_t
wrap(int64_t v)
{
    return static_cast<int32_t>(static_cast<uint32_t>(v));
}

OperandSet
makeSet(Kind kind, pimeval::Prng &rng)
{
    OperandSet s;
    PimJobSpec &spec = s.spec;
    const auto vec = [&](uint64_t n) {
        std::vector<int32_t> v(n);
        for (auto &x : v)
            x = static_cast<int32_t>(rng.nextInt(-1000, 1000));
        return v;
    };
    if (kind == kBulk) {
        s.a = vec(kBulkN);
        s.b = vec(kBulkN);
        const int64_t k = rng.nextInt(-8, 8);
        spec.kind = PimJobKind::kVecScaledAdd;
        spec.n = kBulkN;
        spec.scalar = static_cast<uint64_t>(k);
        spec.tenant = kClassNames[0];
        spec.deadline = PimJobDeadline::kBatchable;
        for (uint64_t i = 0; i < kBulkN; ++i)
            s.ref.push_back(wrap(s.a[i] * k + s.b[i]));
    } else {
        s.a = vec(kGemvN * kGemvCols); // column-major
        s.b = vec(kGemvCols);
        spec.kind = PimJobKind::kGemv;
        spec.n = kGemvN;
        spec.cols = kGemvCols;
        spec.tenant = kClassNames[1];
        spec.deadline = PimJobDeadline::kInteractive;
        for (uint64_t i = 0; i < kGemvN; ++i) {
            int32_t acc = 0;
            for (uint64_t j = 0; j < kGemvCols; ++j)
                acc = wrap(acc +
                           static_cast<int64_t>(wrap(
                               static_cast<int64_t>(s.a[j * kGemvN + i]) *
                               s.b[j])));
            s.ref.push_back(acc);
        }
    }
    return s;
}

/**
 * A uniform random sample of at most a fixed number of values (Vitter's
 * algorithm R). Its storage is allocated and touched up front, so the
 * benchmark's own memory does not grow with throughput: peak RSS is a
 * gated metric.
 */
class Reservoir
{
  public:
    explicit Reservoir(size_t capacity) : values_(capacity, 0.0) {}

    void add(double v, pimeval::Prng &rng)
    {
        const uint64_t slot = seen_ < values_.size()
            ? seen_
            : rng.next() % (seen_ + 1);
        if (slot < values_.size())
            values_[slot] = v;
        ++seen_;
    }

    std::vector<double> values() const
    {
        const size_t n = std::min<uint64_t>(seen_, values_.size());
        return {values_.begin(), values_.begin() + static_cast<long>(n)};
    }

  private:
    std::vector<double> values_;
    uint64_t seen_ = 0;
};

/** One job of a burst. */
struct Slot
{
    PimJobHandle handle;
    uint64_t submit_ns = 0;
    uint64_t seq = 0;
    uint64_t class_seq = 0; ///< index among its class's jobs
    Kind kind = kBulk;
    uint8_t set = 0;
};

bool
outputMatches(const OperandSet &s, const PimJobHandle &h)
{
    return h.output().values == s.ref;
}

} // namespace

pimeval::PimServeConfig
serveMixConfig()
{
    pimeval::PimServeConfig config;
    // bench_serving's small Fulcrum device: job service time is
    // per-command overhead, not element work.
    config.device.device = PimDeviceEnum::PIM_DEVICE_FULCRUM;
    config.device.num_ranks = 1;
    config.device.num_banks_per_rank = 4;
    config.device.num_subarrays_per_bank = 4;
    config.device.num_rows_per_subarray = 256;
    config.device.num_cols_per_row = 256;
    config.num_workers = 1; // both tenants share it
    config.max_batch = 16;
    config.batching = true;
    config.tenant_queue_cap = 4096;
    config.fusion = 0;
    config.label_prefix = "e2e";
    return config;
}

Report
runServeMix(const RunOptions &opts, SpanTrace &trace)
{
    Report rep;
    pimeval::Prng rng(opts.seed * 0x9e3779b97f4a7c15ull + 29);
    std::vector<OperandSet> sets[kNumKinds];
    for (int k = 0; k < kNumKinds; ++k) {
        for (size_t i = 0; i < kSets; ++i)
            sets[k].push_back(makeSet(static_cast<Kind>(k), rng));
        for (OperandSet &s : sets[k]) {
            s.spec.a = s.a.data();
            s.spec.b = s.b.data();
        }
    }

    const auto before = metricSnapshot();
    std::unique_ptr<pimeval::PimServer> server =
        pimeval::PimServer::create(serveMixConfig());
    if (!server) {
        rep.fail("serve: server creation failed");
        return rep;
    }
    // Fair queuing charges a job its element count; weight 16 makes one
    // 1024 x 16 GEMV cost what one full 16 x 64 bulk batch does.
    server->setTenantWeight(kClassNames[kGemv], 16.0);

    // A quick window still holds an untraced and a traced segment.
    const double window = opts.quick ? 2.0 : opts.seconds;
    const uint64_t seg_ns = static_cast<uint64_t>(kSegmentSec * 1e9);
    // Traced runs trace odd segments; -1 marks warm-up bursts.
    const auto tracedSegment = [&](int seg) {
        return opts.traced && seg >= 0 && seg % 2 == 1;
    };

    /** Latencies (ms) per class and segment. */
    const size_t segments =
        static_cast<size_t>(std::ceil(window / kSegmentSec));
    std::vector<Reservoir> lat[kNumKinds];
    for (auto &per_class : lat)
        per_class.assign(segments, Reservoir(kReservoir));
    /** Per class: this burst's latencies, and the sum and count of the
     *  untraced bursts' medians (a burst's median is one sample of the
     *  class latency; a job's odd timestamp cannot move it). */
    std::vector<double> burst_lat[kNumKinds];
    double burst_p50_sum[kNumKinds] = {};
    double burst_p50_n[kNumKinds] = {};
    burst_lat[kBulk].reserve(kBurstBulk);
    burst_lat[kGemv].reserve(kBurstInteractive);
    Reservoir queue_us(4 * kReservoir), exec_us(4 * kReservoir);
    pimeval::Prng sample_rng(opts.seed + 101);
    double jobs[kNumKinds] = {};
    double batch_sum = 0.0, bulk_jobs = 0.0;
    uint64_t jobs_spanned = 0, next_seq = 0, bursts = 0;
    uint64_t class_jobs[kNumKinds] = {};
    std::vector<Slot> burst(kBurstBulk + kBurstInteractive);
    // One interactive job after every kStride - 1 bulk jobs.
    constexpr size_t kStride = kBurstBulk / kBurstInteractive + 1;

    const auto finish = [&](Slot &s, PimJobState state, int seg,
                            uint64_t release_ns) {
        ++rep.attempted;
        const std::string what = std::string("serve ") +
            kKindNames[s.kind] + " job " + std::to_string(s.seq);
        if (state != PimJobState::kDone) {
            rep.fail(what + " ended in state " +
                     std::to_string(static_cast<int>(state)) + ": " +
                     s.handle.error());
            return;
        }
        if (!outputMatches(sets[s.kind][s.set], s.handle)) {
            rep.fail(what + ": output differs from the host reference");
            return;
        }
        if (seg < 0)
            return;
        const int c = s.kind;
        const uint64_t done_ns = s.submit_ns + s.handle.latencyNs();
        const uint64_t dispatch_ns =
            std::max(s.submit_ns + s.handle.queueNs(), release_ns);
        const double ms = static_cast<double>(done_ns - release_ns) / 1e6;
        jobs[c] += 1.0;
        lat[c][static_cast<size_t>(seg)].add(ms, sample_rng);
        if (!tracedSegment(seg)) {
            burst_lat[c].push_back(ms);
            queue_us.add(static_cast<double>(dispatch_ns - release_ns) / 1e3,
                         sample_rng);
            exec_us.add(static_cast<double>(done_ns - dispatch_ns) / 1e3,
                        sample_rng);
            if (s.kind == kBulk) {
                batch_sum += static_cast<double>(s.handle.batchSize());
                bulk_jobs += 1.0;
            }
        } else if (s.class_seq % kSpanEvery[c] == 0) {
            ++jobs_spanned;
            const std::string req = "job" + std::to_string(s.seq);
            const int job = trace.add(kKindNames[s.kind], req, -1,
                                      release_ns, done_ns, c);
            trace.add("queue", req, job, release_ns, dispatch_ns, c);
            trace.add("exec", req, job, dispatch_ns, done_ns, c);
        }
    };
    const auto runBurst = [&](int seg) {
        server->pause();
        for (size_t i = 0; i < burst.size(); ++i) {
            Slot &s = burst[i];
            s.kind = i % kStride == kStride - 1 ? kGemv : kBulk;
            s.set = static_cast<uint8_t>(rng.next() % kSets);
            s.seq = next_seq++;
            s.class_seq = class_jobs[s.kind]++;
            s.submit_ns = nowNs();
            s.handle = server->submit(sets[s.kind][s.set].spec);
        }
        const uint64_t release_ns = nowNs();
        server->resume();
        if (tracedSegment(seg))
            trace.add("submit_burst", "burst" + std::to_string(bursts), -1,
                      burst.front().submit_ns, release_ns, kNumKinds);
        ++bursts;
        server->drain();
        for (Slot &s : burst)
            finish(s, s.handle.poll(), seg, release_ns);
        for (int c = 0; c < kNumKinds; ++c) {
            if (burst_lat[c].empty())
                continue;
            burst_p50_sum[c] += median(burst_lat[c]);
            burst_p50_n[c] += 1.0;
            burst_lat[c].clear();
        }
    };

    // Set-up ends after a fixed amount of warm-up work, so set-up time
    // measures work, not a wall-clock allowance.
    for (size_t i = 0; i < kWarmupBursts; ++i)
        runBurst(-1);
    rep.ready_ns = nowNs();
    HostSpeed speed;
    rep.setup_scale = speed.scaleNow(kSetupCalibrations);
    if (opts.setup_only)
        return rep;

    const uint64_t t_start = nowNs();
    const uint64_t t_end = t_start + static_cast<uint64_t>(window * 1e9);
    int traced_seg = -1;
    uint64_t next_sample_ns = t_start + kCalibrationEveryNs;
    for (uint64_t now = t_start; now < t_end; now = nowNs()) {
        if (now >= next_sample_ns) {
            speed.sample();
            next_sample_ns += kCalibrationEveryNs;
        }
        const int seg = static_cast<int>((now - t_start) / seg_ns);
        // Traced segments also run the phase profiler.
        const int want = tracedSegment(seg) ? seg : -1;
        if (want != traced_seg) {
            if (want >= 0)
                pimeval::PimProfiler::instance().start("");
            else
                pimeval::PimProfiler::instance().stop();
            traced_seg = want;
        }
        runBurst(seg);
    }
    if (traced_seg >= 0)
        pimeval::PimProfiler::instance().stop();

    // Commands and busy time since the server started (set-up and
    // warm-up included): read only once the workers are idle.
    double commands = 0.0;
    for (const char *tenant : kClassNames) {
        pimeval::PimContextScope scope(server->tenantContext(tenant));
        for (const auto &[cmd, count] : pimGetOpMix())
            commands += static_cast<double>(count);
    }
    const pimeval::PimServeStats stats = server->stats();
    server.reset();
    const auto after = metricSnapshot();

    for (int c = 0; c < kNumKinds; ++c) {
        const std::string p = kClassNames[c];
        std::vector<double> untraced, seg_traced, seg_untraced;
        for (size_t seg = 0; seg < segments; ++seg) {
            const std::vector<double> v = lat[c][seg].values();
            if (v.empty())
                continue;
            if (tracedSegment(static_cast<int>(seg))) {
                seg_traced.push_back(median(v));
                continue;
            }
            seg_untraced.push_back(median(v));
            untraced.insert(untraced.end(), v.begin(), v.end());
        }
        const double latency_ms = speed.normalise(
            burst_p50_n[c] > 0 ? burst_p50_sum[c] / burst_p50_n[c] : 0.0);
        rep.info[p + "_latency_ms"] = latency_ms;
        rep.info[p + "_p50_ms"] = median(untraced);
        rep.info[p + "_p99_ms"] = percentile(untraced, 0.99);
        rep.info[p + "_p999_ms"] = percentile(untraced, 0.999);
        rep.info[p + "_jobs_per_s"] = jobs[c] / window;
        if (c != kGated)
            continue;
        rep.e2e["latency_ms"] = latency_ms;
        rep.layer["op_p99_ms"] = percentile(untraced, 0.99);
        if (opts.traced)
            rep.layer["trace_overhead_frac"] =
                median(seg_traced) / median(seg_untraced) - 1.0;
    }
    rep.info["serve.queue_p50_us"] = median(queue_us.values());
    rep.info["serve.queue_p99_us"] = percentile(queue_us.values(), 0.99);
    rep.info["serve.exec_p50_us"] = median(exec_us.values());
    rep.info["serve.mean_batch"] = bulk_jobs > 0 ? batch_sum / bulk_jobs : 0.0;
    rep.info["serve.rejected"] = static_cast<double>(stats.rejected);
    rep.info["calibration_ms"] = speed.medianMs();

    addLayerCounters(rep, before, after, static_cast<double>(stats.completed));
    rep.layer["cmds_per_op"] =
        stats.completed ? commands / static_cast<double>(stats.completed)
                        : 0.0;
    rep.layer["host_ns_per_cmd"] = commands > 0
        ? counterDelta(before, after, "serve.exec_ns.sum") / commands
        : 0.0;

    if (opts.traced &&
        !trace.writeChrome(opts.trace_path, "serve",
                           traceOtherData(trace,
                                          static_cast<double>(jobs_spanned),
                                          before, after, rep.layer)))
        rep.fail("cannot write " + opts.trace_path);
    return rep;
}

} // namespace e2e
