/**
 * @file
 * Layer probes: each layer timed in isolation through its public
 * functions, in the spirit of PrIM's per-layer characterisation before
 * whole-workload timing. They run in their own child process during a
 * traced run, so their allocations and caches never touch a workload.
 *
 *  - core:    API dispatch per call on 256-element Fulcrum objects
 *  - fusion:  capture cost per op, flush (tape) cost per element-op,
 *             on L3-resident (2^20) and DRAM-resident (2^22) objects
 *  - kernels: add/mul per element on 2^20-element objects, per target
 *  - dram:    LUT lookup, LUT calibration, cold cycle-model transfer
 *  - serve:   submit, queueing, execution and batching at saturation
 */

#include <algorithm>
#include <cmath>
#include <numeric>

#include "core/pim_api.h"
#include "core/pim_context.h"
#include "dram/mem_timing_backend.h"
#include "e2e.h"
#include "serve/pim_serve.h"
#include "util/prng.h"

namespace e2e {

namespace {

/** Median over @p batches of the mean ns per call of @p per_batch
 *  calls, after one untimed batch. */
template <typename Body>
double
nsPerCall(int batches, int per_batch, Body &&body)
{
    for (int i = 0; i < per_batch; ++i)
        body();
    std::vector<double> samples;
    for (int b = 0; b < batches; ++b) {
        const uint64_t t0 = nowNs();
        for (int i = 0; i < per_batch; ++i)
            body();
        samples.push_back(static_cast<double>(nowNs() - t0) / per_batch);
    }
    return median(samples);
}

PimContext
makeContext(int device, const char *label)
{
    pimeval::PimDeviceConfig config;
    config.device = static_cast<PimDeviceEnum>(device);
    config.num_ranks = 32;
    return pimCreateContextFromConfig(config, label);
}

std::vector<int>
hostVector(pimeval::Prng &rng, uint64_t n)
{
    return rng.intVector(n, -1000, 1000);
}

/** API dispatch: 10k calls of each entry point on 256 elements. */
void
probeCore(Report &rep, pimeval::Prng &rng)
{
    const int fulcrum = targets()[1].device;
    const PimContext ctx = makeContext(fulcrum, "probe.core");
    if (!ctx) {
        rep.fail("probe: context creation failed");
        return;
    }
    {
        pimeval::PimContextScope scope(ctx);
        constexpr uint64_t n = 256;
        const std::vector<int> x = hostVector(rng, n),
                               y = hostVector(rng, n);
        std::vector<int> out(n);
        const PimObjId a = pimAlloc(PimAllocEnum::PIM_ALLOC_AUTO, n, 32,
                                    PimDataType::PIM_INT32);
        const PimObjId b =
            pimAllocAssociated(32, a, PimDataType::PIM_INT32);
        const PimObjId d =
            pimAllocAssociated(32, a, PimDataType::PIM_INT32);
        pimCopyHostToDevice(y.data(), b);
        int64_t sum = 0;
        constexpr int kBatches = 100, kPerBatch = 100;
        auto &layer = rep.layer;
        layer["core.alloc_free_ns"] = nsPerCall(kBatches, kPerBatch, [&] {
            pimFree(pimAlloc(PimAllocEnum::PIM_ALLOC_AUTO, n, 32,
                             PimDataType::PIM_INT32));
        });
        layer["core.h2d_ns"] = nsPerCall(kBatches, kPerBatch, [&] {
            pimCopyHostToDevice(x.data(), a);
        });
        layer["core.add_ns"] = nsPerCall(kBatches, kPerBatch,
                                         [&] { pimAdd(a, b, d); });
        layer["core.d2h_ns"] = nsPerCall(kBatches, kPerBatch, [&] {
            pimCopyDeviceToHost(d, out.data());
        });
        for (uint64_t i = 0; i < n; ++i)
            if (out[i] != x[i] + y[i]) {
                rep.fail("probe: pimAdd result differs from host");
                break;
            }
        layer["core.scalar_op_ns"] = nsPerCall(
            kBatches, kPerBatch, [&] { pimMulScalar(a, d, 3); });
        layer["core.redsum_ns"] = nsPerCall(
            kBatches, kPerBatch, [&] { pimRedSum(a, &sum); });
        if (sum != std::accumulate(x.begin(), x.end(), int64_t{0}))
            rep.fail("probe: pimRedSum result differs from host");
        rep.attempted += 6;
        pimFree(a);
        pimFree(b);
        pimFree(d);
    }
    pimDestroyContext(ctx);
}

/**
 * Fusion: a 3-op chain d = (a*b + c) - b with two temporaries that die
 * inside the region, so the flush runs one tape sweep and elides both.
 * Capture = issuing the ops and frees; flush = pimEndFusion.
 */
void
probeFusion(Report &rep, pimeval::Prng &rng, uint64_t n, int reps,
            const char *flush_metric)
{
    const PimContext ctx = makeContext(targets()[1].device, "probe.fusion");
    if (!ctx) {
        rep.fail("probe: context creation failed");
        return;
    }
    {
        pimeval::PimContextScope scope(ctx);
        const std::vector<int> x = hostVector(rng, n),
                               y = hostVector(rng, n),
                               z = hostVector(rng, n);
        const PimObjId a = pimAlloc(PimAllocEnum::PIM_ALLOC_AUTO, n, 32,
                                    PimDataType::PIM_INT32);
        const PimObjId b =
            pimAllocAssociated(32, a, PimDataType::PIM_INT32);
        const PimObjId c =
            pimAllocAssociated(32, a, PimDataType::PIM_INT32);
        const PimObjId d =
            pimAllocAssociated(32, a, PimDataType::PIM_INT32);
        pimCopyHostToDevice(x.data(), a);
        pimCopyHostToDevice(y.data(), b);
        pimCopyHostToDevice(z.data(), c);
        constexpr int kOps = 3;
        std::vector<double> capture, flush;
        for (int r = 0; r <= reps; ++r) {
            const PimObjId t0 =
                pimAllocAssociated(32, a, PimDataType::PIM_INT32);
            const PimObjId t1 =
                pimAllocAssociated(32, a, PimDataType::PIM_INT32);
            pimBeginFusion();
            const uint64_t s0 = nowNs();
            pimMul(a, b, t0);
            pimAdd(t0, c, t1);
            pimSub(t1, b, d);
            pimFree(t0);
            pimFree(t1);
            const uint64_t s1 = nowNs();
            pimEndFusion();
            const uint64_t s2 = nowNs();
            if (r == 0)
                continue; // warm-up
            capture.push_back(static_cast<double>(s1 - s0) / kOps);
            flush.push_back(static_cast<double>(s2 - s1) /
                            static_cast<double>(n * kOps));
        }
        std::vector<int> out(n);
        pimCopyDeviceToHost(d, out.data());
        for (uint64_t i = 0; i < n; ++i)
            if (out[i] != x[i] * y[i] + z[i] - y[i]) {
                rep.fail("probe: fused chain result differs from host");
                break;
            }
        ++rep.attempted;
        if (n <= (1u << 20))
            rep.layer["fusion.capture_ns_per_op"] = median(capture);
        rep.layer[flush_metric] = median(flush);
        for (const PimObjId id : {a, b, c, d})
            pimFree(id);
    }
    pimDestroyContext(ctx);
}

/** Kernels: unfused add and mul per element on each target. */
void
probeKernels(Report &rep, pimeval::Prng &rng)
{
    constexpr uint64_t n = 1u << 20;
    const std::vector<int> x = hostVector(rng, n), y = hostVector(rng, n);
    for (const TargetDesc &t : targets()) {
        const PimContext ctx = makeContext(t.device, "probe.kernel");
        if (!ctx) {
            rep.fail("probe: context creation failed");
            return;
        }
        {
            pimeval::PimContextScope scope(ctx);
            const PimObjId a = pimAlloc(PimAllocEnum::PIM_ALLOC_AUTO, n,
                                        32, PimDataType::PIM_INT32);
            const PimObjId b =
                pimAllocAssociated(32, a, PimDataType::PIM_INT32);
            const PimObjId d =
                pimAllocAssociated(32, a, PimDataType::PIM_INT32);
            pimCopyHostToDevice(x.data(), a);
            pimCopyHostToDevice(y.data(), b);
            const std::string prefix = t.name;
            rep.layer[prefix + ".add_ns_per_elem"] =
                nsPerCall(7, 1, [&] { pimAdd(a, b, d); }) / n;
            rep.layer[prefix + ".mul_ns_per_elem"] =
                nsPerCall(7, 1, [&] { pimMul(a, b, d); }) / n;
            std::vector<int> out(n);
            pimCopyDeviceToHost(d, out.data());
            for (uint64_t i = 0; i < n; ++i)
                if (out[i] != x[i] * y[i]) {
                    rep.fail("probe: " + prefix +
                             " mul result differs from host");
                    break;
                }
            rep.attempted += 2;
            for (const PimObjId id : {a, b, d})
                pimFree(id);
        }
        pimDestroyContext(ctx);
    }
}

/** Memory-timing backends, driven directly. */
void
probeDram(Report &rep, pimeval::Prng &rng)
{
    using pimeval::MemTimingBackend;
    const pimeval::MemTopology base;
    // A LUT calibrates on its first lookup, once per process and
    // timing set; a clock period nudged by a few ulps keys a fresh
    // calibration of identical work.
    std::vector<double> calib_ms;
    std::unique_ptr<MemTimingBackend> lut;
    for (int i = 1; i <= 3; ++i) {
        pimeval::MemTopology topo = base;
        topo.timing.tck_ns = std::nextafter(
            base.timing.tck_ns + 1e-12 * i, 1.0);
        lut = MemTimingBackend::create(
            PimMemBackend::PIM_MEM_BACKEND_LUT, topo);
        const uint64_t t0 = nowNs();
        lut->transfer(4096, false);
        calib_ms.push_back(static_cast<double>(nowNs() - t0) / 1e6);
    }
    rep.layer["dram.lut_calibration_ms"] = median(calib_ms);

    // Lookups over transfer sizes from 64 B to 64 MiB, log-uniform.
    std::vector<uint64_t> sizes(1024);
    for (auto &s : sizes)
        s = static_cast<uint64_t>(
            std::exp2(6.0 + 20.0 * rng.nextDouble()));
    double sink = 0.0;
    size_t next = 0;
    rep.layer["dram.lut_lookup_ns"] = nsPerCall(100, 1000, [&] {
        const bool is_write = next & 1;
        sink += lut->transfer(sizes[next % sizes.size()], is_write).seconds;
        ++next;
    });

    // Cold cycle-model transfers: every size a distinct cached shape.
    const auto cycle = MemTimingBackend::create(
        PimMemBackend::PIM_MEM_BACKEND_CYCLE, base);
    std::vector<double> cycle_us;
    for (uint64_t i = 0; i < 21; ++i) {
        const uint64_t bytes = (4096 + 37 * i) * 64;
        const uint64_t t0 = nowNs();
        sink += cycle->transfer(bytes, i & 1).seconds;
        cycle_us.push_back(static_cast<double>(nowNs() - t0) / 1e3);
    }
    rep.layer["dram.cycle_transfer_us"] = median(cycle_us);
    rep.attempted += 3;
    if (!(sink > 0.0))
        rep.fail("probe: memory backends returned no transfer time");
}

/** Serving at saturation: bursts of bulk jobs submitted back to back
 *  on the serve workload's server configuration. */
void
probeServe(Report &rep, pimeval::Prng &rng)
{
    auto server = pimeval::PimServer::create(serveMixConfig());
    if (!server) {
        rep.fail("probe: server creation failed");
        return;
    }
    constexpr uint64_t n = 64; // the serve workload's bulk shape
    const std::vector<int> a = hostVector(rng, n), b = hostVector(rng, n);
    pimeval::PimJobSpec spec;
    spec.kind = pimeval::PimJobKind::kVecScaledAdd;
    spec.n = n;
    spec.a = a.data();
    spec.b = b.data();
    spec.scalar = 5;
    spec.tenant = "bulk";
    std::vector<int32_t> ref(n);
    for (uint64_t i = 0; i < n; ++i)
        ref[i] = a[i] * 5 + b[i];
    for (int i = 0; i < 64; ++i)
        server->submit(spec).wait();

    constexpr int kBursts = 3, kJobs = 2048;
    std::vector<double> submit_us, queue_us, exec_us, rate;
    double batch_sum = 0.0, jobs = 0.0;
    for (int burst = 0; burst < kBursts; ++burst) {
        std::vector<pimeval::PimJobHandle> handles;
        handles.reserve(kJobs);
        const uint64_t t0 = nowNs();
        for (int i = 0; i < kJobs; ++i) {
            const uint64_t s0 = nowNs();
            handles.push_back(server->submit(spec));
            submit_us.push_back(static_cast<double>(nowNs() - s0) / 1e3);
        }
        server->drain();
        rate.push_back(kJobs / (static_cast<double>(nowNs() - t0) / 1e9));
        for (const auto &h : handles) {
            ++rep.attempted;
            if (h.wait() != pimeval::PimJobState::kDone ||
                h.output().values != ref) {
                rep.fail("probe: served job failed or differs from host");
                continue;
            }
            queue_us.push_back(static_cast<double>(h.queueNs()) / 1e3);
            exec_us.push_back(
                static_cast<double>(h.latencyNs() - h.queueNs()) / 1e3);
            batch_sum += static_cast<double>(h.batchSize());
            jobs += 1.0;
        }
    }
    rep.layer["serve.submit_us_p50"] = median(submit_us);
    rep.layer["serve.queue_us_p50"] = median(queue_us);
    rep.layer["serve.exec_us_p50"] = median(exec_us);
    rep.layer["serve.mean_batch"] = jobs > 0 ? batch_sum / jobs : 0.0;
    rep.layer["serve.saturation_jobs_per_s"] = median(rate);
}

} // namespace

Report
runProbes(const RunOptions &opts)
{
    Report rep;
    pimeval::Prng rng(opts.seed * 0x9e3779b97f4a7c15ull + 47);
    probeCore(rep, rng);
    // 2^20 elements stay in the shared L3, 2^22 stream from DRAM; both
    // keep thread-pool chunks large (see kElemApps).
    probeFusion(rep, rng, 1u << 20, 30, "fusion.flush_small_ns_per_elem");
    probeFusion(rep, rng, 1u << 22, 6, "fusion.flush_large_ns_per_elem");
    probeKernels(rep, rng);
    probeDram(rep, rng);
    probeServe(rep, rng);
    rep.ready_ns = nowNs();
    return rep;
}

} // namespace e2e
