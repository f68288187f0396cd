/**
 * @file
 * Shared declarations of the end-to-end benchmark (pimbench_e2e; see
 * bench/e2e/README.md): the workload and probe entry points each child
 * process runs, the report a child hands back to the parent, and the
 * small statistics and JSON helpers both sides use.
 */

#ifndef PIMBENCH_E2E_E2E_H_
#define PIMBENCH_E2E_E2E_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "serve/pim_serve.h"

namespace e2e {

class SpanTrace;

/** CLOCK_MONOTONIC in nanoseconds: one clock for the parent and every
 *  child, so a child's ready time measures from the parent's spawn. */
uint64_t nowNs();

/**
 * Quartiles as Python's statistics.quantiles(values, n=4) computes them
 * (the default "exclusive" method), so the spreads this program prints
 * match the ones a script computes from its runs. Fewer than two values
 * give q1 = median = q3.
 */
struct Quartiles
{
    double q1 = 0.0;
    double median = 0.0;
    double q3 = 0.0;
    size_t n = 0;
};

Quartiles quartiles(std::vector<double> values);

inline double
median(std::vector<double> values)
{
    return quartiles(std::move(values)).median;
}

/** Value at quantile @p q in [0, 1] by nearest rank (tail percentiles). */
double percentile(std::vector<double> values, double q);

/**
 * Host-speed calibration (calibrate.cpp). A workload samples the fixed
 * calibration kernel between its timed ops; its gated latency is the
 * mean op latency rescaled to a host on which the kernel takes
 * kReferenceMs (the build machine's quiet-host time).
 */
class HostSpeed
{
  public:
    static constexpr double kReferenceMs = 35.0;

    /** Run the kernel once and record its wall time. */
    void sample();
    /** Take @p n samples; kReferenceMs / their median, the scale of a
     *  time measured just before. */
    double scaleNow(int n);
    double medianMs() const;
    /** @p ms x kReferenceMs / medianMs(); @p ms when nothing was sampled. */
    double normalise(double ms) const;

  private:
    std::vector<double> ms_;
    uint64_t state_ = 0x9e3779b97f4a7c15ull;
};

/** Calibration samples taken right after set-up, to scale setup_s. */
inline constexpr int kSetupCalibrations = 3;

/** Keep this process, and every thread it starts, on the CPU it runs on
 *  now, so the calibration kernel and the workload share one CPU. */
void pinToCurrentCpu();

/** Modeled statistics of the device workloads, relative to the
 *  repository root the benchmark runs from. */
inline constexpr const char *kGoldenPath = "bench/e2e/modeled_golden.json";

/** Settings one workload child runs with. */
struct RunOptions
{
    uint64_t seed = 1;
    double seconds = 10.0;     ///< timed window
    bool traced = false;       ///< alternate untraced and traced ops
    bool quick = false;        ///< one pass (two traced) / 2 s of bursts
    bool setup_only = false;   ///< stop once set-up is done (setup_s)
    bool write_golden = false; ///< emit modeled stats instead of checking
    std::string trace_path;    ///< BENCH_TRACE.json (traced runs)
};

/** What one child reports to the parent. */
struct Report
{
    uint64_t ready_ns = 0; ///< set-up done; the first timed op may start
    double setup_scale = 1.0; ///< HostSpeed::scaleNow() right after set-up
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> failures; ///< first few, for the log

    /** Gated end-to-end values of the untraced timed ops. */
    std::map<std::string, double> e2e;
    /** Per-layer metrics (traced runs and probes). */
    std::map<std::string, double> layer;
    /** Reported but not gated: per-app times, tail percentiles, etc. */
    std::map<std::string, double> info;
    /** --write-golden: modeled statistics per "<app>/<target>". */
    std::map<std::string, std::map<std::string, double>> golden;

    void fail(const std::string &why);
};

/** The three PIM targets, in the paper's order. */
struct TargetDesc
{
    const char *name; ///< short metric-name form
    int device;       ///< PimDeviceEnum value
};
const std::vector<TargetDesc> &targets();

/** Table I workloads and gemv_large (device_workloads.cpp). */
Report runDeviceWorkload(const std::string &kind, const RunOptions &opts,
                         SpanTrace &trace);

/** Bursts of mixed served jobs (serve_workload.cpp). */
Report runServeMix(const RunOptions &opts, SpanTrace &trace);

/** Server configuration of the serve workload, shared with the serve
 *  probe. */
pimeval::PimServeConfig serveMixConfig();

/** Isolated per-layer probes (probes.cpp). */
Report runProbes(const RunOptions &opts);

/** Delta of registry counters between two pimGetAllMetrics()-style
 *  snapshots, for one metric name (0 when absent). */
double counterDelta(const std::map<std::string, double> &before,
                    const std::map<std::string, double> &after,
                    const std::string &name);

/** Current value of every registry metric (counters: count;
 *  histograms: sum, under "<name>.sum"). */
std::map<std::string, double> metricSnapshot();

/**
 * Registry-derived per-layer metrics of a timed window of @p ops ops:
 * cost-model cache and free-list hit rates, inline thread-pool runs and
 * LUT lookups per op into rep.layer; fusion and parallel-dispatch
 * counters per op into rep.info.
 */
void addLayerCounters(Report &rep, const std::map<std::string, double> &before,
                      const std::map<std::string, double> &after, double ops);

/** Metric-name form of an app name: "AES-Encryption" -> "aes_encryption". */
std::string slug(const std::string &name);

std::string jsonEscape(const std::string &s);

/** Text that reads back as exactly @p v (printf "%.17g"). */
std::string exact(double v);

/** {"name": value, ...} with exact values. */
std::string jsonNumbers(const std::map<std::string, double> &values);

/**
 * Other-data body of a BENCH_TRACE.json: span self times per op, the
 * counter deltas of the traced window, and @p extra fields.
 */
std::string traceOtherData(const SpanTrace &trace, double ops,
                           const std::map<std::string, double> &before,
                           const std::map<std::string, double> &after,
                           const std::map<std::string, double> &extra);

} // namespace e2e

#endif // PIMBENCH_E2E_E2E_H_
