/**
 * @file
 * Phase-scoped profiler built on the tracer/metrics layer: a
 * user-facing answer to "where does this workload's time go?".
 *
 * Programs (or the standard app phases in src/apps) mark phases with
 * pimProfileBegin("compute") / pimProfileEnd() or the RAII
 * PimProfileScope. Phases nest per thread into a process-wide phase
 * tree; each completed phase folds in
 *   - host wall time (log-bucketed histogram -> p50/p90/p99/p99.9) and
 *   - the modeled-time delta from the device's PimStatsMgr
 *     (kernel / copy / host seconds and transfer byte counts).
 * Phase boundaries do not read the metrics registry.
 *
 * A background sampler thread snapshots the metrics registry every
 * kSamplePeriodMs (25 ms) into an in-memory time series.
 * pimDumpProfile(path) exports everything —
 * the phase tree with per-phase bottleneck attribution
 * (compute / DRAM-transfer / host-overhead split of modeled time),
 * the final metric snapshot with percentiles, the live contexts' ids
 * and labels, and the time series — as PROFILE.json plus a
 * self-contained single-file HTML report next to it.
 *
 * Enabling: programmatic (pimProfileStart) or the PIMEVAL_PROFILE
 * environment variable, which arms the profiler at pimCreateDevice
 * and dumps at pimDeleteDevice, mirroring PIMEVAL_TRACE. Disabled,
 * every phase hook is one relaxed atomic load and branch; under
 * -DPIMEVAL_TRACING=OFF the whole layer compiles away (the public
 * functions become empty inline stubs and pim_profile.cpp is not
 * built, leaving zero profile symbols in the binaries).
 *
 * Fusion caveat: modeled time is attributed to the phase in which it
 * is *recorded*. Commands buffered in a fusion window record at the
 * flush, so a phase that only captures donates their modeled time to
 * whichever later phase flushes the window (pimSync, pimEndFusion, a
 * D2H copy).
 */

#ifndef PIMEVAL_CORE_PIM_PROFILE_H_
#define PIMEVAL_CORE_PIM_PROFILE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "core/pim_json.h"
#include "core/pim_trace.h" // PIMEVAL_TRACING_ENABLED
#include "core/pim_types.h"

namespace pimeval {

/** One aggregated node of the phase tree (snapshot form). */
struct PimProfilePhase
{
    std::string name;
    int parent = -1; ///< index into the snapshot vector; -1 = root
    int depth = 0;
    uint32_t ctx = 0; ///< owning context id at first entry (0 = none)
    uint64_t count = 0; ///< completed begin/end pairs

    /** Host wall time across all entries. */
    uint64_t host_ns_total = 0;
    double host_ns_min = 0.0;
    double host_ns_max = 0.0;
    double host_ns_p50 = 0.0;
    double host_ns_p90 = 0.0;
    double host_ns_p99 = 0.0;
    double host_ns_p999 = 0.0;

    /** Modeled-time deltas committed inside the phase. */
    double kernel_sec = 0.0; ///< compute
    double copy_sec = 0.0;   ///< DRAM transfer
    double host_sec = 0.0;   ///< host overhead
    uint64_t bytes_h2d = 0;
    uint64_t bytes_d2h = 0;
    uint64_t bytes_d2d = 0;

    double modeledSec() const
    {
        return kernel_sec + copy_sec + host_sec;
    }
};

/**
 * Write @p phases as a JSON array of phase records: name, parent,
 * depth, ctx, count, host_ns (total, mean, min, max, p50, p90, p99,
 * p999), modeled_sec (compute, dram_transfer, host, total), the
 * attribution fractions of that split, and bytes (h2d, d2h, d2d).
 * Non-finite values are written as 0. PROFILE.json's "phases" and the
 * benches' "profile_phases" both come from this one writer; it is
 * inline so it also builds under -DPIMEVAL_TRACING=OFF, where
 * pim_profile.cpp is not compiled.
 */
inline void
writeProfilePhasesJson(std::ostream &os,
                       const std::vector<PimProfilePhase> &phases)
{
    const std::streamsize precision = os.precision(17);
    os << "[";
    for (size_t i = 0; i < phases.size(); ++i) {
        const PimProfilePhase &p = phases[i];
        const double total = p.modeledSec();
        const auto share = [&](double part) {
            return total > 0.0 ? jsonFinite(part / total) : 0.0;
        };
        const double mean = p.count
            ? static_cast<double>(p.host_ns_total) /
                static_cast<double>(p.count)
            : 0.0;
        os << (i ? ",\n    " : "\n    ") << "{\"name\": \""
           << jsonEscape(p.name) << "\", \"parent\": " << p.parent
           << ", \"depth\": " << p.depth << ", \"ctx\": " << p.ctx
           << ", \"count\": " << p.count
           << ",\n     \"host_ns\": {\"total\": " << p.host_ns_total
           << ", \"mean\": " << jsonFinite(mean)
           << ", \"min\": " << jsonFinite(p.host_ns_min)
           << ", \"max\": " << jsonFinite(p.host_ns_max)
           << ", \"p50\": " << jsonFinite(p.host_ns_p50)
           << ", \"p90\": " << jsonFinite(p.host_ns_p90)
           << ", \"p99\": " << jsonFinite(p.host_ns_p99)
           << ", \"p999\": " << jsonFinite(p.host_ns_p999)
           << "},\n     \"modeled_sec\": {\"compute\": "
           << jsonFinite(p.kernel_sec)
           << ", \"dram_transfer\": " << jsonFinite(p.copy_sec)
           << ", \"host\": " << jsonFinite(p.host_sec)
           << ", \"total\": " << jsonFinite(total)
           << "},\n     \"attribution\": {\"compute\": "
           << share(p.kernel_sec)
           << ", \"dram_transfer\": " << share(p.copy_sec)
           << ", \"host\": " << share(p.host_sec)
           << "},\n     \"bytes\": {\"h2d\": " << p.bytes_h2d
           << ", \"d2h\": " << p.bytes_d2h << ", \"d2d\": " << p.bytes_d2d
           << "}}";
    }
    os << (phases.empty() ? "]" : "\n  ]");
    os.precision(precision);
}

/** One background-sampler snapshot of the metrics registry. */
struct PimProfileSample
{
    uint64_t t_ns = 0; ///< since profile start
    std::map<std::string, double> values;
};

/** Everything the profiler knows, for programmatic consumers
 *  (benches embed this in their JSON). */
struct PimProfileSnapshot
{
    bool active = false;
    uint64_t elapsed_ns = 0;
    double sample_period_ms = 0.0;
    std::vector<PimProfilePhase> phases;
    std::vector<PimProfileSample> samples;
};

#if PIMEVAL_TRACING_ENABLED

/**
 * Process-wide profiler singleton. All methods are thread-safe;
 * beginPhase/endPhase additionally keep a per-thread open-phase
 * stack, so concurrent threads build disjoint (or shared, when names
 * and nesting coincide) subtrees of one aggregated phase tree.
 */
class PimProfiler
{
  public:
    static PimProfiler &instance();
    ~PimProfiler(); // Node is incomplete here

    /** Hook fast path: one relaxed load, safe before instance(). */
    static bool enabled()
    {
        return enabled_flag_.load(std::memory_order_relaxed);
    }

    /**
     * Start (or restart) profiling: clears the phase tree and time
     * series, re-arms the epoch, remembers @p path as the default
     * export target, and launches the sampler thread.
     */
    void start(const std::string &path);

    /** Stop profiling and export to @p path (empty = the start()
     *  path). The tree is retained until the next start(), so dump()
     *  can still re-export. @return false when the file cannot be
     *  written (or nothing was started and no path is known). */
    bool stop(const std::string &path = "");

    /** Export PROFILE.json plus the sibling HTML report without
     *  stopping. */
    bool dump(const std::string &path) const;

    /** Open a phase on the calling thread (no-op while disabled). */
    void beginPhase(const char *name);

    /** Close the calling thread's innermost open phase. Safe (and a
     *  no-op) when nothing is open. */
    void endPhase();

    /** Depth of the calling thread's open-phase stack. */
    int openDepth() const;

    bool active() const { return enabled(); }
    const std::string &outputPath() const { return path_; }

    /** Aggregated tree + time series (parents precede children). */
    PimProfileSnapshot snapshot() const;

    /** Drop all phases and samples (profiling state stays on). */
    void reset();

    /** Background-sampler period. */
    static constexpr double kSamplePeriodMs = 25.0;

  private:
    PimProfiler() = default;

    struct Node;
    struct OpenPhase;

    /** Find-or-create the child @p name under @p parent; returns its
     *  index. Requires mutex_. */
    int nodeIndex(int parent, const char *name);

    void samplerLoop();
    void startSampler();
    void stopSampler();

    uint64_t nowNs() const;

    static std::atomic<bool> enabled_flag_;

    mutable std::mutex mutex_;
    std::vector<std::unique_ptr<Node>> nodes_;
    std::map<std::pair<int, std::string>, int> index_;
    std::vector<PimProfileSample> samples_;
    uint64_t sample_stride_ns_ = 0; ///< grows when samples_ decimates
    std::string path_;
    std::chrono::steady_clock::time_point epoch_ =
        std::chrono::steady_clock::now();

    std::thread sampler_;
    std::mutex sampler_mutex_;
    std::condition_variable sampler_cv_;
    bool sampler_stop_ = false;

    /** Cap before decimation (drop every other, double the stride). */
    static constexpr size_t kMaxSamples = 2048;
};

/**
 * RAII phase: begins on construction, ends on destruction. Use
 * through PIM_PROFILE_SCOPE so the object disappears under
 * -DPIMEVAL_TRACING=OFF. Only pairs with the profiler state at
 * construction: a profiler started mid-scope is ignored, one stopped
 * mid-scope still pops the (now frozen) phase harmlessly.
 */
class PimProfileScope
{
  public:
    explicit PimProfileScope(const char *name)
    {
        if (PimProfiler::enabled()) {
            PimProfiler::instance().beginPhase(name);
            began_ = true;
        }
    }

    ~PimProfileScope()
    {
        if (began_)
            PimProfiler::instance().endPhase();
    }

    PimProfileScope(const PimProfileScope &) = delete;
    PimProfileScope &operator=(const PimProfileScope &) = delete;

  private:
    bool began_ = false;
};

#define PIM_PROFILE_CONCAT_INNER_(a, b) a##b
#define PIM_PROFILE_CONCAT_(a, b) PIM_PROFILE_CONCAT_INNER_(a, b)

/** Scoped profile phase covering the rest of the enclosing block. */
#define PIM_PROFILE_SCOPE(name)                                        \
    ::pimeval::PimProfileScope PIM_PROFILE_CONCAT_(                    \
        pim_profile_scope_, __LINE__)(name)

#else // !PIMEVAL_TRACING_ENABLED

#define PIM_PROFILE_SCOPE(name)                                        \
    do {                                                               \
    } while (0)

#endif // PIMEVAL_TRACING_ENABLED

} // namespace pimeval

// --- Public phase / profile API (docs/OBSERVABILITY.md) ---
// Global namespace like the rest of the pim* C-style API.

#if PIMEVAL_TRACING_ENABLED

/** Start profiling; PROFILE.json is written to @p path by
 *  pimProfileStop / pimDumpProfile, with the HTML report beside it. */
PimStatus pimProfileStart(const char *path);

/** Stop profiling and export (@p path overrides the start path). */
PimStatus pimProfileStop(const char *path = nullptr);

/** Whether the profiler is currently recording. */
bool pimProfileActive();

/** Open a named phase on the calling thread (phases nest). */
PimStatus pimProfileBegin(const char *name);

/** Close the calling thread's innermost open phase. */
PimStatus pimProfileEnd();

/** Export PROFILE.json + HTML to @p path without stopping. */
PimStatus pimDumpProfile(const char *path);

/** Programmatic snapshot of the phase tree and time series. */
pimeval::PimProfileSnapshot pimProfileSnapshot();

/** Drop all recorded phases and samples. */
PimStatus pimResetProfile();

/**
 * Validate an exported PROFILE.json: parses the file and checks the
 * schema (version, phases with host_ns percentiles, modeled split,
 * and attribution). @p error receives the first problem (may be
 * null).
 */
bool pimValidateProfileFile(const std::string &path,
                            std::string *error);

#else // !PIMEVAL_TRACING_ENABLED

// Empty inline stubs: callers need no guards, binaries get no
// profile symbols (pim_profile.cpp is not built in this
// configuration).

inline PimStatus pimProfileStart(const char *) { return PimStatus::PIM_OK; }
inline PimStatus pimProfileStop(const char * = nullptr)
{
    return PimStatus::PIM_OK;
}
inline bool pimProfileActive() { return false; }
inline PimStatus pimProfileBegin(const char *) { return PimStatus::PIM_OK; }
inline PimStatus pimProfileEnd() { return PimStatus::PIM_OK; }
inline PimStatus pimDumpProfile(const char *) { return PimStatus::PIM_OK; }
inline pimeval::PimProfileSnapshot pimProfileSnapshot() { return {}; }
inline PimStatus pimResetProfile() { return PimStatus::PIM_OK; }
inline bool pimValidateProfileFile(const std::string &, std::string *)
{
    return false;
}

#endif // PIMEVAL_TRACING_ENABLED

#endif // PIMEVAL_CORE_PIM_PROFILE_H_
