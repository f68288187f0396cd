/**
 * @file
 * Process-wide metrics registry: named counters, gauges, and
 * histograms describing the simulator's own behavior (fusion chains,
 * free-list and cost-model cache hit rates, threadpool work
 * distribution, bytes copied).
 *
 * Metrics are always-on but near-free: a counter increment is one
 * relaxed atomic add, and hot loops batch locally and add once per
 * chunk. The one per-command event, threadpool.inline_runs, is tallied
 * per thread and published in bulk (PimMetrics::countInlineRun).
 * Handles resolved by name are stable for the process lifetime, so
 * instrumentation sites look them up once through a magic static:
 *
 *     static MetricCounter &hits =
 *         PimMetrics::instance().counter("freelist.hit");
 *     hits.add(1);
 *
 * Histograms are log-bucketed (HdrHistogram style): linear sub-buckets
 * inside power-of-two octaves, so record() stays lock-free and
 * percentile queries (p50/p90/p99/p99.9) answer within one bucket's
 * relative error (<= 1/kSubBuckets per octave, ~6%).
 *
 * Per-context metric domains: every metric additionally accumulates
 * into the calling thread's *current domain* — a slot assigned to a
 * live PimContext — so multi-tenant runs get isolated per-context
 * views while the aggregate view is preserved. The domain of a thread
 * is set by the dispatch layer (PimSim::device()) and by each
 * device's worker threads at startup; threads with no domain update
 * only the aggregate.
 *
 * Snapshot/reset/dump are thread-safe, and reset is atomic with
 * respect to a concurrent snapshotAll (both serialize on the registry
 * mutex), so a background sampler never observes a half-reset
 * registry. Values reset to zero via pimResetMetrics /
 * PimMetrics::reset without invalidating handles. The
 * -DPIMEVAL_TRACING=OFF build keeps metrics available (they are cheap
 * and tests rely on them); only the event-tracing hooks compile away.
 */

#ifndef PIMEVAL_CORE_PIM_METRICS_H_
#define PIMEVAL_CORE_PIM_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace pimeval {

/** Maximum simultaneously-live metric domains (contexts). Contexts
 *  beyond this accumulate into the aggregate only. */
inline constexpr int kPimMetricMaxDomains = 64;

namespace detail {
/** The calling thread's metric-domain slot (-1 = aggregate only).
 *  constinit: the variable has no dynamic initializer, so a read from
 *  another translation unit needs no TLS init-function test. */
extern constinit thread_local int tls_metric_domain;
/** The calling thread's threadpool.inline_runs events not yet added
 *  to the registry (see PimMetrics::countInlineRun). */
extern constinit thread_local uint32_t tls_inline_runs;
} // namespace detail

/** Monotonic (between resets) event count. */
class MetricCounter
{
  public:
    explicit MetricCounter(std::string name) : name_(std::move(name)) {}

    void add(uint64_t n = 1)
    {
        value_.fetch_add(n, std::memory_order_relaxed);
        const int d = detail::tls_metric_domain;
        if (d >= 0)
            domains_[d].fetch_add(n, std::memory_order_relaxed);
    }

    uint64_t value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    uint64_t valueInDomain(int slot) const
    {
        if (slot < 0 || slot >= kPimMetricMaxDomains)
            return 0;
        return domains_[slot].load(std::memory_order_relaxed);
    }

    void reset()
    {
        value_.store(0, std::memory_order_relaxed);
        for (auto &d : domains_)
            d.store(0, std::memory_order_relaxed);
    }

    void resetDomain(int slot)
    {
        if (slot >= 0 && slot < kPimMetricMaxDomains)
            domains_[slot].store(0, std::memory_order_relaxed);
    }

    const std::string &name() const { return name_; }

  private:
    const std::string name_;
    std::atomic<uint64_t> value_{0};
    std::atomic<uint64_t> domains_[kPimMetricMaxDomains]{};
};

/** Last-written instantaneous value (e.g. current queue depth). */
class MetricGauge
{
  public:
    explicit MetricGauge(std::string name) : name_(std::move(name)) {}

    void set(double v)
    {
        bits_.store(pack(v), std::memory_order_relaxed);
        const int d = detail::tls_metric_domain;
        if (d >= 0)
            domains_[d].store(pack(v), std::memory_order_relaxed);
    }

    double value() const
    {
        return unpack(bits_.load(std::memory_order_relaxed));
    }

    double valueInDomain(int slot) const
    {
        if (slot < 0 || slot >= kPimMetricMaxDomains)
            return 0.0;
        return unpack(domains_[slot].load(std::memory_order_relaxed));
    }

    void reset()
    {
        bits_.store(0, std::memory_order_relaxed);
        for (auto &d : domains_)
            d.store(0, std::memory_order_relaxed);
    }

    void resetDomain(int slot)
    {
        if (slot >= 0 && slot < kPimMetricMaxDomains)
            domains_[slot].store(0, std::memory_order_relaxed);
    }

    const std::string &name() const { return name_; }

  private:
    static uint64_t pack(double v)
    {
        uint64_t b;
        static_assert(sizeof(b) == sizeof(v));
        __builtin_memcpy(&b, &v, sizeof(b));
        return b;
    }
    static double unpack(uint64_t b)
    {
        double v;
        __builtin_memcpy(&v, &b, sizeof(v));
        return v;
    }

    const std::string name_;
    std::atomic<uint64_t> bits_{0};
    std::atomic<uint64_t> domains_[kPimMetricMaxDomains]{};
};

/**
 * Lock-free log-bucketed distribution: count / sum / min / max plus
 * kSubBuckets linear bins per power-of-two octave over
 * [2^kMinExp, 2^kMaxExp). record() is wait-free except for the
 * CAS loops on sum/min/max; percentile() walks the bins and returns
 * the hit bucket's midpoint, clamped to the observed min/max, so the
 * relative error is bounded by half a bucket width
 * (1 / (2 * kSubBuckets) ~= 3%). Values <= 0 (and sub-2^kMinExp
 * dust) land in a dedicated underflow bin counted as 0.0; values
 * >= 2^kMaxExp land in the overflow bin counted as the observed max.
 *
 * Per-domain bins are allocated lazily the first time a thread with
 * that domain records, so histograms untouched by a context cost it
 * nothing.
 */
class MetricHistogram
{
  public:
    static constexpr int kSubBuckets = 16; ///< linear bins per octave
    static constexpr int kMinExp = -32;    ///< 2^-32 ~ 2.3e-10
    static constexpr int kMaxExp = 64;     ///< 2^64  ~ 1.8e19
    static constexpr int kNumOctaves = kMaxExp - kMinExp;
    /** underflow + body + overflow */
    static constexpr int kNumBuckets = 2 + kNumOctaves * kSubBuckets;

    explicit MetricHistogram(std::string name) : name_(std::move(name))
    {
    }
    ~MetricHistogram();

    void record(double v);

    uint64_t count() const
    {
        return agg_.count.load(std::memory_order_relaxed);
    }
    double sum() const;
    double min() const; ///< 0 when no samples
    double max() const; ///< 0 when no samples
    double mean() const
    {
        const uint64_t n = count();
        return n ? sum() / static_cast<double>(n) : 0.0;
    }

    /**
     * Quantile estimate for @p q in [0, 1] (0.5 = median). Derived
     * entirely from the bucket bins, so a concurrent reset yields a
     * self-consistent (possibly partial) answer, never garbage.
     * Returns 0 when the histogram is empty.
     */
    double percentile(double q) const;

    /** Per-domain views (0/empty when the domain never recorded). */
    uint64_t countInDomain(int slot) const;
    double sumInDomain(int slot) const;
    double minInDomain(int slot) const;
    double maxInDomain(int slot) const;
    double meanInDomain(int slot) const;
    double percentileInDomain(int slot, double q) const;

    void reset();
    void resetDomain(int slot);

    const std::string &name() const { return name_; }

    /** Bucket index a value lands in (exposed for tests). */
    static int bucketIndex(double v);
    /** Midpoint value the bucket reports (exposed for tests). */
    static double bucketMid(int idx);

  private:
    /** Bit patterns of +inf / -inf: the unset sentinels for min/max,
     *  so concurrent first samples need no special case. */
    static constexpr uint64_t kPosInfBits = 0x7FF0000000000000ull;
    static constexpr uint64_t kNegInfBits = 0xFFF0000000000000ull;

    /** One complete set of accumulators (aggregate or one domain). */
    struct Bins
    {
        std::atomic<uint64_t> count{0};
        std::atomic<uint64_t> sum_bits{0}; ///< double, CAS-accumulated
        std::atomic<uint64_t> min_bits{kPosInfBits};
        std::atomic<uint64_t> max_bits{kNegInfBits};
        std::atomic<uint64_t> buckets[kNumBuckets]{};

        void record(double v);
        void reset();
        double percentile(double q) const;
    };

    /** Lazily create (or fetch) one domain's bins. */
    Bins *domainBins(int slot);
    const Bins *domainBinsIfAny(int slot) const;

    const std::string name_;
    Bins agg_;
    std::atomic<Bins *> domains_[kPimMetricMaxDomains]{};
};

/** One metric's exported state (see PimMetrics::snapshotAll). */
struct PimMetricValue
{
    enum class Kind { kCounter, kGauge, kHistogram };
    Kind kind = Kind::kCounter;
    double value = 0.0;   ///< counter/gauge value; histogram mean
    uint64_t count = 0;   ///< histogram sample count (counters: value)
    double sum = 0.0;     ///< histogram only
    double min = 0.0;     ///< histogram only
    double max = 0.0;     ///< histogram only
    double p50 = 0.0;     ///< histogram only (log-bucket estimate)
    double p90 = 0.0;     ///< histogram only
    double p99 = 0.0;     ///< histogram only
    double p999 = 0.0;    ///< histogram only
};

/**
 * The registry. Naming convention: dotted lowercase paths grouped by
 * subsystem — "fusion.chains", "freelist.hit",
 * "threadpool.chunks_stolen", "cache.cost_memo.miss",
 * "copy.bytes_h2d". See docs/OBSERVABILITY.md for the full glossary.
 */
class PimMetrics
{
  public:
    static PimMetrics &instance();

    /** Find-or-create; the returned reference never moves. */
    MetricCounter &counter(const std::string &name);
    MetricGauge &gauge(const std::string &name);
    MetricHistogram &histogram(const std::string &name);

    /**
     * Current value of a metric by name: counters yield their count,
     * gauges their value, histograms their mean. @return false when no
     * such metric exists.
     */
    bool get(const std::string &name, double *value) const;

    /** Full snapshot of every registered metric, sorted by name. */
    std::map<std::string, PimMetricValue> snapshotAll() const;

    /** Zero all values, aggregate and every domain (handles stay
     *  valid). Serializes with snapshotAll on the registry mutex, so
     *  concurrent samplers see either the before or the after state,
     *  never a mix of metrics from both. */
    void reset();

    /** Human-readable table of all non-zero metrics. */
    void printReport(std::ostream &os) const;

    /** JSON object {"name": value-or-histogram-object, ...}. */
    void dumpJson(std::ostream &os) const;

    // --- Per-context metric domains ---

    /**
     * Assign a domain slot to context @p ctx_id (called at context
     * creation). Returns the slot, or -1 when all
     * kPimMetricMaxDomains slots are taken (the context then updates
     * the aggregate only).
     */
    int acquireDomain(uint64_t ctx_id);

    /**
     * Release the context's slot (called at context destruction):
     * zeroes the slot across every registered metric so a future
     * context reusing it starts clean.
     */
    void releaseDomain(uint64_t ctx_id);

    /** Slot of a live context (-1 when none). */
    int domainSlot(uint64_t ctx_id) const;

    /** Snapshot of every metric restricted to @p ctx_id's domain
     *  (empty map when the context has no slot). */
    std::map<std::string, PimMetricValue>
    snapshotDomain(uint64_t ctx_id) const;

    /** Set / read the calling thread's current domain slot. Setting
     *  it first publishes the thread's pending inline-run tally into
     *  the domain those runs belong to. */
    static void setThreadDomain(int slot);
    static int threadDomain() { return detail::tls_metric_domain; }

    /**
     * Count one threadpool.inline_runs event. Every small command
     * runs one, so even one atomic add per event shows in the
     * per-command cost: the calling thread tallies locally and adds
     * its tally to the counter in one add(n). The tally is published
     * every kInlineRunBatch events, before setThreadDomain rebinds the
     * thread, before a registry read or reset on the thread, and when
     * a thread that ever bound a domain exits. A read on another
     * thread can trail the count by less than one batch per thread
     * still issuing.
     */
    static void countInlineRun()
    {
        if (++detail::tls_inline_runs == kInlineRunBatch)
            publishThreadTally();
    }

    /** Add the calling thread's pending inline-run tally to the
     *  registry (in the thread's current domain). */
    static void publishThreadTally();

  private:
    static constexpr uint32_t kInlineRunBatch = 256;

    PimMetrics() = default;

    /** reset() body for callers already holding the mutex. */
    void resetLocked();

    mutable std::mutex mutex_;
    std::map<std::string, std::unique_ptr<MetricCounter>> counters_;
    std::map<std::string, std::unique_ptr<MetricGauge>> gauges_;
    std::map<std::string, std::unique_ptr<MetricHistogram>> histograms_;

    /** Live domain assignments: context id -> slot. */
    std::map<uint64_t, int> domain_of_ctx_;
    uint64_t domain_slots_used_ = 0; ///< bitmask over 64 slots
};

} // namespace pimeval

/**
 * Convenience hooks mirroring the PIM_TRACE_* style: resolve the
 * handle once per site via a magic static, then relaxed-atomic update.
 */
#define PIM_METRIC_COUNT(metric_name, n)                               \
    do {                                                               \
        static ::pimeval::MetricCounter &pim_metric_site_ =            \
            ::pimeval::PimMetrics::instance().counter(metric_name);    \
        pim_metric_site_.add(static_cast<uint64_t>(n));                \
    } while (0)

#define PIM_METRIC_GAUGE(metric_name, v)                               \
    do {                                                               \
        static ::pimeval::MetricGauge &pim_metric_site_ =              \
            ::pimeval::PimMetrics::instance().gauge(metric_name);      \
        pim_metric_site_.set(static_cast<double>(v));                  \
    } while (0)

#define PIM_METRIC_RECORD(metric_name, v)                              \
    do {                                                               \
        static ::pimeval::MetricHistogram &pim_metric_site_ =          \
            ::pimeval::PimMetrics::instance().histogram(metric_name);  \
        pim_metric_site_.record(static_cast<double>(v));               \
    } while (0)

#endif // PIMEVAL_CORE_PIM_METRICS_H_
