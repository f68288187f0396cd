/**
 * @file
 * Metrics registry implementation.
 */

#include "core/pim_metrics.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iomanip>
#include <sstream>

namespace pimeval {

namespace detail {
constinit thread_local int tls_metric_domain = -1;
constinit thread_local uint32_t tls_inline_runs = 0;
} // namespace detail

namespace {

// Local formatting helpers: pim_observe sits below pim_util in the
// link order, so it cannot use util/string_utils.

std::string
padRight(const std::string &s, size_t width)
{
    return s.size() >= width ? s : s + std::string(width - s.size(), ' ');
}

std::string
padLeft(const std::string &s, size_t width)
{
    return s.size() >= width ? s : std::string(width - s.size(), ' ') + s;
}

std::string
formatFixed(double v, int precision)
{
    std::ostringstream oss;
    oss << std::fixed << std::setprecision(precision) << v;
    return oss.str();
}

uint64_t
packDouble(double v)
{
    uint64_t b;
    std::memcpy(&b, &v, sizeof(b));
    return b;
}

double
unpackDouble(uint64_t b)
{
    double v;
    std::memcpy(&v, &b, sizeof(v));
    return v;
}

} // namespace

// ---------------------------------------------------------------------------
// MetricHistogram
// ---------------------------------------------------------------------------

int
MetricHistogram::bucketIndex(double v)
{
    // Non-positive values (and NaN) fall into the underflow bin.
    if (!(v > 0.0))
        return 0;
    int exp;
    const double frac = std::frexp(v, &exp); // v = frac * 2^exp
    const int octave = (exp - 1) - kMinExp;  // floor(log2 v) - kMinExp
    if (octave < 0)
        return 0;
    if (octave >= kNumOctaves)
        return kNumBuckets - 1;
    // frac in [0.5, 1): map linearly onto the octave's sub-buckets.
    int sub = static_cast<int>((frac * 2.0 - 1.0) * kSubBuckets);
    sub = std::clamp(sub, 0, kSubBuckets - 1);
    return 1 + octave * kSubBuckets + sub;
}

double
MetricHistogram::bucketMid(int idx)
{
    if (idx <= 0)
        return 0.0;
    if (idx >= kNumBuckets - 1)
        return std::ldexp(1.0, kMaxExp);
    const int body = idx - 1;
    const int octave = body / kSubBuckets;
    const int sub = body % kSubBuckets;
    const double base = std::ldexp(1.0, kMinExp + octave);
    const double lo =
        base * (1.0 + static_cast<double>(sub) / kSubBuckets);
    const double width = base / kSubBuckets;
    return lo + width * 0.5;
}

void
MetricHistogram::Bins::record(double v)
{
    count.fetch_add(1, std::memory_order_relaxed);
    buckets[bucketIndex(v)].fetch_add(1, std::memory_order_relaxed);
    // CAS-accumulate the double sum.
    uint64_t cur = sum_bits.load(std::memory_order_relaxed);
    while (!sum_bits.compare_exchange_weak(
        cur, packDouble(unpackDouble(cur) + v),
        std::memory_order_relaxed))
        ;
    // Min/max start at +/-inf, so first samples need no special case.
    uint64_t min_cur = min_bits.load(std::memory_order_relaxed);
    while (v < unpackDouble(min_cur) &&
           !min_bits.compare_exchange_weak(min_cur, packDouble(v),
                                           std::memory_order_relaxed))
        ;
    uint64_t max_cur = max_bits.load(std::memory_order_relaxed);
    while (v > unpackDouble(max_cur) &&
           !max_bits.compare_exchange_weak(max_cur, packDouble(v),
                                           std::memory_order_relaxed))
        ;
}

void
MetricHistogram::Bins::reset()
{
    count.store(0, std::memory_order_relaxed);
    sum_bits.store(0, std::memory_order_relaxed);
    min_bits.store(kPosInfBits, std::memory_order_relaxed);
    max_bits.store(kNegInfBits, std::memory_order_relaxed);
    for (auto &b : buckets)
        b.store(0, std::memory_order_relaxed);
}

double
MetricHistogram::Bins::percentile(double q) const
{
    // Derive the rank denominator from the bins themselves (not the
    // separately-stored count), so a query racing a reset or a
    // mid-flight record stays self-consistent.
    uint64_t cum[kNumBuckets];
    uint64_t total = 0;
    for (int i = 0; i < kNumBuckets; ++i) {
        total += buckets[i].load(std::memory_order_relaxed);
        cum[i] = total;
    }
    if (total == 0)
        return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    const uint64_t target = std::max<uint64_t>(
        1, static_cast<uint64_t>(std::ceil(q * total)));
    int idx = 0;
    while (idx < kNumBuckets - 1 && cum[idx] < target)
        ++idx;
    double v = bucketMid(idx);
    // Clamp to the observed range: exact at the extremes, and the
    // underflow/overflow bins report the true min/max instead of 0 /
    // 2^kMaxExp.
    const double lo = unpackDouble(min_bits.load(std::memory_order_relaxed));
    const double hi = unpackDouble(max_bits.load(std::memory_order_relaxed));
    if (std::isfinite(lo) && std::isfinite(hi) && lo <= hi)
        v = std::clamp(v, lo, hi);
    return v;
}

MetricHistogram::~MetricHistogram()
{
    for (auto &slot : domains_)
        delete slot.load(std::memory_order_relaxed);
}

MetricHistogram::Bins *
MetricHistogram::domainBins(int slot)
{
    Bins *b = domains_[slot].load(std::memory_order_acquire);
    if (b)
        return b;
    Bins *fresh = new Bins();
    if (domains_[slot].compare_exchange_strong(
            b, fresh, std::memory_order_acq_rel))
        return fresh;
    delete fresh; // another thread won the race
    return b;
}

const MetricHistogram::Bins *
MetricHistogram::domainBinsIfAny(int slot) const
{
    if (slot < 0 || slot >= kPimMetricMaxDomains)
        return nullptr;
    return domains_[slot].load(std::memory_order_acquire);
}

void
MetricHistogram::record(double v)
{
    agg_.record(v);
    const int d = detail::tls_metric_domain;
    if (d >= 0)
        domainBins(d)->record(v);
}

double
MetricHistogram::sum() const
{
    return unpackDouble(agg_.sum_bits.load(std::memory_order_relaxed));
}

double
MetricHistogram::min() const
{
    if (count() == 0)
        return 0.0;
    return unpackDouble(agg_.min_bits.load(std::memory_order_relaxed));
}

double
MetricHistogram::max() const
{
    if (count() == 0)
        return 0.0;
    return unpackDouble(agg_.max_bits.load(std::memory_order_relaxed));
}

double
MetricHistogram::percentile(double q) const
{
    return agg_.percentile(q);
}

uint64_t
MetricHistogram::countInDomain(int slot) const
{
    const Bins *b = domainBinsIfAny(slot);
    return b ? b->count.load(std::memory_order_relaxed) : 0;
}

double
MetricHistogram::sumInDomain(int slot) const
{
    const Bins *b = domainBinsIfAny(slot);
    return b ? unpackDouble(b->sum_bits.load(std::memory_order_relaxed))
             : 0.0;
}

double
MetricHistogram::minInDomain(int slot) const
{
    const Bins *b = domainBinsIfAny(slot);
    if (!b || b->count.load(std::memory_order_relaxed) == 0)
        return 0.0;
    return unpackDouble(b->min_bits.load(std::memory_order_relaxed));
}

double
MetricHistogram::maxInDomain(int slot) const
{
    const Bins *b = domainBinsIfAny(slot);
    if (!b || b->count.load(std::memory_order_relaxed) == 0)
        return 0.0;
    return unpackDouble(b->max_bits.load(std::memory_order_relaxed));
}

double
MetricHistogram::meanInDomain(int slot) const
{
    const uint64_t n = countInDomain(slot);
    return n ? sumInDomain(slot) / static_cast<double>(n) : 0.0;
}

double
MetricHistogram::percentileInDomain(int slot, double q) const
{
    const Bins *b = domainBinsIfAny(slot);
    return b ? b->percentile(q) : 0.0;
}

void
MetricHistogram::reset()
{
    agg_.reset();
    for (auto &slot : domains_) {
        if (Bins *b = slot.load(std::memory_order_acquire))
            b->reset();
    }
}

void
MetricHistogram::resetDomain(int slot)
{
    if (slot < 0 || slot >= kPimMetricMaxDomains)
        return;
    if (Bins *b = domains_[slot].load(std::memory_order_acquire))
        b->reset();
}

// ---------------------------------------------------------------------------
// PimMetrics
// ---------------------------------------------------------------------------

PimMetrics &
PimMetrics::instance()
{
    // Leaked singleton: magic-static handles cached at instrumentation
    // sites may be touched during static destruction.
    static PimMetrics *metrics = new PimMetrics();
    return *metrics;
}

MetricCounter &
PimMetrics::counter(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = counters_[name];
    if (!slot)
        slot = std::make_unique<MetricCounter>(name);
    return *slot;
}

MetricGauge &
PimMetrics::gauge(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = gauges_[name];
    if (!slot)
        slot = std::make_unique<MetricGauge>(name);
    return *slot;
}

MetricHistogram &
PimMetrics::histogram(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = histograms_[name];
    if (!slot)
        slot = std::make_unique<MetricHistogram>(name);
    return *slot;
}

void
PimMetrics::publishThreadTally()
{
    const uint32_t pending = detail::tls_inline_runs;
    if (pending == 0)
        return;
    detail::tls_inline_runs = 0;
    static MetricCounter &inline_runs =
        instance().counter("threadpool.inline_runs");
    inline_runs.add(pending);
}

namespace {

/** Publishes the owning thread's pending tally when the thread exits. */
struct ThreadTallyFlusher
{
    ~ThreadTallyFlusher() { PimMetrics::publishThreadTally(); }
};

} // namespace

void
PimMetrics::setThreadDomain(int slot)
{
    publishThreadTally();
    // Every thread that issues commands binds a domain first, so this
    // arms the exit-time publish for each of them (constructed on the
    // first call only).
    static thread_local ThreadTallyFlusher flusher;
    detail::tls_metric_domain =
        (slot >= 0 && slot < kPimMetricMaxDomains) ? slot : -1;
}

bool
PimMetrics::get(const std::string &name, double *value) const
{
    publishThreadTally();
    std::lock_guard<std::mutex> lock(mutex_);
    if (const auto it = counters_.find(name); it != counters_.end()) {
        if (value)
            *value = static_cast<double>(it->second->value());
        return true;
    }
    if (const auto it = gauges_.find(name); it != gauges_.end()) {
        if (value)
            *value = it->second->value();
        return true;
    }
    if (const auto it = histograms_.find(name);
        it != histograms_.end()) {
        if (value)
            *value = it->second->mean();
        return true;
    }
    return false;
}

namespace {

PimMetricValue
histogramValue(const MetricHistogram &h)
{
    PimMetricValue v;
    v.kind = PimMetricValue::Kind::kHistogram;
    v.count = h.count();
    v.sum = h.sum();
    v.min = h.min();
    v.max = h.max();
    v.value = h.mean();
    v.p50 = h.percentile(0.50);
    v.p90 = h.percentile(0.90);
    v.p99 = h.percentile(0.99);
    v.p999 = h.percentile(0.999);
    return v;
}

PimMetricValue
histogramDomainValue(const MetricHistogram &h, int slot)
{
    PimMetricValue v;
    v.kind = PimMetricValue::Kind::kHistogram;
    v.count = h.countInDomain(slot);
    v.sum = h.sumInDomain(slot);
    v.min = h.minInDomain(slot);
    v.max = h.maxInDomain(slot);
    v.value = h.meanInDomain(slot);
    v.p50 = h.percentileInDomain(slot, 0.50);
    v.p90 = h.percentileInDomain(slot, 0.90);
    v.p99 = h.percentileInDomain(slot, 0.99);
    v.p999 = h.percentileInDomain(slot, 0.999);
    return v;
}

} // namespace

std::map<std::string, PimMetricValue>
PimMetrics::snapshotAll() const
{
    publishThreadTally();
    std::lock_guard<std::mutex> lock(mutex_);
    std::map<std::string, PimMetricValue> out;
    for (const auto &[name, c] : counters_) {
        PimMetricValue v;
        v.kind = PimMetricValue::Kind::kCounter;
        v.count = c->value();
        v.value = static_cast<double>(c->value());
        out.emplace(name, v);
    }
    for (const auto &[name, g] : gauges_) {
        PimMetricValue v;
        v.kind = PimMetricValue::Kind::kGauge;
        v.value = g->value();
        out.emplace(name, v);
    }
    for (const auto &[name, h] : histograms_)
        out.emplace(name, histogramValue(*h));
    return out;
}

void
PimMetrics::resetLocked()
{
    for (auto &[name, c] : counters_)
        c->reset();
    for (auto &[name, g] : gauges_)
        g->reset();
    for (auto &[name, h] : histograms_)
        h->reset();
}

void
PimMetrics::reset()
{
    publishThreadTally();
    std::lock_guard<std::mutex> lock(mutex_);
    resetLocked();
}

int
PimMetrics::acquireDomain(uint64_t ctx_id)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (const auto it = domain_of_ctx_.find(ctx_id);
        it != domain_of_ctx_.end())
        return it->second;
    for (int slot = 0; slot < kPimMetricMaxDomains; ++slot) {
        const uint64_t bit = uint64_t{1} << slot;
        if (domain_slots_used_ & bit)
            continue;
        domain_slots_used_ |= bit;
        domain_of_ctx_[ctx_id] = slot;
        return slot;
    }
    return -1; // all slots live; context aggregates only
}

void
PimMetrics::releaseDomain(uint64_t ctx_id)
{
    publishThreadTally();
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = domain_of_ctx_.find(ctx_id);
    if (it == domain_of_ctx_.end())
        return;
    const int slot = it->second;
    domain_of_ctx_.erase(it);
    domain_slots_used_ &= ~(uint64_t{1} << slot);
    // Scrub the slot so the next context reusing it starts clean.
    for (auto &[name, c] : counters_)
        c->resetDomain(slot);
    for (auto &[name, g] : gauges_)
        g->resetDomain(slot);
    for (auto &[name, h] : histograms_)
        h->resetDomain(slot);
}

int
PimMetrics::domainSlot(uint64_t ctx_id) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = domain_of_ctx_.find(ctx_id);
    return it == domain_of_ctx_.end() ? -1 : it->second;
}

std::map<std::string, PimMetricValue>
PimMetrics::snapshotDomain(uint64_t ctx_id) const
{
    publishThreadTally();
    std::lock_guard<std::mutex> lock(mutex_);
    std::map<std::string, PimMetricValue> out;
    const auto it = domain_of_ctx_.find(ctx_id);
    if (it == domain_of_ctx_.end())
        return out;
    const int slot = it->second;
    for (const auto &[name, c] : counters_) {
        PimMetricValue v;
        v.kind = PimMetricValue::Kind::kCounter;
        v.count = c->valueInDomain(slot);
        v.value = static_cast<double>(v.count);
        out.emplace(name, v);
    }
    for (const auto &[name, g] : gauges_) {
        PimMetricValue v;
        v.kind = PimMetricValue::Kind::kGauge;
        v.value = g->valueInDomain(slot);
        out.emplace(name, v);
    }
    for (const auto &[name, h] : histograms_)
        out.emplace(name, histogramDomainValue(*h, slot));
    return out;
}

void
PimMetrics::printReport(std::ostream &os) const
{
    const auto all = snapshotAll();
    os << "----------------------------------------\n";
    os << "Simulator Metrics:\n";
    os << "  " << padRight("METRIC", 36) << padLeft("VALUE", 16)
       << "\n";
    for (const auto &[name, v] : all) {
        switch (v.kind) {
          case PimMetricValue::Kind::kCounter:
            if (v.count == 0)
                continue;
            os << "  " << padRight(name, 36)
               << padLeft(std::to_string(v.count), 16) << "\n";
            break;
          case PimMetricValue::Kind::kGauge:
            if (v.value == 0.0)
                continue;
            os << "  " << padRight(name, 36)
               << padLeft(formatFixed(v.value, 3), 16) << "\n";
            break;
          case PimMetricValue::Kind::kHistogram:
            if (v.count == 0)
                continue;
            os << "  " << padRight(name, 36)
               << padLeft("mean " + formatFixed(v.value, 3) +
                              " p50 " + formatFixed(v.p50, 3) +
                              " p99 " + formatFixed(v.p99, 3) +
                              " n " + std::to_string(v.count),
                          16)
               << "\n";
            break;
        }
    }
    os << "----------------------------------------\n";
}

void
PimMetrics::dumpJson(std::ostream &os) const
{
    const auto all = snapshotAll();
    os << "{";
    bool first = true;
    auto sep = [&]() {
        if (!first)
            os << ",";
        first = false;
        os << "\n  ";
    };
    const auto flags = os.flags();
    os << std::setprecision(17);
    for (const auto &[name, v] : all) {
        sep();
        os << "\"" << name << "\": ";
        switch (v.kind) {
          case PimMetricValue::Kind::kCounter:
            os << v.count;
            break;
          case PimMetricValue::Kind::kGauge:
            os << v.value;
            break;
          case PimMetricValue::Kind::kHistogram:
            os << "{\"count\": " << v.count << ", \"sum\": " << v.sum
               << ", \"mean\": " << v.value << ", \"min\": " << v.min
               << ", \"max\": " << v.max << ", \"p50\": " << v.p50
               << ", \"p90\": " << v.p90 << ", \"p99\": " << v.p99
               << ", \"p999\": " << v.p999 << "}";
            break;
        }
    }
    os << "\n}\n";
    os.flags(flags);
}

} // namespace pimeval
