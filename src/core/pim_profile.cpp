/**
 * @file
 * Profiler implementation: per-thread phase stacks folding into a
 * global aggregated phase tree, a background registry sampler, and
 * the PROFILE.json / HTML exporters with bottleneck attribution.
 *
 * This file is only built when PIMEVAL_TRACING is ON (see
 * core/CMakeLists.txt); the OFF configuration uses the inline stubs
 * in pim_profile.h and contains no profile symbols.
 */

#include "core/pim_profile.h"

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <sstream>

#include "core/pim_device.h"
#include "core/pim_json.h"
#include "core/pim_metrics.h"
#include "core/pim_sim.h"
#include "core/pim_stats.h"
#include "util/logging.h"

namespace pimeval {

std::atomic<bool> PimProfiler::enabled_flag_{false};

// ---------------------------------------------------------------------------
// Internal state
// ---------------------------------------------------------------------------

/** One aggregated node of the global phase tree. Guarded by the
 *  profiler mutex except for the histogram, which is internally
 *  lock-free (it is still only recorded under the mutex). */
struct PimProfiler::Node
{
    explicit Node(std::string n) : name(std::move(n)) {}

    std::string name;
    int parent = -1;
    int depth = 0;
    uint32_t ctx = 0;
    uint64_t count = 0;
    uint64_t host_ns_total = 0;
    MetricHistogram host_ns{"phase.host_ns"};
    double kernel_sec = 0.0;
    double copy_sec = 0.0;
    double host_sec = 0.0;
    uint64_t bytes_h2d = 0;
    uint64_t bytes_d2h = 0;
    uint64_t bytes_d2d = 0;
};

namespace {

/** One phase a thread has begun but not yet ended. */
struct OpenPhaseRec
{
    int node = -1;
    uint64_t gen = 0;      ///< profiler generation at begin
    uint64_t start_ns = 0; ///< taken last in beginPhase
    uint32_t ctx = 0;
    bool has_stats = false;
    PimRunStats stats0;
};

thread_local std::vector<OpenPhaseRec> tls_phase_stack;

/** Generation counter: stale open phases from before a
 *  start()/reset() are dropped at end instead of folding into the
 *  fresh tree. */
std::atomic<uint64_t> g_profile_gen{0};

std::string
htmlPathFor(const std::string &json_path)
{
    const std::string suffix = ".json";
    if (json_path.size() > suffix.size() &&
        json_path.compare(json_path.size() - suffix.size(),
                          suffix.size(), suffix) == 0)
        return json_path.substr(0, json_path.size() - suffix.size()) +
            ".html";
    return json_path + ".html";
}

} // namespace

// ---------------------------------------------------------------------------
// PimProfiler
// ---------------------------------------------------------------------------

PimProfiler &
PimProfiler::instance()
{
    // Leaked singleton: phase scopes may close during static
    // destruction.
    static PimProfiler *profiler = new PimProfiler();
    return *profiler;
}

PimProfiler::~PimProfiler() = default;

uint64_t
PimProfiler::nowNs() const
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
}

int
PimProfiler::nodeIndex(int parent, const char *name)
{
    const auto key = std::make_pair(parent, std::string(name));
    const auto it = index_.find(key);
    if (it != index_.end())
        return it->second;
    auto node = std::make_unique<Node>(key.second);
    node->parent = parent;
    node->depth = parent < 0 ? 0 : nodes_[parent]->depth + 1;
    const int idx = static_cast<int>(nodes_.size());
    nodes_.push_back(std::move(node));
    index_.emplace(key, idx);
    return idx;
}

void
PimProfiler::beginPhase(const char *name)
{
    if (!enabled() || !name || !*name)
        return;
    OpenPhaseRec op;
    op.gen = g_profile_gen.load(std::memory_order_acquire);
    // Snapshot the modeled-stats baseline outside the profiler mutex
    // (the stats record takes its own lock).
    if (PimDevice *dev = PimSim::instance().device()) {
        op.ctx = dev->contextId();
        op.stats0 = dev->stats().snapshot();
        op.has_stats = true;
    }
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const int parent =
            tls_phase_stack.empty() ? -1 : tls_phase_stack.back().node;
        op.node = nodeIndex(parent, name);
        Node *n = nodes_[op.node].get();
        if (n->ctx == 0)
            n->ctx = op.ctx;
    }
    // Taken last so the phase measures user code, not the snapshot.
    op.start_ns = nowNs();
    tls_phase_stack.push_back(std::move(op));
}

void
PimProfiler::endPhase()
{
    if (tls_phase_stack.empty())
        return;
    const uint64_t end_ns = nowNs();
    OpenPhaseRec op = std::move(tls_phase_stack.back());
    tls_phase_stack.pop_back();
    if (!enabled() ||
        op.gen != g_profile_gen.load(std::memory_order_acquire))
        return; // stopped or restarted mid-phase: drop
    const uint64_t host_ns =
        end_ns > op.start_ns ? end_ns - op.start_ns : 0;

    // Deltas, computed outside the profiler mutex. Negative deltas
    // (a stats reset inside the phase) clamp to zero.
    PimRunStats d{};
    if (op.has_stats) {
        if (PimDevice *dev = PimSim::instance().device();
            dev && dev->contextId() == op.ctx) {
            const PimRunStats now = dev->stats().snapshot();
            d.kernel_sec =
                std::max(0.0, now.kernel_sec - op.stats0.kernel_sec);
            d.copy_sec =
                std::max(0.0, now.copy_sec - op.stats0.copy_sec);
            d.host_sec =
                std::max(0.0, now.host_sec - op.stats0.host_sec);
            d.bytes_h2d = now.bytes_h2d >= op.stats0.bytes_h2d
                ? now.bytes_h2d - op.stats0.bytes_h2d
                : 0;
            d.bytes_d2h = now.bytes_d2h >= op.stats0.bytes_d2h
                ? now.bytes_d2h - op.stats0.bytes_d2h
                : 0;
            d.bytes_d2d = now.bytes_d2d >= op.stats0.bytes_d2d
                ? now.bytes_d2d - op.stats0.bytes_d2d
                : 0;
        }
    }

    std::lock_guard<std::mutex> lock(mutex_);
    if (op.node < 0 || op.node >= static_cast<int>(nodes_.size()))
        return;
    Node *n = nodes_[op.node].get();
    n->count += 1;
    n->host_ns_total += host_ns;
    n->host_ns.record(static_cast<double>(host_ns));
    n->kernel_sec += d.kernel_sec;
    n->copy_sec += d.copy_sec;
    n->host_sec += d.host_sec;
    n->bytes_h2d += d.bytes_h2d;
    n->bytes_d2h += d.bytes_d2h;
    n->bytes_d2d += d.bytes_d2d;
}

int
PimProfiler::openDepth() const
{
    return static_cast<int>(tls_phase_stack.size());
}

PimProfileSnapshot
PimProfiler::snapshot() const
{
    PimProfileSnapshot out;
    out.active = enabled();
    out.elapsed_ns = nowNs();
    out.sample_period_ms = kSamplePeriodMs;
    std::lock_guard<std::mutex> lock(mutex_);
    out.phases.reserve(nodes_.size());
    for (const auto &node : nodes_) {
        PimProfilePhase p;
        p.name = node->name;
        p.parent = node->parent;
        p.depth = node->depth;
        p.ctx = node->ctx;
        p.count = node->count;
        p.host_ns_total = node->host_ns_total;
        p.host_ns_min = node->host_ns.min();
        p.host_ns_max = node->host_ns.max();
        p.host_ns_p50 = node->host_ns.percentile(0.50);
        p.host_ns_p90 = node->host_ns.percentile(0.90);
        p.host_ns_p99 = node->host_ns.percentile(0.99);
        p.host_ns_p999 = node->host_ns.percentile(0.999);
        p.kernel_sec = node->kernel_sec;
        p.copy_sec = node->copy_sec;
        p.host_sec = node->host_sec;
        p.bytes_h2d = node->bytes_h2d;
        p.bytes_d2h = node->bytes_d2h;
        p.bytes_d2d = node->bytes_d2d;
        out.phases.push_back(std::move(p));
    }
    out.samples = samples_;
    return out;
}

void
PimProfiler::reset()
{
    g_profile_gen.fetch_add(1, std::memory_order_acq_rel);
    std::lock_guard<std::mutex> lock(mutex_);
    nodes_.clear();
    index_.clear();
    samples_.clear();
    sample_stride_ns_ = 0;
}

void
PimProfiler::start(const std::string &path)
{
    stopSampler();
    g_profile_gen.fetch_add(1, std::memory_order_acq_rel);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        nodes_.clear();
        index_.clear();
        samples_.clear();
        sample_stride_ns_ = 0;
        if (!path.empty())
            path_ = path;
        epoch_ = std::chrono::steady_clock::now();
    }
    enabled_flag_.store(true, std::memory_order_release);
    startSampler();
}

bool
PimProfiler::stop(const std::string &path)
{
    enabled_flag_.store(false, std::memory_order_release);
    stopSampler();
    const std::string target = path.empty() ? path_ : path;
    if (target.empty())
        return false;
    return dump(target);
}

void
PimProfiler::startSampler()
{
    {
        std::lock_guard<std::mutex> lock(sampler_mutex_);
        sampler_stop_ = false;
    }
    sampler_ = std::thread([this] { samplerLoop(); });
}

void
PimProfiler::stopSampler()
{
    {
        std::lock_guard<std::mutex> lock(sampler_mutex_);
        sampler_stop_ = true;
    }
    sampler_cv_.notify_all();
    if (sampler_.joinable())
        sampler_.join();
}

void
PimProfiler::samplerLoop()
{
    PimTracer::instance().setThreadName("profile-sampler");
    const auto period =
        std::chrono::duration<double, std::milli>(kSamplePeriodMs);
    std::unique_lock<std::mutex> lk(sampler_mutex_);
    while (!sampler_stop_) {
        if (sampler_cv_.wait_for(lk, period,
                                 [this] { return sampler_stop_; }))
            break;
        lk.unlock();
        // snapshotAll serializes with pimResetMetrics on the registry
        // mutex: the sampler sees before-or-after, never a mix.
        PimProfileSample s;
        s.t_ns = nowNs();
        for (const auto &[name, v] :
             PimMetrics::instance().snapshotAll())
            s.values[name] =
                v.kind == PimMetricValue::Kind::kCounter
                ? static_cast<double>(v.count)
                : v.value;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            const bool skip = sample_stride_ns_ != 0 &&
                !samples_.empty() &&
                s.t_ns - samples_.back().t_ns < sample_stride_ns_;
            if (!skip) {
                samples_.push_back(std::move(s));
                if (samples_.size() >= kMaxSamples) {
                    // Decimate: keep every other sample, double the
                    // effective stride — bounded memory, full span.
                    std::vector<PimProfileSample> kept;
                    kept.reserve(samples_.size() / 2 + 1);
                    for (size_t i = 0; i < samples_.size(); i += 2)
                        kept.push_back(std::move(samples_[i]));
                    samples_.swap(kept);
                    const uint64_t period_ns = static_cast<uint64_t>(
                        kSamplePeriodMs * 1e6);
                    sample_stride_ns_ = sample_stride_ns_
                        ? sample_stride_ns_ * 2
                        : period_ns * 2;
                }
            }
        }
        lk.lock();
    }
}

// ---------------------------------------------------------------------------
// Export
// ---------------------------------------------------------------------------

namespace {

/** Minimal inline report: phase table with attribution bars,
 *  histogram percentiles, and a time-series chart, all rendered
 *  client-side from the embedded JSON. No external dependencies. */
const char *kHtmlPrefix = R"HTML(<!DOCTYPE html>
<html><head><meta charset="utf-8"><title>PIMeval profile</title>
<style>
body{font-family:system-ui,sans-serif;margin:24px;color:#222}
h1{font-size:20px} h2{font-size:16px;margin-top:28px}
table{border-collapse:collapse;font-size:13px}
th,td{padding:4px 10px;border-bottom:1px solid #ddd;text-align:right}
th{background:#f5f5f5} td.name{text-align:left;font-family:monospace}
.bar{display:inline-block;height:10px;vertical-align:middle}
.c0{background:#4e79a7}.c1{background:#f28e2b}.c2{background:#59a14f}
.legend span{margin-right:14px;font-size:12px}
.muted{color:#888}
svg{border:1px solid #eee;background:#fcfcfc}
select{margin:8px 0}
</style></head><body>
<h1>PIMeval profile report</h1>
<div class="legend"><span><span class="bar c0" style="width:12px"></span>
compute</span><span><span class="bar c1" style="width:12px"></span>
DRAM transfer</span><span><span class="bar c2" style="width:12px"></span>
host overhead</span></div>
<div id="app"></div>
<script id="profile-data" type="application/json">
)HTML";

const char *kHtmlSuffix = R"HTML(
</script>
<script>
const data = JSON.parse(
    document.getElementById('profile-data').textContent);
const app = document.getElementById('app');
const fmt = (v, d = 3) => Number(v).toLocaleString(
    'en-US', {maximumFractionDigits: d});
const ms = ns => fmt(ns / 1e6) + ' ms';
const us = ns => fmt(ns / 1e3, 1);

// --- Phase tree with bottleneck attribution ---
let html = '<h2>Phases (bottleneck attribution)</h2>';
if (!data.phases.length) {
  html += '<p class="muted">No phases recorded.</p>';
} else {
  html += '<table><tr><th>phase</th><th>count</th><th>host total' +
      '</th><th>host p50 µs</th><th>host p99 µs</th>' +
      '<th>modeled total s</th><th>split</th><th>H2D B</th>' +
      '<th>D2H B</th></tr>';
  for (const p of data.phases) {
    const a = p.attribution;
    const w = f => Math.round(f * 120);
    html += '<tr><td class="name">' +
        '&nbsp;'.repeat(p.depth * 3) + p.name + '</td><td>' +
        p.count + '</td><td>' + ms(p.host_ns.total) + '</td><td>' +
        us(p.host_ns.p50) + '</td><td>' + us(p.host_ns.p99) +
        '</td><td>' + fmt(p.modeled_sec.total, 6) + '</td><td>' +
        '<span class="bar c0" style="width:' + w(a.compute) +
        'px"></span><span class="bar c1" style="width:' +
        w(a.dram_transfer) + 'px"></span>' +
        '<span class="bar c2" style="width:' + w(a.host) +
        'px"></span></td><td>' + fmt(p.bytes.h2d, 0) + '</td><td>' +
        fmt(p.bytes.d2h, 0) + '</td></tr>';
  }
  html += '</table>';
}

// --- Latency histograms ---
const hists = Object.entries(data.metrics).filter(
    ([, v]) => v && typeof v === 'object' && v.count > 0);
if (hists.length) {
  html += '<h2>Histograms (log-bucket percentiles)</h2>' +
      '<table><tr><th>metric</th><th>count</th><th>mean</th>' +
      '<th>p50</th><th>p90</th><th>p99</th><th>p99.9</th>' +
      '<th>max</th></tr>';
  for (const [name, v] of hists) {
    html += '<tr><td class="name">' + name + '</td><td>' + v.count +
        '</td><td>' + fmt(v.mean) + '</td><td>' + fmt(v.p50) +
        '</td><td>' + fmt(v.p90) + '</td><td>' + fmt(v.p99) +
        '</td><td>' + fmt(v.p999) + '</td><td>' + fmt(v.max) +
        '</td></tr>';
  }
  html += '</table>';
}

// --- Time series ---
if (data.timeseries && data.timeseries.length > 1) {
  const names = Object.keys(data.timeseries[0].values);
  html += '<h2>Registry time series</h2><select id="ts-metric">' +
      names.map(n => '<option' +
          (n === 'copy.bytes_h2d' ? ' selected' : '') + '>' + n +
          '</option>').join('') +
      '</select><br><svg id="ts" width="720" height="200"></svg>';
  app.innerHTML = html;
  const draw = name => {
    const pts = data.timeseries.map(s => [s.t_ns, s.values[name] || 0]);
    const xs = pts.map(p => p[0]), ys = pts.map(p => p[1]);
    const x0 = Math.min(...xs), x1 = Math.max(...xs);
    const y1 = Math.max(...ys, 1e-12);
    const X = t => 10 + 700 * (t - x0) / Math.max(1, x1 - x0);
    const Y = v => 190 - 180 * (v / y1);
    document.getElementById('ts').innerHTML =
        '<polyline fill="none" stroke="#4e79a7" stroke-width="1.5" ' +
        'points="' + pts.map(p => X(p[0]) + ',' + Y(p[1])).join(' ') +
        '"/><text x="14" y="16" font-size="11" fill="#888">max ' +
        fmt(y1) + '</text>';
  };
  const sel = document.getElementById('ts-metric');
  sel.onchange = () => draw(sel.value);
  draw(sel.value);
} else {
  app.innerHTML = html;
}
</script></body></html>
)HTML";

} // namespace

bool
PimProfiler::dump(const std::string &path) const
{
    if (path.empty())
        return false;
    const PimProfileSnapshot snap = snapshot();

    std::ostringstream json;
    json << std::setprecision(17);
    json << "{\n  \"pimeval_profile_version\": 1,\n";
    json << "  \"active\": " << (snap.active ? "true" : "false")
         << ",\n";
    json << "  \"elapsed_ns\": " << snap.elapsed_ns << ",\n";
    json << "  \"sample_period_ms\": " << jsonFinite(snap.sample_period_ms)
         << ",\n";

    json << "  \"phases\": ";
    writeProfilePhasesJson(json, snap.phases);
    json << ",\n  \"metrics\": ";
    PimMetrics::instance().dumpJson(json);
    json << ",\n";

    json << "  \"contexts\": [";
    const auto contexts = PimSim::instance().listContexts();
    for (size_t i = 0; i < contexts.size(); ++i) {
        json << (i ? ",\n    " : "\n    ");
        json << "{\"id\": " << contexts[i].first << ", \"label\": \""
             << jsonEscape(contexts[i].second) << "\"}";
    }
    json << (contexts.empty() ? "]" : "\n  ]") << ",\n";

    json << "  \"timeseries\": [";
    for (size_t i = 0; i < snap.samples.size(); ++i) {
        const auto &s = snap.samples[i];
        json << (i ? ",\n    " : "\n    ");
        json << "{\"t_ns\": " << s.t_ns << ", \"values\": {";
        bool first = true;
        for (const auto &[name, v] : s.values) {
            if (v == 0.0)
                continue;
            json << (first ? "" : ", ") << "\"" << jsonEscape(name)
                 << "\": " << jsonFinite(v);
            first = false;
        }
        json << "}}";
    }
    json << (snap.samples.empty() ? "]" : "\n  ]") << "\n}\n";

    const std::string text = json.str();
    {
        std::ofstream os(path);
        if (!os) {
            logError("profile: cannot open '" + path +
                     "' for writing");
            return false;
        }
        os << text;
        if (!os)
            return false;
    }
    // Self-contained HTML sibling: the same JSON embedded in a
    // <script> island ("</" escaped so it cannot close the tag).
    std::string embedded;
    embedded.reserve(text.size());
    for (size_t i = 0; i < text.size(); ++i) {
        if (text[i] == '<' && i + 1 < text.size() &&
            text[i + 1] == '/') {
            embedded += "<\\/";
            ++i;
        } else {
            embedded += text[i];
        }
    }
    std::ofstream html(htmlPathFor(path));
    if (!html) {
        logError("profile: cannot open '" + htmlPathFor(path) +
                 "' for writing");
        return false;
    }
    html << kHtmlPrefix << embedded << kHtmlSuffix;
    return static_cast<bool>(html);
}

} // namespace pimeval

// ---------------------------------------------------------------------------
// Public API (global namespace, like the rest of the pim* C API)
// ---------------------------------------------------------------------------

using pimeval::JsonParser;
using pimeval::JsonValue;
using pimeval::logError;
using pimeval::PimDevice;
using pimeval::PimProfiler;
using pimeval::PimSim;

PimStatus
pimProfileStart(const char *path)
{
    if (!path || !*path) {
        logError("pimProfileStart: empty path");
        return PimStatus::PIM_ERROR;
    }
    // Quiesce the device so the profile starts at a command boundary.
    if (PimDevice *dev = PimSim::instance().device())
        dev->sync();
    PimProfiler::instance().start(path);
    return PimStatus::PIM_OK;
}

PimStatus
pimProfileStop(const char *path)
{
    if (PimDevice *dev = PimSim::instance().device())
        dev->sync(); // buffered modeled time lands in the profile
    if (!PimProfiler::instance().stop(path ? std::string(path) : ""))
        return PimStatus::PIM_ERROR;
    return PimStatus::PIM_OK;
}

bool
pimProfileActive()
{
    return PimProfiler::enabled();
}

PimStatus
pimProfileBegin(const char *name)
{
    if (!name || !*name) {
        logError("pimProfileBegin: empty phase name");
        return PimStatus::PIM_ERROR;
    }
    PimProfiler::instance().beginPhase(name);
    return PimStatus::PIM_OK;
}

PimStatus
pimProfileEnd()
{
    PimProfiler::instance().endPhase();
    return PimStatus::PIM_OK;
}

PimStatus
pimDumpProfile(const char *path)
{
    if (!path || !*path) {
        logError("pimDumpProfile: empty path");
        return PimStatus::PIM_ERROR;
    }
    if (PimDevice *dev = PimSim::instance().device())
        dev->sync();
    if (!PimProfiler::instance().dump(path))
        return PimStatus::PIM_ERROR;
    return PimStatus::PIM_OK;
}

pimeval::PimProfileSnapshot
pimProfileSnapshot()
{
    return PimProfiler::instance().snapshot();
}

PimStatus
pimResetProfile()
{
    PimProfiler::instance().reset();
    return PimStatus::PIM_OK;
}

// ---------------------------------------------------------------------------
// Validation
// ---------------------------------------------------------------------------

namespace {

bool
validateFail(std::string *error, const std::string &msg)
{
    if (error && error->empty())
        *error = msg;
    return false;
}

bool
hasNumber(const JsonValue &obj, const char *key)
{
    const JsonValue *v = obj.find(key);
    return v && v->kind == JsonValue::Kind::kNumber;
}

} // namespace

bool
pimValidateProfileFile(const std::string &path, std::string *error)
{
    if (error)
        error->clear();
    std::ifstream is(path);
    if (!is)
        return validateFail(error, "cannot open '" + path + "'");
    std::stringstream ss;
    ss << is.rdbuf();
    const std::string text = ss.str();

    JsonValue root;
    std::string parse_error;
    JsonParser parser(text, &parse_error);
    if (!parser.parse(&root))
        return validateFail(error,
                            "JSON parse error: " + parse_error);
    if (root.kind != JsonValue::Kind::kObject)
        return validateFail(error, "top level is not an object");
    const JsonValue *version = root.find("pimeval_profile_version");
    if (!version || version->kind != JsonValue::Kind::kNumber ||
        version->number < 1)
        return validateFail(error,
                            "missing pimeval_profile_version");
    const JsonValue *phases = root.find("phases");
    if (!phases || phases->kind != JsonValue::Kind::kArray)
        return validateFail(error, "missing phases array");
    for (size_t i = 0; i < phases->array.size(); ++i) {
        const JsonValue &p = phases->array[i];
        const std::string where = "phases[" + std::to_string(i) + "]";
        if (p.kind != JsonValue::Kind::kObject)
            return validateFail(error, where + " is not an object");
        const JsonValue *name = p.find("name");
        if (!name || name->kind != JsonValue::Kind::kString ||
            name->str.empty())
            return validateFail(error, where + " lacks a name");
        if (!hasNumber(p, "count") || !hasNumber(p, "parent") ||
            !hasNumber(p, "depth"))
            return validateFail(error,
                                where + " lacks count/parent/depth");
        const JsonValue *host = p.find("host_ns");
        if (!host || host->kind != JsonValue::Kind::kObject ||
            !hasNumber(*host, "total") || !hasNumber(*host, "p50") ||
            !hasNumber(*host, "p90") || !hasNumber(*host, "p99") ||
            !hasNumber(*host, "p999"))
            return validateFail(
                error, where + " lacks host_ns percentiles");
        const JsonValue *modeled = p.find("modeled_sec");
        if (!modeled || modeled->kind != JsonValue::Kind::kObject ||
            !hasNumber(*modeled, "compute") ||
            !hasNumber(*modeled, "dram_transfer") ||
            !hasNumber(*modeled, "host") ||
            !hasNumber(*modeled, "total"))
            return validateFail(error,
                                where + " lacks the modeled split");
        const JsonValue *attr = p.find("attribution");
        if (!attr || attr->kind != JsonValue::Kind::kObject ||
            !hasNumber(*attr, "compute") ||
            !hasNumber(*attr, "dram_transfer") ||
            !hasNumber(*attr, "host"))
            return validateFail(error,
                                where + " lacks attribution");
        for (const char *key :
             {"compute", "dram_transfer", "host"}) {
            const double f = attr->find(key)->number;
            if (f < 0.0 || f > 1.0 + 1e-9)
                return validateFail(
                    error, where + " attribution out of [0,1]");
        }
    }
    const JsonValue *metrics = root.find("metrics");
    if (!metrics || metrics->kind != JsonValue::Kind::kObject)
        return validateFail(error, "missing metrics object");
    const JsonValue *ts = root.find("timeseries");
    if (!ts || ts->kind != JsonValue::Kind::kArray)
        return validateFail(error, "missing timeseries array");
    for (size_t i = 0; i < ts->array.size(); ++i) {
        const JsonValue &s = ts->array[i];
        if (s.kind != JsonValue::Kind::kObject ||
            !hasNumber(s, "t_ns") || !s.find("values"))
            return validateFail(
                error, "timeseries[" + std::to_string(i) +
                    "] lacks t_ns/values");
    }
    return true;
}
