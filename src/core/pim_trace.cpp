/**
 * @file
 * Tracer implementation: per-thread ring buffers, the Chrome
 * trace-event JSON exporter, and a validator that parses exported
 * traces back (tests and the trace_smoke ctest).
 */

#include "core/pim_trace.h"

#include "core/pim_json.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace pimeval {

namespace {

/** pim_observe sits below pim_util, so log in the PIM-Error style
 *  directly instead of pulling in util/logging. */
void
traceError(const std::string &msg)
{
    std::fprintf(stderr, "PIM-Error: %s\n", msg.c_str());
}

} // namespace

std::atomic<bool> PimTracer::enabled_flag_{false};

PimTracer &
PimTracer::instance()
{
    // Leaked singleton: threads may record during static destruction.
    static PimTracer *tracer = new PimTracer();
    return *tracer;
}

PimTracer::ThreadBuffer &
PimTracer::localBuffer()
{
    thread_local ThreadBuffer *buffer = nullptr;
    if (!buffer) {
        auto owned = std::make_shared<ThreadBuffer>();
        std::lock_guard<std::mutex> lock(registry_mutex_);
        owned->tid = static_cast<uint32_t>(buffers_.size());
        buffers_.push_back(owned);
        buffer = owned.get();
    }
    return *buffer;
}

void
PimTracer::record(const TraceEvent &event)
{
    // Shared gate: concurrent with other writers, excluded against
    // begin/end/export. Re-check under the gate so control operations
    // observe a quiesced state.
    std::shared_lock<std::shared_mutex> lock(gate_);
    if (!enabled())
        return;
    ThreadBuffer &buf = localBuffer();
    // A thread's ring is sized at its first event, so a thread that
    // only names itself, or runs while tracing is off, holds none.
    // Exporters read rings under the exclusive gate, so the owner may
    // grow its own under the shared one.
    if (buf.ring.empty())
        buf.ring.resize(kRingCapacity);
    const uint64_t n = buf.count.load(std::memory_order_relaxed);
    buf.ring[n % buf.ring.size()] = event;
    buf.count.store(n + 1, std::memory_order_release);
}

void
PimTracer::begin(const std::string &path)
{
    std::unique_lock<std::shared_mutex> lock(gate_);
    {
        std::lock_guard<std::mutex> reg(registry_mutex_);
        for (auto &buf : buffers_)
            buf->count.store(0, std::memory_order_relaxed);
    }
    path_ = path;
    epoch_ = std::chrono::steady_clock::now();
    enabled_flag_.store(true, std::memory_order_release);
}

bool
PimTracer::end(const std::string &path)
{
    enabled_flag_.store(false, std::memory_order_release);
    // Unique acquisition waits out writers that passed the flag check.
    std::unique_lock<std::shared_mutex> lock(gate_);
    const std::string &target = path.empty() ? path_ : path;
    if (target.empty())
        return true;
    return exportJson(target);
}

bool
PimTracer::dump(const std::string &path) const
{
    std::unique_lock<std::shared_mutex> lock(gate_);
    return exportJson(path);
}

void
PimTracer::recordSpan(const char *name, const char *category,
                      uint64_t start_ns, uint64_t end_ns, uint64_t arg)
{
    TraceEvent e;
    e.type = TraceEventType::kSpan;
    e.name = name;
    e.category = category;
    e.ts_ns = start_ns;
    e.dur_ns = end_ns > start_ns ? end_ns - start_ns : 0;
    e.arg = arg;
    record(e);
}

void
PimTracer::recordInstant(const char *name, const char *category,
                         uint64_t arg)
{
    TraceEvent e;
    e.type = TraceEventType::kInstant;
    e.name = name;
    e.category = category;
    e.ts_ns = nowNs();
    e.arg = arg;
    record(e);
}

void
PimTracer::recordModeledSpan(const char *name,
                             double modeled_start_sec,
                             double modeled_dur_sec, uint64_t arg,
                             uint32_t ctx)
{
    TraceEvent e;
    e.type = TraceEventType::kModeledSpan;
    e.name = name;
    e.category = "modeled";
    e.ts_ns = nowNs();
    e.modeled_sec = modeled_start_sec;
    e.modeled_dur_sec = modeled_dur_sec;
    e.arg = arg;
    e.ctx = ctx == 0 ? 1 : ctx;
    record(e);
}

void
PimTracer::registerContext(uint32_t id, const std::string &label)
{
    if (id == 0)
        return;
    std::lock_guard<std::mutex> lock(registry_mutex_);
    for (auto &[cid, clabel] : contexts_) {
        if (cid == id) {
            clabel = label;
            return;
        }
    }
    contexts_.emplace_back(id, label);
}

void
PimTracer::setThreadName(const std::string &name)
{
    ThreadBuffer &buf = localBuffer();
    std::lock_guard<std::mutex> lock(registry_mutex_);
    buf.name = name;
}

const char *
PimTracer::intern(const std::string &s)
{
    std::lock_guard<std::mutex> lock(intern_mutex_);
    return interned_.insert(s).first->c_str();
}

std::vector<TraceEvent>
PimTracer::snapshotEvents() const
{
    std::unique_lock<std::shared_mutex> lock(gate_);
    std::vector<TraceEvent> events;
    std::lock_guard<std::mutex> reg(registry_mutex_);
    for (const auto &buf : buffers_) {
        const uint64_t n = buf->count.load(std::memory_order_acquire);
        const uint64_t size = buf->ring.size();
        if (size == 0 || n == 0)
            continue;
        const uint64_t kept = n < size ? n : size;
        for (uint64_t i = n - kept; i < n; ++i)
            events.push_back(buf->ring[i % size]);
    }
    return events;
}

uint64_t
PimTracer::droppedEvents() const
{
    std::unique_lock<std::shared_mutex> lock(gate_);
    std::lock_guard<std::mutex> reg(registry_mutex_);
    uint64_t dropped = 0;
    for (const auto &buf : buffers_) {
        const uint64_t n = buf->count.load(std::memory_order_acquire);
        if (n > buf->ring.size())
            dropped += n - buf->ring.size();
    }
    return dropped;
}

namespace {

/** Microseconds with sub-µs fraction, the Chrome "ts" unit. */
std::string
formatUs(double us)
{
    char tmp[40];
    std::snprintf(tmp, sizeof(tmp), "%.3f", us);
    return tmp;
}

constexpr int kHostPid = 1; ///< host-thread tracks
/** Modeled-PIM-time tracks: one process per context, pid = 1 + ctx.
 *  The default context (ctx 1) keeps the legacy pid 2. */
constexpr int
modeledPid(uint32_t ctx)
{
    return 1 + static_cast<int>(ctx == 0 ? 1 : ctx);
}

} // namespace

bool
PimTracer::exportJson(const std::string &path) const
{
    std::ofstream os(path);
    if (!os) {
        traceError("trace: cannot open '" + path + "' for writing");
        return false;
    }
    os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
    bool first = true;
    auto emit = [&](const std::string &line) {
        if (!first)
            os << ",\n";
        first = false;
        os << line;
    };
    emit("{\"ph\":\"M\",\"pid\":" + std::to_string(kHostPid) +
         ",\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":"
         "\"pimeval host\"}}");

    std::lock_guard<std::mutex> reg(registry_mutex_);
    // One modeled-time process per context. The default context keeps
    // the legacy "modeled PIM device" name (and pid 2); additional
    // contexts appear as their own processes, named by their labels.
    {
        std::vector<std::pair<uint32_t, std::string>> ctxs = contexts_;
        const bool has_default =
            std::any_of(ctxs.begin(), ctxs.end(),
                        [](const auto &c) { return c.first == 1; });
        if (!has_default)
            ctxs.emplace_back(1, std::string());
        std::sort(ctxs.begin(), ctxs.end());
        for (const auto &[id, label] : ctxs) {
            std::string pname = "modeled PIM device";
            if (!label.empty())
                pname += ": " + label;
            else if (id != 1)
                pname += " (ctx " + std::to_string(id) + ")";
            emit("{\"ph\":\"M\",\"pid\":" +
                 std::to_string(modeledPid(id)) +
                 ",\"tid\":0,\"name\":\"process_name\",\"args\":{"
                 "\"name\":\"" + jsonEscape(pname) + "\"}}");
            emit("{\"ph\":\"M\",\"pid\":" +
                 std::to_string(modeledPid(id)) +
                 ",\"tid\":1,\"name\":\"thread_name\",\"args\":{"
                 "\"name\":\"modeled time (committed order)\"}}");
        }
    }
    for (const auto &buf : buffers_) {
        const std::string name =
            buf->name.empty() ? "thread-" + std::to_string(buf->tid)
                              : buf->name;
        emit("{\"ph\":\"M\",\"pid\":" + std::to_string(kHostPid) +
             ",\"tid\":" + std::to_string(buf->tid) +
             ",\"name\":\"thread_name\",\"args\":{\"name\":\"" +
             jsonEscape(name) + "\"}}");
    }
    for (const auto &buf : buffers_) {
        const uint64_t n = buf->count.load(std::memory_order_acquire);
        const uint64_t size = buf->ring.size();
        if (size == 0 || n == 0)
            continue;
        const uint64_t kept = n < size ? n : size;
        const std::string tid = std::to_string(buf->tid);
        for (uint64_t i = n - kept; i < n; ++i) {
            const TraceEvent &e = buf->ring[i % size];
            const std::string name = jsonEscape(e.name ? e.name : "");
            const std::string cat =
                jsonEscape(e.category ? e.category : "pim");
            const std::string ts = formatUs(e.ts_ns / 1e3);
            std::string line;
            switch (e.type) {
              case TraceEventType::kSpan:
                line = "{\"ph\":\"X\",\"pid\":1,\"tid\":" + tid +
                       ",\"name\":\"" + name + "\",\"cat\":\"" + cat +
                       "\",\"ts\":" + ts +
                       ",\"dur\":" + formatUs(e.dur_ns / 1e3) +
                       ",\"args\":{\"arg\":" + std::to_string(e.arg) +
                       "}}";
                break;
              case TraceEventType::kInstant:
                line = "{\"ph\":\"i\",\"pid\":1,\"tid\":" + tid +
                       ",\"name\":\"" + name + "\",\"cat\":\"" + cat +
                       "\",\"ts\":" + ts + ",\"s\":\"t\"" +
                       ",\"args\":{\"arg\":" + std::to_string(e.arg) +
                       "}}";
                break;
              case TraceEventType::kModeledSpan:
                // Modeled PIM clock: ts is the modeled start (µs of
                // modeled time), host_ts_us ties it back to the host
                // timeline (the dual-clock correspondence).
                line = "{\"ph\":\"X\",\"pid\":" +
                       std::to_string(modeledPid(e.ctx)) +
                       ",\"tid\":1" +
                       std::string(",\"name\":\"") + name +
                       "\",\"cat\":\"" + cat +
                       "\",\"ts\":" + formatUs(e.modeled_sec * 1e6) +
                       ",\"dur\":" +
                       formatUs(e.modeled_dur_sec * 1e6) +
                       ",\"args\":{\"host_ts_us\":" +
                       formatUs(e.ts_ns / 1e3) +
                       ",\"cores\":" + std::to_string(e.arg) + "}}";
                break;
            }
            emit(line);
        }
    }
    os << "\n]}\n";
    return static_cast<bool>(os);
}

// ---------------------------------------------------------------------------
// Trace validation: parse back what exportJson writes (shared reader
// in core/pim_json.h) and check the Chrome trace-event schema.
// ---------------------------------------------------------------------------

bool
pimValidateChromeTraceFile(const std::string &path, size_t *num_events,
                           std::string *error)
{
    if (num_events)
        *num_events = 0;
    if (error)
        error->clear();
    std::ifstream is(path);
    if (!is) {
        if (error)
            *error = "cannot open '" + path + "'";
        return false;
    }
    std::stringstream ss;
    ss << is.rdbuf();
    const std::string text = ss.str();

    JsonValue root;
    std::string parse_error;
    JsonParser parser(text, &parse_error);
    if (!parser.parse(&root)) {
        if (error)
            *error = "JSON parse error: " + parse_error;
        return false;
    }
    if (root.kind != JsonValue::Kind::kObject) {
        if (error)
            *error = "top level is not an object";
        return false;
    }
    const JsonValue *events = root.find("traceEvents");
    if (!events || events->kind != JsonValue::Kind::kArray) {
        if (error)
            *error = "missing traceEvents array";
        return false;
    }
    for (size_t i = 0; i < events->array.size(); ++i) {
        const JsonValue &e = events->array[i];
        const std::string where =
            "traceEvents[" + std::to_string(i) + "]";
        if (e.kind != JsonValue::Kind::kObject) {
            if (error)
                *error = where + " is not an object";
            return false;
        }
        const JsonValue *ph = e.find("ph");
        const JsonValue *name = e.find("name");
        const JsonValue *pid = e.find("pid");
        const JsonValue *tid = e.find("tid");
        if (!ph || ph->kind != JsonValue::Kind::kString ||
            ph->str.empty() || !name ||
            name->kind != JsonValue::Kind::kString || !pid ||
            pid->kind != JsonValue::Kind::kNumber || !tid ||
            tid->kind != JsonValue::Kind::kNumber) {
            if (error)
                *error = where + " lacks ph/name/pid/tid";
            return false;
        }
        if (ph->str != "M") {
            const JsonValue *ts = e.find("ts");
            if (!ts || ts->kind != JsonValue::Kind::kNumber ||
                ts->number < 0) {
                if (error)
                    *error = where + " lacks a valid ts";
                return false;
            }
            if (ph->str == "X") {
                const JsonValue *dur = e.find("dur");
                if (!dur ||
                    dur->kind != JsonValue::Kind::kNumber ||
                    dur->number < 0) {
                    if (error)
                        *error = where + " (X) lacks a valid dur";
                    return false;
                }
            }
        }
    }
    if (num_events)
        *num_events = events->array.size();
    return true;
}

} // namespace pimeval
