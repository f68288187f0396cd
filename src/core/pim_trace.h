/**
 * @file
 * Low-overhead event tracer for the simulator itself (host-side
 * observability, not PIM modeling): scoped spans and instant events
 * recorded into per-thread ring buffers of kRingCapacity events and
 * exported as Chrome trace-event JSON (loadable in Perfetto /
 * chrome://tracing).
 *
 * Dual clocks: every event carries the host wall clock (nanoseconds
 * since trace begin). Events emitted at statistics-commit time
 * additionally carry the modeled PIM clock (accumulated modeled
 * kernel+copy seconds), so the export contains two aligned timelines —
 * one process of host threads and one process of modeled PIM time.
 * All cores of a command run in lockstep, so the modeled timeline is
 * one device-aggregate track (per-core tracks would be N identical
 * copies); each modeled span records the cores it occupied in its
 * args.
 *
 * Concurrency model: each thread owns one ring buffer and appends to
 * it without locks. A reader/writer gate (shared lock per recorded
 * event, exclusive at begin/end/export) quiesces writers so that
 * control operations and exports are race-free — including under
 * ThreadSanitizer. The runtime-disabled fast path is one relaxed
 * atomic load and branch per hook; with -DPIMEVAL_TRACING=OFF the
 * hooks compile away entirely (see the macros at the bottom).
 */

#ifndef PIMEVAL_CORE_PIM_TRACE_H_
#define PIMEVAL_CORE_PIM_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_set>
#include <vector>

#ifndef PIMEVAL_TRACING_ENABLED
#define PIMEVAL_TRACING_ENABLED 1
#endif

namespace pimeval {

enum class TraceEventType : uint8_t {
    kSpan = 0,    ///< complete event with a duration (Chrome "X")
    kInstant,     ///< point event (Chrome "i")
    kModeledSpan, ///< span on the modeled-PIM-time track
};

/**
 * One recorded event. Names and categories must be string literals or
 * strings interned through PimTracer::intern (the tracer stores the
 * pointer, not a copy).
 */
struct TraceEvent
{
    const char *name = nullptr;
    const char *category = nullptr;
    uint64_t ts_ns = 0;  ///< host clock, ns since trace begin
    uint64_t dur_ns = 0; ///< span duration (spans only)
    /** Modeled PIM clock at the event (seconds); < 0 when the event
     *  has no modeled-time meaning. */
    double modeled_sec = -1.0;
    /** Modeled duration (modeled spans only). */
    double modeled_dur_sec = 0.0;
    uint64_t arg = 0; ///< generic payload (bytes, seq, elements, ...)
    /** Owning PIM context of a modeled span (context ids start at 1;
     *  the default context is 1, so its modeled track keeps the
     *  legacy pid 2 = 1 + ctx in the export). */
    uint32_t ctx = 1;
    TraceEventType type = TraceEventType::kInstant;
};

/**
 * Process-wide tracer. All methods are thread-safe. Inactive by
 * default; activate with begin() (or the PIMEVAL_TRACE environment
 * variable, honored at device creation) and export with end() or
 * dump().
 */
class PimTracer
{
  public:
    static PimTracer &instance();

    /** Hook fast path: one relaxed load, safe before instance(). */
    static bool enabled()
    {
        return enabled_flag_.load(std::memory_order_relaxed);
    }

    /**
     * Start (or restart) tracing: drops every buffered event, re-arms
     * the epoch, and remembers @p path as the default export target.
     */
    void begin(const std::string &path);

    /**
     * Stop tracing and export to @p path (empty = the begin() path).
     * Buffers are retained until the next begin(), so dump() can still
     * re-export. @return false when the file cannot be written.
     */
    bool end(const std::string &path = "");

    /** Export a snapshot without stopping. */
    bool dump(const std::string &path) const;

    bool active() const { return enabled(); }
    const std::string &outputPath() const { return path_; }

    /** Host clock in ns since the trace epoch. */
    uint64_t nowNs() const
    {
        return static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - epoch_)
                .count());
    }

    /** Record a completed span [start_ns, end_ns) on this thread. */
    void recordSpan(const char *name, const char *category,
                    uint64_t start_ns, uint64_t end_ns,
                    uint64_t arg = 0);

    /** Record an instant event on this thread. */
    void recordInstant(const char *name, const char *category,
                       uint64_t arg = 0);

    /**
     * Record a span on the modeled-PIM-time track: the command named
     * @p name occupied modeled time [modeled_start_sec,
     * modeled_start_sec + modeled_dur_sec). @p arg carries the cores
     * used. Also timestamps the host clock, giving the dual-clock
     * correspondence. @p ctx is the owning context id (each context
     * exports its own modeled-time process, pid = 1 + ctx).
     */
    void recordModeledSpan(const char *name,
                           double modeled_start_sec,
                           double modeled_dur_sec, uint64_t arg = 0,
                           uint32_t ctx = 1);

    /**
     * Register a PIM context for export labeling: the context's
     * modeled-time track (pid = 1 + @p id) is named after @p label in
     * the Chrome trace metadata. Idempotent; callable whether or not
     * tracing is active. Context 1 (the process default) keeps the
     * legacy "modeled PIM device" name when its label is empty.
     */
    void registerContext(uint32_t id, const std::string &label);

    /**
     * Name the calling thread's track in the export (e.g.
     * "issue-thread"). Cheap; callable whether or not tracing is
     * active.
     */
    void setThreadName(const std::string &name);

    /**
     * Intern a dynamic string, returning a pointer that stays valid
     * for the process lifetime (event names must outlive the trace).
     */
    const char *intern(const std::string &s);

    /** All currently buffered events (oldest first per thread), for
     *  tests and exporters. Quiesces writers while copying. */
    std::vector<TraceEvent> snapshotEvents() const;

    /** Events lost to ring overwrite since begin(). */
    uint64_t droppedEvents() const;

    /** Per-thread ring capacity (events); on overflow the oldest
     *  events are dropped and counted (droppedEvents). */
    static constexpr size_t kRingCapacity = size_t{1} << 15;

  private:
    PimTracer() = default;

    /** One thread's ring, empty until the thread records its first
     *  event. Written lock-free by its owner under the shared gate;
     *  read only under the exclusive gate. */
    struct ThreadBuffer
    {
        std::vector<TraceEvent> ring;
        /** Total events ever written this session; slot = n % size. */
        std::atomic<uint64_t> count{0};
        std::string name;
        uint32_t tid = 0;
    };

    ThreadBuffer &localBuffer();
    void record(const TraceEvent &event);
    bool exportJson(const std::string &path) const;

    static std::atomic<bool> enabled_flag_;

    /** Writers hold shared; begin/end/export/snapshot hold
     *  exclusive. */
    mutable std::shared_mutex gate_;
    mutable std::mutex registry_mutex_;
    std::vector<std::shared_ptr<ThreadBuffer>> buffers_;
    /** Context id -> label for export metadata (registerContext). */
    std::vector<std::pair<uint32_t, std::string>> contexts_;
    std::string path_;
    std::chrono::steady_clock::time_point epoch_ =
        std::chrono::steady_clock::now();

    std::mutex intern_mutex_;
    std::unordered_set<std::string> interned_;
};

/**
 * RAII span: stamps the start on construction (when tracing is
 * enabled) and records the completed span on destruction. Use through
 * PIM_TRACE_SCOPE so the whole object disappears under
 * -DPIMEVAL_TRACING=OFF.
 */
class PimTraceScope
{
  public:
    PimTraceScope(const char *name, const char *category,
                  uint64_t arg = 0)
    {
        if (PimTracer::enabled()) {
            name_ = name;
            category_ = category;
            arg_ = arg;
            start_ns_ = PimTracer::instance().nowNs() + 1;
        }
    }

    ~PimTraceScope()
    {
        if (start_ns_ != 0) {
            PimTracer &tracer = PimTracer::instance();
            tracer.recordSpan(name_, category_, start_ns_ - 1,
                              tracer.nowNs(), arg_);
        }
    }

    PimTraceScope(const PimTraceScope &) = delete;
    PimTraceScope &operator=(const PimTraceScope &) = delete;

  private:
    const char *name_ = nullptr;
    const char *category_ = nullptr;
    uint64_t arg_ = 0;
    /** 0 = disabled at construction (nowNs()+1 keeps 0 reserved). */
    uint64_t start_ns_ = 0;
};

/**
 * RAII export guard for a whole trace session. A trace armed through
 * the PIMEVAL_TRACE environment variable is normally exported by
 * pimDeleteDevice(); a program that errors out early and returns
 * before tearing the device down would leave the trace armed but
 * never written. Construct one of these at the top of main (pass the
 * intended output path, typically the PIMEVAL_TRACE value): if no
 * trace is active yet it begins one, and whichever way the scope
 * exits — early-error returns included — the destructor exports any
 * still-active trace instead of dropping it.
 *
 * The guard stands down automatically when something else (e.g.
 * pimDeleteDevice or an explicit pimTraceEnd) already exported the
 * trace: the destructor only acts while tracing is still enabled.
 * With an empty path, or under -DPIMEVAL_TRACING=OFF, it is a no-op.
 */
class PimScopedTraceExport
{
  public:
    explicit PimScopedTraceExport(const std::string &path)
    {
#if PIMEVAL_TRACING_ENABLED
        if (path.empty())
            return;
        path_ = path;
        if (!PimTracer::enabled())
            PimTracer::instance().begin(path_);
#else
        (void)path;
#endif
    }

    ~PimScopedTraceExport()
    {
#if PIMEVAL_TRACING_ENABLED
        if (!path_.empty() && PimTracer::enabled())
            PimTracer::instance().end(path_);
#endif
    }

    PimScopedTraceExport(const PimScopedTraceExport &) = delete;
    PimScopedTraceExport &operator=(const PimScopedTraceExport &) =
        delete;

  private:
    std::string path_;
};

/**
 * Minimal JSON validation of an exported Chrome trace file: the whole
 * file must parse as JSON and contain a "traceEvents" array whose
 * entries carry the required ph/name/pid/tid/ts fields. Used by
 * test_trace and the trace_smoke ctest.
 * @param num_events out: number of trace events (may be null).
 * @param error      out: first problem found (may be null).
 */
bool pimValidateChromeTraceFile(const std::string &path,
                                size_t *num_events, std::string *error);

} // namespace pimeval

// ---------------------------------------------------------------------------
// Hook macros. With PIMEVAL_TRACING=OFF (CMake option) every hook
// compiles to an empty statement; with tracing compiled in but not
// begun, each hook costs one relaxed atomic load and branch.
// ---------------------------------------------------------------------------

#if PIMEVAL_TRACING_ENABLED

#define PIM_TRACE_CONCAT_INNER_(a, b) a##b
#define PIM_TRACE_CONCAT_(a, b) PIM_TRACE_CONCAT_INNER_(a, b)

/** Scoped span covering the rest of the enclosing block. */
#define PIM_TRACE_SCOPE(name, category)                                \
    ::pimeval::PimTraceScope PIM_TRACE_CONCAT_(pim_trace_scope_,       \
                                               __LINE__)((name),       \
                                                         (category))

/** Scoped span with a numeric payload (bytes, elements, seq...). */
#define PIM_TRACE_SCOPE_ARG(name, category, arg)                       \
    ::pimeval::PimTraceScope PIM_TRACE_CONCAT_(pim_trace_scope_,       \
                                               __LINE__)(              \
        (name), (category), static_cast<uint64_t>(arg))

/** Instant event. */
#define PIM_TRACE_INSTANT(name, category, arg)                         \
    do {                                                               \
        if (::pimeval::PimTracer::enabled())                           \
            ::pimeval::PimTracer::instance().recordInstant(            \
                (name), (category), static_cast<uint64_t>(arg));       \
    } while (0)

#else // !PIMEVAL_TRACING_ENABLED

#define PIM_TRACE_SCOPE(name, category)                                \
    do {                                                               \
    } while (0)
#define PIM_TRACE_SCOPE_ARG(name, category, arg)                       \
    do {                                                               \
    } while (0)
#define PIM_TRACE_INSTANT(name, category, arg)                         \
    do {                                                               \
    } while (0)

#endif // PIMEVAL_TRACING_ENABLED

#endif // PIMEVAL_CORE_PIM_TRACE_H_
