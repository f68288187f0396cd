/**
 * @file
 * Bench-side span recorder for the traced run: spans are recorded only
 * around the benchmark's own calls into the simulator (a pass, an app
 * on a target, a served job and its stages), kept in memory, and
 * written once at the end in Chrome trace-event format. Self time is a
 * span's duration minus the part of it its child spans cover.
 *
 * One thread records at a time (the workload's driving thread).
 */

#ifndef PIMBENCH_E2E_TRACE_H_
#define PIMBENCH_E2E_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2e {

class SpanTrace
{
  public:
    struct Span
    {
        std::string name;
        std::string req; ///< request id: "p3/GEMM/fulcrum", "job1234"
        int parent = -1;
        uint64_t start_ns = 0;
        uint64_t end_ns = 0;
        int lane = 0; ///< Chrome tid: overlapping requests get lanes
    };

    bool enabled() const { return enabled_; }
    void setEnabled(bool on) { enabled_ = on; }

    /** Open a span starting now; -1 (and no record) while disabled. */
    int open(const char *name, std::string req, int parent = -1);

    /** Close a span opened by open(); ignores -1. */
    void close(int id);

    /** Record a span whose interval was measured elsewhere. */
    int add(const char *name, std::string req, int parent,
            uint64_t start_ns, uint64_t end_ns, int lane = 0);

    size_t size() const { return spans_.size(); }

    /** Total self time per span name, in ms. */
    std::map<std::string, double> selfMs() const;

    /**
     * Write the spans as Chrome trace-event JSON; false on I/O error.
     * @p other_data is the body of a JSON object (possibly empty)
     * placed under "otherData" beside the workload name.
     */
    bool writeChrome(const std::string &path, const std::string &workload,
                     const std::string &other_data) const;

  private:
    bool enabled_ = false;
    std::vector<Span> spans_;
};

/** RAII span: open on construction, close on destruction. */
class SpanScope
{
  public:
    SpanScope(SpanTrace &trace, const char *name, std::string req,
              int parent = -1)
        : trace_(trace), id_(trace.open(name, std::move(req), parent))
    {
    }
    ~SpanScope() { trace_.close(id_); }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    int id() const { return id_; }

  private:
    SpanTrace &trace_;
    int id_;
};

} // namespace e2e

#endif // PIMBENCH_E2E_TRACE_H_
