/**
 * @file
 * Span recorder implementation.
 */

#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "e2e.h"

namespace e2e {

int
SpanTrace::open(const char *name, std::string req, int parent)
{
    if (!enabled_)
        return -1;
    const uint64_t now = nowNs();
    return add(name, std::move(req), parent, now, now);
}

void
SpanTrace::close(int id)
{
    if (id >= 0 && static_cast<size_t>(id) < spans_.size())
        spans_[static_cast<size_t>(id)].end_ns = nowNs();
}

int
SpanTrace::add(const char *name, std::string req, int parent,
               uint64_t start_ns, uint64_t end_ns, int lane)
{
    Span s;
    s.name = name;
    s.req = std::move(req);
    s.parent = parent;
    s.start_ns = start_ns;
    s.end_ns = std::max(start_ns, end_ns);
    s.lane = lane;
    spans_.push_back(std::move(s));
    return static_cast<int>(spans_.size() - 1);
}

std::map<std::string, double>
SpanTrace::selfMs() const
{
    std::vector<std::vector<int>> children(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) {
        const int p = spans_[i].parent;
        if (p >= 0 && static_cast<size_t>(p) < spans_.size())
            children[static_cast<size_t>(p)].push_back(
                static_cast<int>(i));
    }
    std::map<std::string, double> self;
    std::vector<std::pair<uint64_t, uint64_t>> iv;
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        // Union of the children's intervals, clipped to the parent.
        iv.clear();
        for (const int c : children[i]) {
            const Span &k = spans_[static_cast<size_t>(c)];
            const uint64_t lo = std::max(k.start_ns, s.start_ns);
            const uint64_t hi = std::min(k.end_ns, s.end_ns);
            if (lo < hi)
                iv.emplace_back(lo, hi);
        }
        std::sort(iv.begin(), iv.end());
        uint64_t covered = 0, cur_lo = 0, cur_hi = 0;
        bool open_run = false;
        for (const auto &[lo, hi] : iv) {
            if (open_run && lo <= cur_hi) {
                cur_hi = std::max(cur_hi, hi);
                continue;
            }
            if (open_run)
                covered += cur_hi - cur_lo;
            cur_lo = lo;
            cur_hi = hi;
            open_run = true;
        }
        if (open_run)
            covered += cur_hi - cur_lo;
        self[s.name] +=
            static_cast<double>(s.end_ns - s.start_ns - covered) / 1e6;
    }
    return self;
}

bool
SpanTrace::writeChrome(const std::string &path, const std::string &workload,
                       const std::string &other_data) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    uint64_t t0 = ~0ull;
    for (const Span &s : spans_)
        t0 = std::min(t0, s.start_ns);
    os << "{\"displayTimeUnit\": \"ms\",\n \"otherData\": {\"workload\": \""
       << jsonEscape(workload) << "\""
       << (other_data.empty() ? "" : ",\n  ") << other_data
       << "},\n \"traceEvents\": [\n"
       << "  {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
          "\"tid\": 0, \"args\": {\"name\": \"pimbench_e2e "
       << jsonEscape(workload) << "\"}}";
    char buf[64];
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        os << ",\n  {\"name\": \"" << jsonEscape(s.name)
           << "\", \"cat\": \"bench\", \"ph\": \"X\", \"pid\": 1, "
              "\"tid\": "
           << s.lane + 1;
        std::snprintf(buf, sizeof buf, "%.3f",
                      static_cast<double>(s.start_ns - t0) / 1e3);
        os << ", \"ts\": " << buf;
        std::snprintf(buf, sizeof buf, "%.3f",
                      static_cast<double>(s.end_ns - s.start_ns) / 1e3);
        os << ", \"dur\": " << buf << ", \"args\": {\"id\": " << i
           << ", \"parent\": " << s.parent << ", \"req\": \""
           << jsonEscape(s.req) << "\"}}";
    }
    os << "\n ]\n}\n";
    return static_cast<bool>(os);
}

} // namespace e2e
