/**
 * @file
 * pimbench_e2e: end-to-end wall-clock benchmark of the simulator (see
 * bench/e2e/README.md).
 *
 *   pimbench_e2e (--all | --workload <name>) [--seed N] [--seconds S]
 *                [--trace 0|1] [--quick] [--out FILE]
 *   pimbench_e2e --write-golden
 *
 * Run from the repository root: the modeled-statistics golden file is
 * read from (and --write-golden writes) bench/e2e/modeled_golden.json.
 *
 * The parent process never initialises the simulator. Each workload
 * runs in a child (the same binary re-executed with --child), so a
 * crash costs one workload — it is reported with error_rate 1 and the
 * signal, never retried — and the child's peak RSS is its own. Set-up
 * time is measured in extra set-up-only children, from spawn to ready,
 * and reported as their median. A traced run adds a probe child that
 * times each layer on its own.
 *
 * stdout: one "<workload> <metric> <value> <unit>" line per metric,
 * then, as the last line, one JSON object
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 * holding the end-to-end metrics (untraced) or the per-layer metrics
 * (--trace 1). BENCH_E2E.json gets everything, BENCH_TRACE.json the
 * traced run's spans.
 */

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>

#include "core/pim_json.h"
#include "e2e.h"
#include "trace.h"
#include "util/logging.h"

extern char **environ;

namespace e2e {

namespace {

/** Workloads, each run in its own child of the same name. */
const std::string kWorkloads[] = {
    "table1_cmd",
    "table1_elem",
    "gemv_large",
    "serve",
};

struct MetricDef
{
    const char *name;
    const char *unit;
};

/** End-to-end metrics, in BENCHMARK.json order. */
const MetricDef kEndToEnd[] = {
    {"latency_ms", "ms"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
};

/** Per-layer metrics reported by every traced run (BENCHMARK.json):
 *  first those measured on the workload itself, then the probes. */
const MetricDef kPerLayer[] = {
    {"trace_overhead_frac", "fraction"},
    {"op_p99_ms", "ms"},
    {"host_ns_per_cmd", "ns"},
    {"cmds_per_op", "count/op"},
    {"cache.bitserial_counts.hit_rate", "fraction"},
    {"freelist.hit_rate", "fraction"},
    {"threadpool.inline_runs", "count/op"},
    {"dram.lut.lookups", "count/op"},
    {"core.alloc_free_ns", "ns"},
    {"core.h2d_ns", "ns"},
    {"core.add_ns", "ns"},
    {"core.scalar_op_ns", "ns"},
    {"core.d2h_ns", "ns"},
    {"core.redsum_ns", "ns"},
    {"fusion.capture_ns_per_op", "ns"},
    {"fusion.flush_small_ns_per_elem", "ns"},
    {"fusion.flush_large_ns_per_elem", "ns"},
    {"bitserial.add_ns_per_elem", "ns"},
    {"bitserial.mul_ns_per_elem", "ns"},
    {"fulcrum.add_ns_per_elem", "ns"},
    {"fulcrum.mul_ns_per_elem", "ns"},
    {"banklevel.add_ns_per_elem", "ns"},
    {"banklevel.mul_ns_per_elem", "ns"},
    {"dram.lut_lookup_ns", "ns"},
    {"dram.lut_calibration_ms", "ms"},
    {"dram.cycle_transfer_us", "us"},
    {"serve.submit_us_p50", "us"},
    {"serve.queue_us_p50", "us"},
    {"serve.exec_us_p50", "us"},
    {"serve.mean_batch", "count"},
    {"serve.saturation_jobs_per_s", "1/s"},
};

/** Set-up-only children per workload on top of the measured child. */
constexpr int kExtraSetups = 2;
/** A --workload run must end within 180 s; children get this much. */
constexpr double kRunLimitSec = 170.0;

struct Options
{
    bool all = false;
    std::string workload;
    RunOptions run;
    std::string out = "BENCH_E2E.json";
    // Internal: this process is a child.
    std::string child;
    int report_fd = -1;
    uint64_t spawn_ns = 0;
};

[[noreturn]] void
usage(const std::string &why)
{
    if (!why.empty())
        std::cerr << "pimbench_e2e: " << why << "\n";
    std::cerr
        << "usage: pimbench_e2e (--all | --workload <name>) [--seed N]\n"
           "                    [--seconds S] [--trace 0|1] [--quick]\n"
           "                    [--out FILE]\n"
           "       pimbench_e2e --write-golden\n"
           "workloads:";
    for (const std::string &w : kWorkloads)
        std::cerr << " " << w;
    std::cerr << "\n";
    std::exit(why.empty() ? 0 : 2);
}

uint64_t
parseU64(const std::string &flag, const char *text)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (errno || end == text || *end || text[0] == '-')
        usage("bad value for " + flag + ": " + text);
    return v;
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                usage("missing value for " + a);
            return argv[++i];
        };
        if (a == "--all") {
            o.all = true;
        } else if (a == "--workload") {
            o.workload = value();
        } else if (a == "--seed") {
            o.run.seed = parseU64(a, value());
        } else if (a == "--seconds") {
            const char *v = value();
            char *end = nullptr;
            o.run.seconds = std::strtod(v, &end);
            if (end == v || *end || !(o.run.seconds > 0.0) ||
                o.run.seconds > 60.0)
                usage(std::string("--seconds must be in (0, 60]: ") + v);
        } else if (a == "--trace") {
            const std::string v = value();
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
            o.run.traced = v == "1";
        } else if (a == "--quick") {
            o.run.quick = true;
        } else if (a == "--out") {
            o.out = value();
        } else if (a == "--write-golden") {
            o.run.write_golden = true;
        } else if (a == "--child") {
            o.child = value();
        } else if (a == "--report-fd") {
            o.report_fd = static_cast<int>(parseU64(a, value()));
        } else if (a == "--spawn-ns") {
            o.spawn_ns = parseU64(a, value());
        } else if (a == "--setup-only") {
            o.run.setup_only = true;
        } else if (a == "--trace-out") {
            o.run.trace_path = value();
        } else if (a == "--help" || a == "-h") {
            usage("");
        } else {
            usage("unknown argument " + a);
        }
    }
    if (o.child.empty()) {
        const int modes = int(o.all) + int(!o.workload.empty()) +
            int(o.run.write_golden);
        if (modes != 1)
            usage("give exactly one of --all, --workload, --write-golden");
        if (!o.workload.empty() &&
            std::find(std::begin(kWorkloads), std::end(kWorkloads),
                      o.workload) == std::end(kWorkloads))
            usage("unknown workload " + o.workload);
    }
    return o;
}

// ---------------------------------------------------------------------------
// Child side
// ---------------------------------------------------------------------------

std::string
serialize(const Report &rep, double setup_s)
{
    std::ostringstream os;
    os << "{\"setup_s\": " << exact(setup_s)
       << ", \"setup_scale\": " << exact(rep.setup_scale)
       << ", \"attempted\": " << rep.attempted
       << ", \"failed\": " << rep.failed << ", \"failures\": [";
    for (size_t i = 0; i < rep.failures.size(); ++i)
        os << (i ? ", " : "") << "\"" << jsonEscape(rep.failures[i])
           << "\"";
    os << "], \"e2e\": " << jsonNumbers(rep.e2e)
       << ", \"layer\": " << jsonNumbers(rep.layer)
       << ", \"info\": " << jsonNumbers(rep.info) << ", \"golden\": {";
    bool first = true;
    for (const auto &[key, fields] : rep.golden) {
        os << (first ? "" : ", ") << "\"" << jsonEscape(key)
           << "\": " << jsonNumbers(fields);
        first = false;
    }
    os << "}}";
    return os.str();
}

int
childMain(const Options &o)
{
    pimeval::LogConfig::setThreshold(pimeval::LogLevel::Warning);
    // The gated workloads run one thread at a time (no object reaches
    // the thread pool's dispatch threshold): keep them on one CPU with
    // their calibration kernel. The others need the pool's CPUs.
    if (o.child == "table1_cmd" || o.child == "serve")
        pinToCurrentCpu();
    SpanTrace trace;
    Report rep;
    if (o.child == "probes")
        rep = runProbes(o.run);
    else if (o.child == "serve")
        rep = runServeMix(o.run, trace);
    else
        rep = runDeviceWorkload(o.child, o.run, trace);
    const double setup_s = rep.ready_ns > o.spawn_ns
        ? static_cast<double>(rep.ready_ns - o.spawn_ns) / 1e9
        : 0.0;
    const std::string text = serialize(rep, setup_s);
    size_t off = 0;
    while (off < text.size()) {
        const ssize_t n =
            write(o.report_fd, text.data() + off, text.size() - off);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return 1;
        off += static_cast<size_t>(n);
    }
    close(o.report_fd);
    return 0;
}

// ---------------------------------------------------------------------------
// Parent side
// ---------------------------------------------------------------------------

/** One child's outcome as the parent sees it. */
struct ChildOutcome
{
    bool ok = false;
    std::string error; ///< crash / timeout / protocol failure
    double setup_s = 0.0;
    double peak_rss_mb = 0.0;
    Report rep;
};

bool
parseReport(const std::string &text, ChildOutcome &out)
{
    std::string error;
    pimeval::JsonValue root;
    pimeval::JsonParser parser(text, &error);
    if (!parser.parse(&root) ||
        root.kind != pimeval::JsonValue::Kind::kObject) {
        out.error = "unreadable child report: " + error;
        return false;
    }
    const auto num = [&](const char *key) {
        const pimeval::JsonValue *v = root.find(key);
        return v ? v->number : 0.0;
    };
    out.setup_s = num("setup_s");
    out.rep.setup_scale = num("setup_scale");
    out.rep.attempted = static_cast<uint64_t>(num("attempted"));
    out.rep.failed = static_cast<uint64_t>(num("failed"));
    if (const auto *f = root.find("failures"))
        for (const auto &v : f->array)
            out.rep.failures.push_back(v.str);
    // A non-finite value travels as null; keep it non-finite so the
    // result line flags it instead of reporting 0.
    const auto number = [](const pimeval::JsonValue &v) {
        return v.kind == pimeval::JsonValue::Kind::kNumber
            ? v.number
            : std::numeric_limits<double>::quiet_NaN();
    };
    const std::pair<const char *, std::map<std::string, double> *> maps[] = {
        {"e2e", &out.rep.e2e},
        {"layer", &out.rep.layer},
        {"info", &out.rep.info},
    };
    for (const auto &[key, dest] : maps)
        if (const auto *m = root.find(key))
            for (const auto &[name, v] : m->object)
                (*dest)[name] = number(v);
    if (const auto *g = root.find("golden"))
        for (const auto &[key, fields] : g->object)
            for (const auto &[field, v] : fields.object)
                out.rep.golden[key][field] = v.number;
    return true;
}

/** Drop every PIMEVAL_* variable so children run the seed defaults
 *  whatever the caller's environment sets. */
void
scrubEnvironment()
{
    std::vector<std::string> names;
    for (char **e = environ; *e; ++e) {
        const std::string entry = *e;
        if (entry.rfind("PIMEVAL_", 0) == 0)
            names.push_back(entry.substr(0, entry.find('=')));
    }
    for (const std::string &n : names)
        unsetenv(n.c_str());
}

/**
 * Run `<self> --child <kind> ...`, collect its report, and reap it.
 * The child's stdout goes to our stderr, so our stdout carries only
 * results. Past @p deadline_ns the child is killed.
 */
ChildOutcome
spawnChild(const std::string &kind, const Options &o, bool setup_only,
           uint64_t deadline_ns)
{
    ChildOutcome out;
    int fds[2];
    if (pipe2(fds, O_CLOEXEC) != 0) {
        out.error = std::string("pipe: ") + std::strerror(errno);
        return out;
    }
    const uint64_t spawn_ns = nowNs();
    std::vector<std::string> args = {
        "pimbench_e2e",         "--child",
        kind,                   "--report-fd",
        std::to_string(fds[1]), "--spawn-ns",
        std::to_string(spawn_ns), "--seed",
        std::to_string(o.run.seed), "--seconds",
        exact(o.run.seconds),
    };
    if (o.run.traced && !setup_only) {
        // Beside --out; one file per child when several run.
        const size_t slash = o.out.find_last_of('/');
        args.push_back("--trace");
        args.push_back("1");
        args.push_back("--trace-out");
        args.push_back(
            (slash == std::string::npos ? "" : o.out.substr(0, slash + 1)) +
            (o.all ? "BENCH_TRACE." + kind + ".json" : "BENCH_TRACE.json"));
    }
    if (o.run.quick)
        args.push_back("--quick");
    if (setup_only)
        args.push_back("--setup-only");
    if (o.run.write_golden)
        args.push_back("--write-golden");
    std::vector<char *> argv;
    for (std::string &s : args)
        argv.push_back(s.data());
    argv.push_back(nullptr);

    const pid_t pid = fork();
    if (pid < 0) {
        out.error = std::string("fork: ") + std::strerror(errno);
        close(fds[0]);
        close(fds[1]);
        return out;
    }
    if (pid == 0) {
        // Die with the parent, so a killed run leaves no child behind.
        prctl(PR_SET_PDEATHSIG, SIGKILL);
        dup2(STDERR_FILENO, STDOUT_FILENO);
        fcntl(fds[1], F_SETFD, 0); // keep the report pipe across exec
        execv("/proc/self/exe", argv.data());
        _exit(127);
    }
    close(fds[1]);

    std::string text;
    bool timed_out = false;
    char buf[65536];
    for (;;) {
        const uint64_t now = nowNs();
        if (now >= deadline_ns) {
            timed_out = true;
            break;
        }
        pollfd p{fds[0], POLLIN, 0};
        const int ms = static_cast<int>(
            std::min<uint64_t>((deadline_ns - now) / 1000000 + 1, 1000));
        const int r = poll(&p, 1, ms);
        if (r < 0 && errno == EINTR)
            continue;
        if (r <= 0)
            continue;
        const ssize_t n = read(fds[0], buf, sizeof buf);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break;
        text.append(buf, static_cast<size_t>(n));
    }
    close(fds[0]);
    if (timed_out)
        kill(pid, SIGKILL);
    int status = 0;
    rusage ru{};
    while (wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
    }
    out.peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
    if (timed_out) {
        out.error = "killed after exceeding the time limit";
    } else if (WIFSIGNALED(status)) {
        out.error = std::string("died from signal ") +
            std::to_string(WTERMSIG(status)) + " (" +
            strsignal(WTERMSIG(status)) + ")";
    } else if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        out.error = "exited with status " +
            std::to_string(WEXITSTATUS(status));
    } else if (parseReport(text, out)) {
        out.ok = true;
    }
    return out;
}

struct MetricOut
{
    double value = 0.0;
    const char *unit = "";
    Quartiles spread; ///< of the samples the value summarises
};

/** Everything reported for one public workload. */
struct WorkloadResult
{
    std::string name;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> failures;
    std::string crash;
    std::map<std::string, MetricOut> e2e;
    std::map<std::string, double> layer, info;

    bool correct() const { return failed == 0 && crash.empty(); }
};

/** Run one workload's children (set-up, measured, probe) and build its
 *  result. */
WorkloadResult
runWorkload(const std::string &name, const Options &o, uint64_t t0)
{
    const auto deadline = [&] {
        return static_cast<uint64_t>(
            (o.all ? nowNs() : t0) + kRunLimitSec * 1e9);
    };
    WorkloadResult r;
    r.name = name;
    // Set-up times as measured, and scaled to host speed (HostSpeed).
    std::vector<double> setup_raw, setup_samples;
    const auto addSetup = [&](const ChildOutcome &c) {
        if (!c.ok)
            return;
        setup_raw.push_back(c.setup_s);
        setup_samples.push_back(c.setup_s * c.rep.setup_scale);
    };
    const auto absorb = [&](const ChildOutcome &c, const char *role) {
        r.attempted += c.rep.attempted;
        r.failed += c.rep.failed;
        r.failures.insert(r.failures.end(), c.rep.failures.begin(),
                          c.rep.failures.end());
        if (!c.ok) {
            r.crash = name + " " + role + " child " + c.error;
            r.failures.push_back(r.crash);
        }
    };

    // Untraced runs time set-up in extra children; the measured child
    // contributes one more sample.
    const int extra = (o.run.traced || o.run.quick) ? 0 : kExtraSetups;
    for (int i = 0; i < extra && r.crash.empty(); ++i) {
        const ChildOutcome c = spawnChild(name, o, true, deadline());
        absorb(c, "set-up");
        addSetup(c);
    }
    ChildOutcome run;
    if (r.crash.empty()) {
        run = spawnChild(name, o, false, deadline());
        absorb(run, "workload");
        addSetup(run);
    }
    ChildOutcome probes;
    if (o.run.traced && r.crash.empty()) {
        probes = spawnChild("probes", o, false, deadline());
        absorb(probes, "probe");
    }

    r.attempted = std::max<uint64_t>(r.attempted, 1);
    // A crashed child fails everything it had planned.
    if (!r.crash.empty())
        r.failed = r.attempted;
    if (const auto it = run.rep.e2e.find("latency_ms");
        it != run.rep.e2e.end()) {
        MetricOut &m = r.e2e["latency_ms"];
        m.value = it->second;
        m.unit = "ms";
    }
    if (!setup_samples.empty()) {
        MetricOut &m = r.e2e["setup_s"];
        m.spread = quartiles(setup_samples);
        m.value = m.spread.median;
        m.unit = "s";
    }
    if (run.ok) {
        MetricOut &m = r.e2e["peak_rss_mb"];
        m.value = run.peak_rss_mb;
        m.unit = "MiB";
    }
    r.info = run.rep.info;
    if (!setup_raw.empty())
        r.info["setup_raw_s"] = median(setup_raw);
    if (o.run.traced) {
        for (const MetricDef &d : kPerLayer) {
            for (const Report *rep : {&run.rep, &probes.rep}) {
                const auto it = rep->layer.find(d.name);
                if (it != rep->layer.end()) {
                    r.layer[d.name] = it->second;
                    break;
                }
            }
        }
    }
    return r;
}

void
printLine(const std::string &workload, const std::string &metric,
          double value, const char *unit)
{
    std::printf("%s %s %s %s\n", workload.c_str(), metric.c_str(),
                exact(value).c_str(), unit);
}

const char *
unitOf(const std::string &name)
{
    for (const MetricDef &d : kPerLayer)
        if (name == d.name)
            return d.unit;
    const auto ends = [&](const char *suffix) {
        const size_t n = std::strlen(suffix);
        return name.size() > n &&
            name.compare(name.size() - n, n, suffix) == 0;
    };
    if (ends("_per_s"))
        return "1/s";
    for (const char *unit : {"ms", "us", "ns", "s"})
        if (ends((std::string("_") + unit).c_str()))
            return unit;
    if (name.rfind("fusion.", 0) == 0 || name.rfind("threadpool.", 0) == 0)
        return "count/op";
    return "count";
}

std::string
hostJson()
{
    std::ostringstream os;
    os << "{\"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
       << ", \"l2_bytes\": " << sysconf(_SC_LEVEL2_CACHE_SIZE)
       << ", \"l3_bytes\": " << sysconf(_SC_LEVEL3_CACHE_SIZE)
       << ", \"compiler\": \"" << jsonEscape(__VERSION__)
       << "\", \"flags\": \"" << jsonEscape(PIM_E2E_FLAGS) << "\"}";
    return os.str();
}

bool
writeBenchJson(const Options &o, const std::vector<WorkloadResult> &all)
{
    std::ofstream os(o.out);
    if (!os)
        return false;
    os << "{\n  \"bench\": \"pimbench_e2e\",\n  \"seed\": " << o.run.seed
       << ",\n  \"seconds\": " << exact(o.run.seconds)
       << ",\n  \"traced\": " << (o.run.traced ? "true" : "false")
       << ",\n  \"quick\": " << (o.run.quick ? "true" : "false")
       << ",\n  \"host\": " << hostJson() << ",\n  \"workloads\": {";
    for (size_t i = 0; i < all.size(); ++i) {
        const WorkloadResult &r = all[i];
        os << (i ? "," : "") << "\n    \"" << r.name << "\": {"
           << "\"correct\": " << (r.correct() ? "true" : "false")
           << ", \"attempted\": " << r.attempted
           << ", \"failed\": " << r.failed << ", \"error_rate\": "
           << exact(static_cast<double>(r.failed) /
                    static_cast<double>(r.attempted))
           << ", \"crash\": "
           << (r.crash.empty() ? "null" : "\"" + jsonEscape(r.crash) + "\"")
           << ",\n      \"failures\": [";
        for (size_t f = 0; f < r.failures.size(); ++f)
            os << (f ? ", " : "") << "\"" << jsonEscape(r.failures[f])
               << "\"";
        os << "],\n      \"metrics\": {";
        bool first = true;
        for (const auto &[name, m] : r.e2e) {
            os << (first ? "" : ", ") << "\"" << name
               << "\": {\"value\": " << exact(m.value) << ", \"unit\": \""
               << m.unit << "\", \"q1\": " << exact(m.spread.q1)
               << ", \"q3\": " << exact(m.spread.q3)
               << ", \"n\": " << m.spread.n << "}";
            first = false;
        }
        os << "},\n      \"info\": " << jsonNumbers(r.info)
           << ",\n      \"per_layer\": " << jsonNumbers(r.layer) << "}";
    }
    os << "\n  }\n}\n";
    return static_cast<bool>(os);
}

int
writeGolden(const Options &o)
{
    std::string body;
    bool ok = true;
    for (const std::string &kind : kWorkloads) {
        if (kind == "serve")
            continue; // served jobs carry no golden statistics
        Options g = o;
        g.run.quick = true;
        const ChildOutcome c = spawnChild(
            kind, g, false, nowNs() + static_cast<uint64_t>(600 * 1e9));
        if (!c.ok || c.rep.failed) {
            std::cerr << "pimbench_e2e: " << kind << ": "
                      << (c.ok ? c.rep.failures.front() : c.error) << "\n";
            ok = false;
            continue;
        }
        body += std::string(body.empty() ? "" : ",\n") + "  \"" + kind +
            "\": {";
        bool first = true;
        for (const auto &[key, fields] : c.rep.golden) {
            body += std::string(first ? "\n" : ",\n") + "    \"" +
                jsonEscape(key) + "\": " + jsonNumbers(fields);
            first = false;
        }
        body += "\n  }";
    }
    if (!ok)
        return 1;
    std::ofstream os(kGoldenPath);
    os << "{\n\"about\": \"Modeled statistics of every (app, target) op of "
          "the device workloads, exact to the last bit (%.17g). Every "
          "pimbench_e2e run compares against them; regenerate only with "
          "pimbench_e2e --write-golden.\",\n\"workloads\": {\n"
       << body << "\n}\n}\n";
    if (!os) {
        std::cerr << "pimbench_e2e: cannot write " << kGoldenPath
                  << "\n";
        return 1;
    }
    std::cerr << "wrote " << kGoldenPath << "\n";
    return 0;
}

int
parentMain(const Options &o)
{
    const uint64_t t0 = nowNs();
    scrubEnvironment();
    if (o.run.write_golden)
        return writeGolden(o);
    std::vector<WorkloadResult> all;
    uint64_t attempted = 0, failed = 0;
    for (const std::string &name : kWorkloads) {
        if (!o.all && o.workload != name)
            continue;
        all.push_back(runWorkload(name, o, t0));
        attempted += all.back().attempted;
        failed += all.back().failed;
    }

    // Human-readable lines, then the summary JSON as the last line.
    bool correct = true;
    std::string metrics;
    const auto addMetric = [&](const std::string &key, double value,
                               const char *unit) {
        if (!std::isfinite(value)) {
            correct = false;
            std::cerr << "pimbench_e2e: metric " << key
                      << " is not a number\n";
            return;
        }
        metrics += std::string(metrics.empty() ? "" : ", ") + "\"" + key +
            "\": {\"value\": " + exact(value) + ", \"unit\": \"" + unit +
            "\"}";
    };
    for (const WorkloadResult &r : all) {
        correct = correct && r.correct();
        for (const std::string &f : r.failures)
            std::cerr << r.name << " FAILED: " << f << "\n";
        for (const auto &[name, m] : r.e2e) {
            printLine(r.name, name, m.value, m.unit);
            if (m.spread.n == 0)
                continue;
            printLine(r.name, name + ".q1", m.spread.q1, m.unit);
            printLine(r.name, name + ".q3", m.spread.q3, m.unit);
            printLine(r.name, name + ".n", static_cast<double>(m.spread.n),
                      "count");
        }
        printLine(r.name, "error_rate",
                  static_cast<double>(r.failed) /
                      static_cast<double>(r.attempted),
                  "fraction");
        for (const auto &[name, v] : r.info)
            printLine(r.name, name, v, unitOf(name));
        for (const auto &[name, v] : r.layer)
            printLine(r.name, name, v, unitOf(name));

        const std::string prefix = o.all ? r.name + "." : "";
        const MetricDef *defs = o.run.traced ? kPerLayer : kEndToEnd;
        const size_t count = o.run.traced ? std::size(kPerLayer)
                                          : std::size(kEndToEnd);
        for (size_t i = 0; i < count; ++i) {
            const std::string name = defs[i].name;
            if (o.run.traced) {
                const auto it = r.layer.find(name);
                if (it != r.layer.end()) {
                    addMetric(prefix + name, it->second, defs[i].unit);
                    continue;
                }
            } else {
                const auto it = r.e2e.find(name);
                if (it != r.e2e.end()) {
                    addMetric(prefix + name, it->second.value,
                              defs[i].unit);
                    continue;
                }
            }
            correct = false;
            std::cerr << "pimbench_e2e: " << r.name << " produced no "
                      << name << "\n";
        }
    }
    if (!writeBenchJson(o, all)) {
        std::cerr << "pimbench_e2e: cannot write " << o.out << "\n";
        correct = false;
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed), metrics.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}

} // namespace

} // namespace e2e

int
main(int argc, char **argv)
{
    const e2e::Options o = e2e::parseArgs(argc, argv);
    return o.child.empty() ? e2e::parentMain(o) : e2e::childMain(o);
}
