/**
 * @file
 * Helpers shared by the parent and every child: clock, quartiles,
 * registry snapshots, and JSON text.
 */

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <ctime>

#include "core/pim_api.h"
#include "e2e.h"
#include "trace.h"

namespace e2e {

uint64_t
nowNs()
{
    timespec ts{};
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
        static_cast<uint64_t>(ts.tv_nsec);
}

Quartiles
quartiles(std::vector<double> values)
{
    Quartiles q;
    q.n = values.size();
    if (values.empty())
        return q;
    std::sort(values.begin(), values.end());
    const size_t n = values.size();
    q.median = n % 2 ? values[n / 2]
                     : (values[n / 2 - 1] + values[n / 2]) / 2.0;
    if (n < 2) {
        q.q1 = q.q3 = q.median;
        return q;
    }
    // statistics.quantiles(..., n=4, method="exclusive").
    const auto cut = [&](long i) {
        const long m = static_cast<long>(n) + 1;
        long j = i * m / 4;
        j = std::clamp<long>(j, 1, static_cast<long>(n) - 1);
        const long delta = i * m - j * 4;
        return (values[j - 1] * static_cast<double>(4 - delta) +
                values[j] * static_cast<double>(delta)) /
            4.0;
    };
    q.q1 = cut(1);
    q.q3 = cut(3);
    return q;
}

double
percentile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double rank = std::ceil(q * static_cast<double>(values.size()));
    const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
    return values[std::min(idx, values.size() - 1)];
}

void
Report::fail(const std::string &why)
{
    ++failed;
    if (failures.size() < 8)
        failures.push_back(why);
}

const std::vector<TargetDesc> &
targets()
{
    static const std::vector<TargetDesc> list = {
        {"bitserial",
         static_cast<int>(PimDeviceEnum::PIM_DEVICE_BITSIMD_V_AP)},
        {"fulcrum", static_cast<int>(PimDeviceEnum::PIM_DEVICE_FULCRUM)},
        {"banklevel",
         static_cast<int>(PimDeviceEnum::PIM_DEVICE_BANK_LEVEL)},
    };
    return list;
}

std::map<std::string, double>
metricSnapshot()
{
    std::map<std::string, double> out;
    for (const auto &[name, v] : pimGetAllMetrics()) {
        if (v.kind == pimeval::PimMetricValue::Kind::kHistogram)
            out[name + ".sum"] = v.sum;
        else
            out[name] = v.value;
    }
    return out;
}

double
counterDelta(const std::map<std::string, double> &before,
             const std::map<std::string, double> &after,
             const std::string &name)
{
    const auto a = after.find(name);
    if (a == after.end())
        return 0.0;
    const auto b = before.find(name);
    return a->second - (b == before.end() ? 0.0 : b->second);
}

void
addLayerCounters(Report &rep, const std::map<std::string, double> &before,
                 const std::map<std::string, double> &after, double ops)
{
    const auto delta = [&](const std::string &name) {
        return counterDelta(before, after, name);
    };
    const auto per_op = [&](const std::string &name) {
        return ops > 0 ? delta(name) / ops : 0.0;
    };
    const auto hit_rate = [&](const std::string &cache) {
        const double hit = delta(cache + ".hit");
        const double all = hit + delta(cache + ".miss");
        return all > 0 ? hit / all : 0.0;
    };
    rep.layer["cache.bitserial_counts.hit_rate"] =
        hit_rate("cache.bitserial_counts");
    rep.layer["freelist.hit_rate"] = hit_rate("freelist");
    rep.layer["threadpool.inline_runs"] = per_op("threadpool.inline_runs");
    rep.layer["dram.lut.lookups"] = per_op("dram.lut.lookups");
    for (const char *name :
         {"fusion.chains", "fusion.ops_fused", "fusion.host_loads",
          "fusion.copy_elisions", "fusion.temps_elided",
          "threadpool.parallel_for", "threadpool.chunks_stolen"})
        rep.info[name] = per_op(name);
}

std::string
slug(const std::string &name)
{
    std::string out;
    for (const char c : name) {
        if (std::isalnum(static_cast<unsigned char>(c)))
            out.push_back(static_cast<char>(
                std::tolower(static_cast<unsigned char>(c))));
        else if (!out.empty() && out.back() != '_')
            out.push_back('_');
    }
    return out;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out.push_back('\\');
            out.push_back(c);
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out.push_back(c);
        }
    }
    return out;
}

std::string
exact(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
jsonNumbers(const std::map<std::string, double> &values)
{
    std::string out = "{";
    for (const auto &[name, v] : values) {
        if (out.size() > 1)
            out += ", ";
        out += '"';
        out += jsonEscape(name);
        out += "\": ";
        out += exact(v);
    }
    return out + "}";
}

std::string
traceOtherData(const SpanTrace &trace, double ops,
               const std::map<std::string, double> &before,
               const std::map<std::string, double> &after,
               const std::map<std::string, double> &extra)
{
    std::map<std::string, double> self;
    for (const auto &[name, ms] : trace.selfMs())
        self[name] = ops > 0 ? ms / ops : ms;
    std::map<std::string, double> deltas;
    for (const auto &[name, v] : after) {
        const double d = counterDelta(before, after, name);
        if (d != 0.0)
            deltas[name] = d;
    }
    return "\"self_ms_per_op\": " + jsonNumbers(self) +
        ",\n  \"metric_deltas\": " + jsonNumbers(deltas) +
        ",\n  \"layer\": " + jsonNumbers(extra);
}

} // namespace e2e
