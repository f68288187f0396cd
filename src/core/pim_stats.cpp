/**
 * @file
 * Statistics manager implementation.
 */

#include "core/pim_stats.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <iomanip>
#include <vector>

#include "core/pim_trace.h"
#include "util/string_utils.h"

namespace pimeval {

double
PimStatsMgr::hostCalibration()
{
    // Compare this machine's single-core streaming throughput with
    // the modeled EPYC 9124's per-core share of its 460.8 GB/s
    // (~28.8 GB/s/core). Host phases measured here are stream-shaped
    // (gathers, scatters, plane extraction), so the ratio transfers.
    static const double factor = [] {
        constexpr size_t kBytes = 32ull << 20;
        std::vector<uint8_t> src(kBytes, 1), dst(kBytes);
        const auto t0 = std::chrono::high_resolution_clock::now();
        int rounds = 0;
        double elapsed = 0.0;
        do {
            std::memcpy(dst.data(), src.data(), kBytes);
            // Touch to defeat dead-store elimination.
            src[0] = dst[kBytes / 2];
            ++rounds;
            elapsed = std::chrono::duration<double>(
                          std::chrono::high_resolution_clock::now() -
                          t0)
                          .count();
        } while (elapsed < 0.05);
        const double gbps = 2.0 * kBytes * rounds / elapsed / 1e9;
        constexpr double kEpycPerCoreGbps = 28.8;
        return std::clamp(kEpycPerCoreGbps / gbps, 1.0, 50.0);
    }();
    return factor;
}

PimRunStats &
PimRunStats::operator+=(const PimRunStats &o)
{
    kernel_sec += o.kernel_sec;
    kernel_j += o.kernel_j;
    copy_sec += o.copy_sec;
    copy_j += o.copy_j;
    host_sec += o.host_sec;
    bytes_h2d += o.bytes_h2d;
    bytes_d2h += o.bytes_d2h;
    bytes_d2d += o.bytes_d2d;
    return *this;
}

PimStatsMgr::CmdKeyId
PimStatsMgr::internCmdKey(const std::string &key, PimCmdEnum cmd)
{
    const auto it = cmd_key_ids_.find(key);
    if (it != cmd_key_ids_.end())
        return it->second;
    const CmdKeyId id = static_cast<CmdKeyId>(cmd_slots_.size());
    cmd_slots_.push_back(CmdSlot{key, cmd, PimCmdStat{}});
    cmd_key_ids_.emplace(key, id);
    return id;
}

void
PimStatsMgr::recordCmd(CmdKeyId id, const PimOpCost &cost)
{
    auto &stat = cmd_slots_[id].stat;
    ++stat.count;
    stat.runtime_sec += cost.runtime_sec;
    stat.energy_j += cost.energy_j;
#if PIMEVAL_TRACING_ENABLED
    // Modeled PIM clock: commands commit in issue order, so the
    // accumulated kernel+copy time before this command is its modeled
    // start — the second timeline of the dual-clock trace.
    if (PimTracer::enabled()) {
        auto &slot = cmd_slots_[id];
        if (!slot.trace_name)
            slot.trace_name = PimTracer::instance().intern(slot.key);
        PimTracer::instance().recordModeledSpan(
            slot.trace_name, kernel_sec_ + copy_sec_,
            cost.runtime_sec, stat.count, trace_ctx_);
    }
#endif
    kernel_sec_ += cost.runtime_sec;
    kernel_j_ += cost.energy_j;
}

void
PimStatsMgr::recordCmd(const std::string &key, PimCmdEnum cmd,
                       const PimOpCost &cost)
{
    recordCmd(internCmdKey(key, cmd), cost);
}

void
PimStatsMgr::recordCopy(PimCopyEnum direction, uint64_t bytes,
                        const PimOpCost &cost)
{
    const char *trace_name = nullptr;
    switch (direction) {
      case PimCopyEnum::PIM_COPY_H2D:
        bytes_h2d_ += bytes;
        trace_name = "copy.h2d";
        break;
      case PimCopyEnum::PIM_COPY_D2H:
        bytes_d2h_ += bytes;
        trace_name = "copy.d2h";
        break;
      case PimCopyEnum::PIM_COPY_D2D:
        bytes_d2d_ += bytes;
        trace_name = "copy.d2d";
        break;
    }
#if PIMEVAL_TRACING_ENABLED
    if (PimTracer::enabled() && trace_name) {
        PimTracer::instance().recordModeledSpan(
            trace_name, kernel_sec_ + copy_sec_, cost.runtime_sec,
            bytes, trace_ctx_);
    }
#else
    (void)trace_name;
#endif
    copy_sec_ += cost.runtime_sec;
    copy_j_ += cost.energy_j;
}

PimRunStats
PimStatsMgr::snapshot() const
{
    PimRunStats s;
    s.kernel_sec = kernel_sec_;
    s.kernel_j = kernel_j_;
    s.copy_sec = copy_sec_;
    s.copy_j = copy_j_;
    s.host_sec = host_sec_;
    s.bytes_h2d = bytes_h2d_;
    s.bytes_d2h = bytes_d2h_;
    s.bytes_d2d = bytes_d2d_;
    return s;
}

std::map<std::string, uint64_t>
PimStatsMgr::opMix() const
{
    std::map<std::string, uint64_t> mix;
    for (const auto &slot : cmd_slots_) {
        if (slot.stat.count > 0)
            mix[pimCmdName(slot.cmd)] += slot.stat.count;
    }
    return mix;
}

std::map<std::string, PimCmdStat>
PimStatsMgr::cmdStats() const
{
    std::map<std::string, PimCmdStat> table;
    for (const auto &slot : cmd_slots_) {
        if (slot.stat.count == 0)
            continue;
        auto &stat = table[slot.key];
        stat.count += slot.stat.count;
        stat.runtime_sec += slot.stat.runtime_sec;
        stat.energy_j += slot.stat.energy_j;
    }
    return table;
}

void
PimStatsMgr::reset()
{
    // Interned key ids survive reset; only the accumulators clear.
    for (auto &slot : cmd_slots_)
        slot.stat = PimCmdStat{};
    kernel_sec_ = 0.0;
    kernel_j_ = 0.0;
    copy_sec_ = 0.0;
    copy_j_ = 0.0;
    host_sec_ = 0.0;
    bytes_h2d_ = 0;
    bytes_d2h_ = 0;
    bytes_d2d_ = 0;
}

void
PimStatsMgr::printReport(std::ostream &os) const
{
    os << "----------------------------------------\n";
    os << "Data Copy Stats:\n";
    os << "  Host to Device   : " << bytes_h2d_ << " bytes\n";
    os << "  Device to Host   : " << bytes_d2h_ << " bytes\n";
    os << "  Device to Device : " << bytes_d2d_ << " bytes\n";
    os << "  TOTAL ---------- : "
       << (bytes_h2d_ + bytes_d2h_ + bytes_d2d_) << " bytes  "
       << formatFixed(copy_sec_ * 1e3, 6) << " ms Runtime  "
       << formatFixed(copy_j_ * 1e3, 6) << " mJ Energy\n\n";

    os << "PIM Command Stats:\n";
    os << "  " << padRight("PIM-CMD", 24)
       << padLeft("CNT", 10)
       << padLeft("EstimatedRuntime(ms)", 24)
       << padLeft("EstimatedEnergy(mJ)", 24) << "\n";
    uint64_t total_cnt = 0;
    for (const auto &[key, stat] : cmdStats()) {
        os << "  " << padRight(key, 24)
           << padLeft(std::to_string(stat.count), 10)
           << padLeft(formatFixed(stat.runtime_sec * 1e3, 6), 24)
           << padLeft(formatFixed(stat.energy_j * 1e3, 6), 24) << "\n";
        total_cnt += stat.count;
    }
    os << "  " << padRight("TOTAL ----------", 24)
       << padLeft(std::to_string(total_cnt), 10)
       << padLeft(formatFixed(kernel_sec_ * 1e3, 6), 24)
       << padLeft(formatFixed(kernel_j_ * 1e3, 6), 24) << "\n";
    if (host_sec_ > 0.0) {
        os << "  Host elapsed time : "
           << formatFixed(host_sec_ * 1e3, 6) << " ms\n";
    }
    os << "----------------------------------------\n";
}

void
PimStatsMgr::dumpJson(std::ostream &os) const
{
    const auto flags = os.flags();
    os << std::setprecision(17);
    os << "{\n";
    os << "  \"totals\": {\n";
    os << "    \"kernel_sec\": " << kernel_sec_ << ",\n";
    os << "    \"kernel_j\": " << kernel_j_ << ",\n";
    os << "    \"copy_sec\": " << copy_sec_ << ",\n";
    os << "    \"copy_j\": " << copy_j_ << ",\n";
    os << "    \"host_sec\": " << host_sec_ << "\n";
    os << "  },\n";
    os << "  \"copy_bytes\": {\n";
    os << "    \"h2d\": " << bytes_h2d_ << ",\n";
    os << "    \"d2h\": " << bytes_d2h_ << ",\n";
    os << "    \"d2d\": " << bytes_d2d_ << "\n";
    os << "  },\n";
    os << "  \"commands\": {";
    bool first = true;
    for (const auto &[key, stat] : cmdStats()) {
        os << (first ? "\n" : ",\n");
        first = false;
        os << "    \"" << key << "\": {\"count\": " << stat.count
           << ", \"runtime_sec\": " << stat.runtime_sec
           << ", \"energy_j\": " << stat.energy_j << "}";
    }
    os << "\n  }\n";
    os << "}\n";
    os.flags(flags);
}

} // namespace pimeval
