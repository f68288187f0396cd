/**
 * @file
 * Statistics manager: per-command counts, modeled runtime/energy,
 * data-copy accounting, and host-phase timing.
 *
 * The report format follows the paper's Listing 3 (example vector-add
 * output), and the per-command operation mix feeds the Fig. 8
 * analysis.
 */

#ifndef PIMEVAL_CORE_PIM_STATS_H_
#define PIMEVAL_CORE_PIM_STATS_H_

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "core/perf_energy_model.h"
#include "core/pim_trace.h"
#include "core/pim_types.h"

namespace pimeval {

/**
 * Aggregated per-command statistics.
 */
struct PimCmdStat
{
    uint64_t count = 0;
    double runtime_sec = 0.0;
    double energy_j = 0.0;
};

/**
 * Aggregate snapshot of a run, used by apps and benches.
 */
struct PimRunStats
{
    double kernel_sec = 0.0; ///< modeled PIM kernel time
    double kernel_j = 0.0;   ///< modeled PIM kernel energy
    double copy_sec = 0.0;   ///< modeled host<->device transfer time
    double copy_j = 0.0;     ///< modeled transfer energy
    double host_sec = 0.0;   ///< measured host-phase time
    uint64_t bytes_h2d = 0;
    uint64_t bytes_d2h = 0;
    uint64_t bytes_d2d = 0;

    double totalSec() const { return kernel_sec + copy_sec + host_sec; }
};

/**
 * Per-device statistics manager.
 *
 * Command recording is designed to stay off the simulation hot path:
 * callers intern a (key, command) pair once and then record through a
 * small integer id — no string construction or map lookup per
 * command. The string-keyed views (cmdStats, opMix, printReport) are
 * materialized on demand.
 *
 * Ownership: no lock. Every writer runs on the owning device's
 * issuing thread, and a reader on another thread must synchronize
 * with that thread first: serve tests read a tenant context's stats
 * after drain(). The profiler reads these stats only at phase
 * boundaries, on the thread that opens and closes the phase.
 */
class PimStatsMgr
{
  public:
    /** Stable handle for an interned (report key, command) pair. */
    using CmdKeyId = uint32_t;

    /**
     * Intern a stats key (e.g. "add.int32.v"). Returns a dense id
     * that stays valid for the manager's lifetime, across reset().
     * Interning the same key again returns the same id.
     */
    CmdKeyId internCmdKey(const std::string &key, PimCmdEnum cmd);

    /** Record one PIM command through its interned id (hot path). */
    void
    recordCmd(CmdKeyId id, const PimOpCost &cost)
    {
        PimCmdStat &stat = cmd_slots_[id].stat;
        ++stat.count;
        stat.runtime_sec += cost.runtime_sec;
        stat.energy_j += cost.energy_j;
#if PIMEVAL_TRACING_ENABLED
        if (PimTracer::enabled()) [[unlikely]]
            traceCmd(id, cost);
#endif
        kernel_sec_ += cost.runtime_sec;
        kernel_j_ += cost.energy_j;
    }

    /** Record one PIM command, keyed e.g. "add.int32.v" (interns on
     *  every call; convenience for tests and cold paths). */
    void recordCmd(const std::string &key, PimCmdEnum cmd,
                   const PimOpCost &cost);

    /** Record a data transfer. */
    void recordCopy(PimCopyEnum direction, uint64_t bytes,
                    const PimOpCost &cost);

    /** Add pre-modeled host seconds (no scaling applied). */
    void addHostTimeRaw(double seconds) { host_sec_ += seconds; }

    /** Directly add externally measured host seconds. */
    void addHostTime(double seconds)
    {
        if (host_scale_ > 1.0)
            host_sec_ += seconds * host_scale_ / hostCalibration();
        else
            host_sec_ += seconds;
    }

    /**
     * Scale factor applied to measured host phases (paper-size
     * what-if; host work in these benchmarks is linear in input
     * size).
     */
    void setHostScale(double scale)
    {
        host_scale_ = scale >= 1.0 ? scale : 1.0;
    }

    /**
     * Ratio of this machine's single-core streaming rate to the
     * modeled EPYC baseline's. Measured lazily once; applied to host
     * phases only in paper-size mode so that measured host kernels
     * approximate the paper's testbed (DESIGN.md substitutions).
     */
    static double hostCalibration();

    /** Aggregates. */
    PimRunStats snapshot() const;

    /** Operation mix: counts keyed by base mnemonic (Fig. 8). */
    std::map<std::string, uint64_t> opMix() const;

    /** Per-command table, omitting never-recorded keys (for
     *  tests/benches; built on demand from the interned slots). */
    std::map<std::string, PimCmdStat> cmdStats() const;

    /**
     * Owning context id for trace attribution: modeled spans emitted
     * at commit time land on this context's modeled-time track
     * (pid = 1 + id in the Chrome export). Set once at device
     * creation, before any command records.
     */
    void setTraceContext(uint32_t ctx) { trace_ctx_ = ctx ? ctx : 1; }
    uint32_t traceContext() const { return trace_ctx_; }

    /** Reset everything. */
    void reset();

    /** Print a Listing-3 style report. */
    void printReport(std::ostream &os) const;

    /** Write the aggregate totals, copy byte counts, and per-command
     *  table as a JSON object (the pimDumpStats payload). */
    void dumpJson(std::ostream &os) const;

  private:
    /** recordCmd's modeled-time trace span, emitted before the
     *  command's runtime joins the kernel total. */
    void traceCmd(CmdKeyId id, const PimOpCost &cost);

    /** One interned stats key; ids index cmd_slots_. */
    struct CmdSlot
    {
        std::string key;
        PimCmdEnum cmd = PimCmdEnum::kNone;
        PimCmdStat stat;
        /** Tracer-interned copy of key: stable across cmd_slots_
         *  reallocation, resolved lazily on first traced commit. */
        const char *trace_name = nullptr;
    };

    std::vector<CmdSlot> cmd_slots_;
    std::map<std::string, CmdKeyId> cmd_key_ids_;
    double kernel_sec_ = 0.0;
    double kernel_j_ = 0.0;
    double copy_sec_ = 0.0;
    double copy_j_ = 0.0;
    double host_sec_ = 0.0;
    double host_scale_ = 1.0;
    uint64_t bytes_h2d_ = 0;
    uint64_t bytes_d2h_ = 0;
    uint64_t bytes_d2d_ = 0;
    /** Context id stamped on modeled trace spans (default ctx = 1). */
    uint32_t trace_ctx_ = 1;
};

} // namespace pimeval

#endif // PIMEVAL_CORE_PIM_STATS_H_
