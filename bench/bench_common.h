/**
 * @file
 * Shared infrastructure for the figure-regeneration benches: device
 * sessions, suite execution across targets, speedup/geomean helpers,
 * and the Table II configuration banner.
 */

#ifndef PIMEVAL_BENCH_BENCH_COMMON_H_
#define PIMEVAL_BENCH_BENCH_COMMON_H_

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "apps/suite.h"
#include "core/pim_json.h"
#include "core/pim_profile.h"
#include "host/baseline_models.h"
#include "util/logging.h"
#include "util/string_utils.h"
#include "util/table_writer.h"

namespace pimbench {

/** The three PIM targets in paper order. */
inline const std::vector<std::pair<PimDeviceEnum, std::string>> &
pimTargets()
{
    static const std::vector<std::pair<PimDeviceEnum, std::string>>
        targets = {
            {PimDeviceEnum::PIM_DEVICE_BITSIMD_V_AP, "Bit-Serial"},
            {PimDeviceEnum::PIM_DEVICE_FULCRUM, "Fulcrum"},
            {PimDeviceEnum::PIM_DEVICE_BANK_LEVEL, "Bank-level"},
        };
    return targets;
}

/** Device config with @p ranks ranks and Table II defaults. */
inline pimeval::PimDeviceConfig
benchConfig(PimDeviceEnum device, uint64_t ranks)
{
    pimeval::PimDeviceConfig config;
    config.device = device;
    config.num_ranks = ranks;
    return config;
}

/**
 * Run the full suite on one target.
 * @return empty vector when device creation fails.
 */
inline std::vector<AppResult>
runSuiteOnTarget(PimDeviceEnum device, uint64_t ranks, SuiteScale scale,
                 bool extensions = false)
{
    DeviceSession session(benchConfig(device, ranks));
    if (!session.ok())
        return {};
    return runSuite(scale, extensions);
}

/** Geometric mean of positive values. */
inline double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    size_t count = 0;
    for (double v : values) {
        if (v > 0.0) {
            log_sum += std::log(v);
            ++count;
        }
    }
    return count == 0 ? 0.0
                      : std::exp(log_sum / static_cast<double>(count));
}

/** Print the Table II configuration banner. */
inline void
printConfigBanner(const std::string &bench_name)
{
    pimeval::HostParams host;
    std::cout
        << "=====================================================\n"
        << bench_name << "\n"
        << "Reproduction of: Architectural Modeling and Benchmarking"
           " for Digital DRAM PIM (IISWC 2024)\n"
        << "Table II configuration:\n"
        << "  CPU baseline : AMD EPYC 9124 model, " << host.cpu_cores
        << " cores @ " << host.cpu_freq_ghz << " GHz, "
        << host.cpu_tdp_w << " W TDP, " << host.cpu_mem_bw_gbps
        << " GB/s\n"
        << "  GPU baseline : NVIDIA A100 model, " << host.gpu_tdp_w
        << " W TDP, " << host.gpu_mem_bw_gbps << " GB/s, "
        << host.gpu_peak_tflops << " TFLOPS\n"
        << "  PIM          : DDR4, 128 banks/rank, 32 subarrays/bank,"
           " 1024x8192 subarrays, 25.6 GB/s/rank\n"
        << "=====================================================\n";
}

/** Suppress simulator info logging for clean bench output. */
inline void
quietLogs()
{
    pimeval::LogConfig::setThreshold(pimeval::LogLevel::Warning);
}

/**
 * Print a table to stdout and, when PIMBENCH_CSV_DIR is set, also
 * write it as CSV into that directory (file name derived from the
 * table title) for plotting.
 */
inline void
emitTable(const pimeval::TableWriter &table)
{
    table.print(std::cout);
    const char *dir = std::getenv("PIMBENCH_CSV_DIR");
    if (!dir || !*dir)
        return;
    std::string name = table.title();
    for (auto &ch : name) {
        if (!std::isalnum(static_cast<unsigned char>(ch)))
            ch = '_';
    }
    const std::string path = std::string(dir) + "/" + name + ".csv";
    std::ofstream out(path);
    if (out) {
        table.writeCsv(out);
        std::cout << "[csv written: " << path << "]\n";
    }
}

} // namespace pimbench

#endif // PIMEVAL_BENCH_BENCH_COMMON_H_
