/**
 * @file
 * Ablation: flat-bandwidth vs cycle-timed data movement.
 *
 * The paper states that treating every rank as an independent channel
 * "amplifies data transfer bandwidth" and that "overhead of large
 * data transfers will increase once modeling accounts for multiple
 * ranks sharing a channel" (Section V-C). This bench quantifies that
 * prediction with the DRAMsim3-lite channel model: end-to-end
 * speedups of the transfer-heavy benchmarks under 32 independent
 * channels (paper model) versus 32 ranks sharing 2/4/8 physical
 * channels.
 */

#include "bench_common.h"

#include "dram/transfer_model.h"
#include "host/baseline_models.h"

using namespace pimbench;
using namespace pimeval;

int
main()
{
    quietLogs();
    printConfigBanner(
        "Ablation -- Flat-bandwidth vs cycle-timed data movement");

    // Raw transfer characteristics first.
    {
        TableWriter table(
            "Achieved bandwidth, 256 MB stream (GB/s)",
            {"Configuration", "Achieved", "FlatModelWould"});
        DramTiming timing;
        struct Config
        {
            const char *name;
            uint32_t channels;
            uint32_t ranks_per_channel;
        };
        const Config configs[] = {
            {"32 ch x 1 rank (paper view)", 32, 1},
            {"8 ch x 4 ranks", 8, 4},
            {"4 ch x 8 ranks", 4, 8},
            {"2 ch x 16 ranks", 2, 16},
        };
        for (const auto &config : configs) {
            TransferModel model(timing, config.channels,
                                config.ranks_per_channel, 16, 1024);
            const auto result =
                model.transfer(256ull << 20, false);
            table.addNumericRow(
                config.name,
                {result.achieved_gbps, 25.6 * 32.0}, 1);
        }
        emitTable(table);
    }

    // End-to-end effect on the transfer-heavy benchmarks.
    {
        const std::vector<std::string> apps = {
            "Vector Addition", "AXPY", "Linear Regression",
            "Brightness", "GEMM"};
        const CpuModel cpu;

        TableWriter table(
            "Speedup over CPU (kernel + data movement), Fulcrum",
            {"Benchmark", "32 indep. channels", "4 channels shared",
             "2 channels shared"});
        struct Variant
        {
            PimMemBackend backend;
            uint64_t channels;
        };
        const Variant variants[] = {
            {PimMemBackend::PIM_MEM_BACKEND_DEFAULT, 0},
            {PimMemBackend::PIM_MEM_BACKEND_CYCLE, 4},
            {PimMemBackend::PIM_MEM_BACKEND_CYCLE, 2}};

        std::vector<std::vector<double>> rows(apps.size());
        for (const auto &variant : variants) {
            PimDeviceConfig config =
                benchConfig(PimDeviceEnum::PIM_DEVICE_FULCRUM, 32);
            config.mem_backend = variant.backend;
            config.num_channels = variant.channels;
            DeviceSession session(config);
            if (!session.ok())
                return 1;
            for (size_t i = 0; i < apps.size(); ++i) {
                const AppResult result =
                    runBenchmarkByName(apps[i], SuiteScale::kPaper);
                const double cpu_sec =
                    cpu.cost(result.cpu_work).runtime_sec;
                const double pim_sec = result.pimTotalSec();
                rows[i].push_back(pim_sec > 0 ? cpu_sec / pim_sec
                                              : 0.0);
            }
        }
        for (size_t i = 0; i < apps.size(); ++i)
            table.addNumericRow(apps[i], rows[i], 3);
        emitTable(table);
    }

    std::cout
        << "\nReading: once ranks share physical channels, achieved "
           "transfer bandwidth collapses to the channel count times "
           "~25 GB/s, and end-to-end PIM speedups on transfer-bound "
           "benchmarks shrink accordingly — quantifying the paper's "
           "stated limitation of its flat-bandwidth transfer "
           "model.\n";
    return 0;
}
