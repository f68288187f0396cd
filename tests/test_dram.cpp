/**
 * @file
 * Tests of the cycle-level DRAM channel model ("DRAMsim3-lite"):
 * timing-constraint enforcement, row-buffer behaviour, bandwidth
 * bounds, channel sharing, and its integration with the copy-cost
 * path.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>

#include "core/pim_api.h"
#include "dram/dram_channel.h"
#include "dram/mem_backend_lut.h"
#include "dram/mem_timing_backend.h"
#include "dram/transfer_model.h"
#include "util/logging.h"

using namespace pimeval;

TEST(DramTiming, PeakBandwidthMatchesPaperRankBandwidth)
{
    // DDR4-3200 x64: 64 B per 4-cycle burst at 0.625 ns/cycle
    // = 25.6 GB/s — the paper's rank bandwidth.
    DramTiming timing;
    EXPECT_NEAR(timing.peakBandwidth(), 25.6e9, 1e6);
}

TEST(DramChannel, RowHitsFasterThanMisses)
{
    DramTiming timing;
    DramChannel channel(timing, 1, 4);

    // Two accesses to the same row: the second is a hit.
    DramRequest request;
    request.bank = 0;
    request.row = 5;
    const uint64_t first = channel.access(request);
    const uint64_t second = channel.access(request);
    EXPECT_EQ(channel.stats().row_hits, 1u);
    // A hit retires within a burst slot of the previous access.
    EXPECT_LE(second - first, timing.tCCD + timing.tBURST);

    // Same bank, different row: precharge + activate delay.
    request.row = 9;
    const uint64_t third = channel.access(request);
    EXPECT_EQ(channel.stats().row_misses, 1u);
    EXPECT_GE(third - second, timing.tRP + timing.tRCD);
}

TEST(DramChannel, SameBankActivatesRespectTrc)
{
    DramTiming timing;
    DramChannel channel(timing, 1, 4);
    DramRequest request;
    request.bank = 2;
    request.row = 1;
    channel.access(request);
    request.row = 2;
    channel.access(request);
    request.row = 3;
    channel.access(request);
    EXPECT_EQ(channel.stats().activates, 3u);
    // Three activates to one bank need at least 2 * tRC before the
    // last data burst can even start.
    EXPECT_GE(channel.stats().last_completion_cycle,
              2ull * timing.tRC);
}

TEST(DramChannel, BankParallelismBeatsSingleBank)
{
    DramTiming timing;

    // 64 row misses hammering one bank...
    DramChannel single(timing, 1, 8);
    std::vector<DramRequest> single_requests;
    for (uint32_t i = 0; i < 64; ++i) {
        DramRequest request;
        request.bank = 0;
        request.row = i;
        single_requests.push_back(request);
    }
    const uint64_t single_cycles = single.drain(single_requests);

    // ...versus the same 64 misses spread over 8 banks.
    DramChannel spread(timing, 1, 8);
    std::vector<DramRequest> spread_requests;
    for (uint32_t i = 0; i < 64; ++i) {
        DramRequest request;
        request.bank = i % 8;
        request.row = i / 8;
        spread_requests.push_back(request);
    }
    const uint64_t spread_cycles = spread.drain(spread_requests);
    EXPECT_LT(spread_cycles, single_cycles / 2);
}

TEST(DramChannel, ResetClearsState)
{
    DramTiming timing;
    DramChannel channel(timing, 2, 4);
    DramRequest request;
    channel.access(request);
    channel.reset();
    EXPECT_EQ(channel.stats().num_reads, 0u);
    EXPECT_EQ(channel.stats().last_completion_cycle, 0u);
}

TEST(TransferModel, StreamingApproachesButNeverExceedsPeak)
{
    DramTiming timing;
    TransferModel model(timing, /*channels=*/1,
                        /*ranks_per_channel=*/1,
                        /*banks=*/16, /*row_bytes=*/1024);
    const TransferResult result =
        model.transfer(64ull << 20, /*is_write=*/false);
    EXPECT_GT(result.achieved_gbps * 1e9, 0.5 * timing.peakBandwidth());
    EXPECT_LE(result.achieved_gbps * 1e9,
              timing.peakBandwidth() * 1.0001);
    EXPECT_GT(result.row_hit_rate, 0.8); // sequential stream
}

TEST(TransferModel, ChannelsScaleAndSharingHurts)
{
    DramTiming timing;
    const uint64_t bytes = 256ull << 20;

    // 4 independent channels beat 1 by ~4x.
    TransferModel one(timing, 1, 1, 16, 1024);
    TransferModel four(timing, 4, 1, 16, 1024);
    const double t1 = one.transfer(bytes, false).seconds;
    const double t4 = four.transfer(bytes, false).seconds;
    EXPECT_NEAR(t1 / t4, 4.0, 0.2);

    // 8 ranks sharing one channel cannot beat the channel peak: the
    // paper's rank-independent model would predict ~8x this speed.
    TransferModel shared(timing, 1, 8, 16, 1024);
    const TransferResult result = shared.transfer(bytes, false);
    EXPECT_LE(result.achieved_gbps * 1e9,
              timing.peakBandwidth() * 1.0001);
}

TEST(TransferModel, CopyCostIntegration)
{
    LogConfig::setThreshold(LogLevel::Error);

    // Paper model: 8 ranks = 8 independent channels.
    PimDeviceConfig flat;
    flat.device = PimDeviceEnum::PIM_DEVICE_FULCRUM;
    flat.num_ranks = 8;
    flat.mem_backend = PimMemBackend::PIM_MEM_BACKEND_ANALYTICAL;
    const auto flat_model = PerfEnergyModel::create(flat);

    // Cycle-timed: the same 8 ranks share 2 physical channels.
    PimDeviceConfig timed = flat;
    timed.mem_backend = PimMemBackend::PIM_MEM_BACKEND_CYCLE;
    timed.num_channels = 2;
    const auto timed_model = PerfEnergyModel::create(timed);

    const uint64_t bytes = 64ull << 20;
    const double flat_sec =
        flat_model->costCopy(PimCopyEnum::PIM_COPY_H2D, bytes)
            .runtime_sec;
    const double timed_sec =
        timed_model->costCopy(PimCopyEnum::PIM_COPY_H2D, bytes)
            .runtime_sec;
    // Channel sharing must slow transfers down vs the flat model —
    // by roughly ranks/channels when streams are efficient.
    EXPECT_GT(timed_sec, 2.0 * flat_sec);
    EXPECT_LT(timed_sec, 8.0 * flat_sec);
}

namespace {

MemTopology
defaultTopology(uint32_t channels = 1)
{
    MemTopology topology;
    topology.num_channels = channels;
    return topology;
}

} // namespace

TEST(TransferModel, ZeroAndSubColumnBytes)
{
    DramTiming timing;
    TransferModel model(timing, 1, 1, 16, 1024);

    const TransferResult zero = model.transfer(0, false);
    EXPECT_EQ(zero.seconds, 0.0);
    EXPECT_EQ(zero.achieved_gbps, 0.0);

    // Anything up to one column costs exactly one column.
    const TransferResult one_byte = model.transfer(1, false);
    const TransferResult full_col =
        model.transfer(DramTiming::kBytesPerColumn, false);
    EXPECT_GT(one_byte.seconds, 0.0);
    EXPECT_DOUBLE_EQ(one_byte.seconds, full_col.seconds);
}

TEST(TransferModel, CacheHitKeepsFullResult)
{
    // Regression: the shape cache used to store only seconds, so a
    // cache hit returned row_hit_rate == 0 while the first call
    // reported the simulated rate.
    DramTiming timing;
    TransferModel model(timing, 1, 1, 16, 1024);
    const uint64_t bytes = 8ull << 20;
    const TransferResult miss = model.transfer(bytes, false);
    const TransferResult hit = model.transfer(bytes, false);
    EXPECT_DOUBLE_EQ(hit.seconds, miss.seconds);
    EXPECT_DOUBLE_EQ(hit.row_hit_rate, miss.row_hit_rate);
    EXPECT_EQ(hit.total_cycles, miss.total_cycles);
    EXPECT_GT(hit.row_hit_rate, 0.5);

    // Distinct byte counts sharing a column shape share the timing
    // but report their own achieved bandwidth.
    const TransferResult a = model.transfer(100, false);
    const TransferResult b = model.transfer(128, false);
    EXPECT_DOUBLE_EQ(a.seconds, b.seconds);
    EXPECT_LT(a.achieved_gbps, b.achieved_gbps);
}

TEST(TransferModel, ExtrapolationCapStraddle)
{
    // The cycle model simulates at most 64K columns (4 MiB) per
    // channel and extrapolates linearly beyond. Sizes straddling the
    // cap must stay monotone and scale linearly past it.
    DramTiming timing;
    TransferModel model(timing, 1, 1, 16, 1024);
    const uint64_t cap_bytes = (1ull << 16) *
        DramTiming::kBytesPerColumn;

    const double below =
        model.transfer(cap_bytes - DramTiming::kBytesPerColumn, false)
            .seconds;
    const double at = model.transfer(cap_bytes, false).seconds;
    // Non-pow2 sizes straddling the cap.
    const double above = model.transfer(cap_bytes + 12345, false).seconds;
    const double triple = model.transfer(3 * cap_bytes + 777, false).seconds;
    EXPECT_LE(below, at);
    EXPECT_LE(at, above);
    EXPECT_LT(above, triple);
    // Linear extrapolation: doubling the columns doubles the time.
    const double twice = model.transfer(2 * cap_bytes, false).seconds;
    EXPECT_NEAR(twice / at, 2.0, 1e-9);
}

TEST(MemBackend, ResolutionPrecedence)
{
    // Preserve any suite-wide override (CI forces cycle this way).
    const char *saved_env = std::getenv("PIMEVAL_MEM_BACKEND");
    const std::string saved = saved_env ? saved_env : "";

    // Explicit config wins over everything.
    ::setenv("PIMEVAL_MEM_BACKEND", "analytical", 1);
    EXPECT_EQ(MemTimingBackend::resolve(
                  PimMemBackend::PIM_MEM_BACKEND_CYCLE),
              PimMemBackend::PIM_MEM_BACKEND_CYCLE);
    // Env wins over the default.
    EXPECT_EQ(MemTimingBackend::resolve(
                  PimMemBackend::PIM_MEM_BACKEND_DEFAULT),
              PimMemBackend::PIM_MEM_BACKEND_ANALYTICAL);
    ::unsetenv("PIMEVAL_MEM_BACKEND");
    // Nothing configured: the LUT fast path.
    EXPECT_EQ(MemTimingBackend::resolve(
                  PimMemBackend::PIM_MEM_BACKEND_DEFAULT),
              PimMemBackend::PIM_MEM_BACKEND_LUT);
    // Unknown env values are ignored.
    ::setenv("PIMEVAL_MEM_BACKEND", "bogus", 1);
    EXPECT_EQ(MemTimingBackend::resolve(
                  PimMemBackend::PIM_MEM_BACKEND_DEFAULT),
              PimMemBackend::PIM_MEM_BACKEND_LUT);

    if (saved_env)
        ::setenv("PIMEVAL_MEM_BACKEND", saved.c_str(), 1);
    else
        ::unsetenv("PIMEVAL_MEM_BACKEND");
}

TEST(MemBackend, ApiReportsResolvedBackend)
{
    LogConfig::setThreshold(LogLevel::Error);
    EXPECT_EQ(pimGetMemBackend(),
              PimMemBackend::PIM_MEM_BACKEND_DEFAULT); // no device

    PimDeviceConfig config;
    config.device = PimDeviceEnum::PIM_DEVICE_FULCRUM;
    config.num_ranks = 2;
    config.mem_backend = PimMemBackend::PIM_MEM_BACKEND_CYCLE;
    ASSERT_EQ(pimCreateDeviceFromConfig(config), PimStatus::PIM_OK);
    EXPECT_EQ(pimGetMemBackend(),
              PimMemBackend::PIM_MEM_BACKEND_CYCLE);
    pimDeleteDevice();

    // Unconfigured: whatever resolution yields here (LUT unless the
    // suite runs under a PIMEVAL_MEM_BACKEND override).
    config.mem_backend = PimMemBackend::PIM_MEM_BACKEND_DEFAULT;
    ASSERT_EQ(pimCreateDeviceFromConfig(config), PimStatus::PIM_OK);
    EXPECT_EQ(pimGetMemBackend(),
              MemTimingBackend::resolve(
                  PimMemBackend::PIM_MEM_BACKEND_DEFAULT));
    pimDeleteDevice();
}

TEST(MemBackend, AnalyticalMatchesFlatFormula)
{
    MemTopology topology = defaultTopology(4);
    topology.flat_bw_bytes_per_sec = 4 * 25.6e9;
    const auto backend = MemTimingBackend::create(
        PimMemBackend::PIM_MEM_BACKEND_ANALYTICAL, topology);
    const uint64_t bytes = 1ull << 28;
    EXPECT_DOUBLE_EQ(backend->transfer(bytes, true).seconds,
                     static_cast<double>(bytes) / (4 * 25.6e9));
    EXPECT_DOUBLE_EQ(backend->streamingBandwidth(), 4 * 25.6e9);
    EXPECT_EQ(backend->transfer(0, false).seconds, 0.0);
}

TEST(MemBackend, LutExactInDenseRegion)
{
    // Dense per-channel column counts were simulated exactly during
    // calibration, so the LUT reproduces the cycle backend
    // bit-identically there.
    const MemTopology topology = defaultTopology(2);
    const auto cycle = MemTimingBackend::create(
        PimMemBackend::PIM_MEM_BACKEND_CYCLE, topology);
    const auto lut = MemTimingBackend::create(
        PimMemBackend::PIM_MEM_BACKEND_LUT, topology);
    for (uint64_t bytes : {0ull, 1ull, 64ull, 100ull, 4096ull,
                           2 * kLutDenseColumns * 64ull}) {
        for (bool write : {false, true}) {
            EXPECT_DOUBLE_EQ(lut->transfer(bytes, write).seconds,
                             cycle->transfer(bytes, write).seconds)
                << bytes << (write ? " write" : " read");
        }
    }
}

TEST(MemBackend, AllBackendsMonotoneInBytes)
{
    const MemTopology topology = defaultTopology(2);
    for (auto kind : {PimMemBackend::PIM_MEM_BACKEND_CYCLE,
                      PimMemBackend::PIM_MEM_BACKEND_ANALYTICAL,
                      PimMemBackend::PIM_MEM_BACKEND_LUT}) {
        const auto backend = MemTimingBackend::create(kind, topology);
        double prev = 0.0;
        for (uint64_t bytes = 64; bytes <= (1ull << 30);
             bytes = bytes * 2 + 37) {
            const double sec = backend->transfer(bytes, false).seconds;
            EXPECT_GE(sec, prev) << pimMemBackendName(kind) << " at "
                                 << bytes;
            prev = sec;
        }
    }
}

TEST(MemBackend, LutWithinFivePercentOfCycleAcrossDevices)
{
    LogConfig::setThreshold(LogLevel::Error);
    // The acceptance gate: across suite-representative transfer
    // shapes on all three device targets, the calibrated LUT stays
    // within 5% of the cycle model's runtime.
    const uint64_t shapes[] = {
        64,          1000,        4096,        65536,
        100000,      1ull << 20,  3u * 1000 * 1000, 16ull << 20,
        50000000ull, 256ull << 20};
    for (auto device : {PimDeviceEnum::PIM_DEVICE_BITSIMD_V_AP,
                        PimDeviceEnum::PIM_DEVICE_FULCRUM,
                        PimDeviceEnum::PIM_DEVICE_BANK_LEVEL}) {
        PimDeviceConfig config;
        config.device = device;
        config.num_ranks = 8;
        config.num_channels = 2;
        config.mem_backend = PimMemBackend::PIM_MEM_BACKEND_CYCLE;
        const auto cycle_model = PerfEnergyModel::create(config);
        config.mem_backend = PimMemBackend::PIM_MEM_BACKEND_LUT;
        const auto lut_model = PerfEnergyModel::create(config);
        ASSERT_TRUE(cycle_model && lut_model);
        for (uint64_t bytes : shapes) {
            for (auto dir : {PimCopyEnum::PIM_COPY_H2D,
                             PimCopyEnum::PIM_COPY_D2H}) {
                const double c =
                    cycle_model->costCopy(dir, bytes).runtime_sec;
                const double l =
                    lut_model->costCopy(dir, bytes).runtime_sec;
                ASSERT_GT(c, 0.0);
                EXPECT_LE(std::abs(l - c) / c, 0.05)
                    << pimDeviceName(device) << " " << bytes
                    << " bytes";
            }
        }
    }
}

TEST(MemBackend, AddressMapsShapeTheStream)
{
    DramTiming timing;
    const uint64_t bytes = 16ull << 20;

    TransferModel bank_first(timing, 1, 2, 16, 1024,
                             PimAddrMap::PIM_ADDR_MAP_BANK_FIRST);
    TransferModel rank_first(timing, 1, 2, 16, 1024,
                             PimAddrMap::PIM_ADDR_MAP_RANK_FIRST);
    TransferModel row_first(timing, 1, 2, 16, 1024,
                            PimAddrMap::PIM_ADDR_MAP_ROW_FIRST);

    const TransferResult bank = bank_first.transfer(bytes, false);
    const TransferResult rank = rank_first.transfer(bytes, false);
    const TransferResult row = row_first.transfer(bytes, false);

    // Rotating ranks fastest pays the rank-switch bubble on nearly
    // every access; the default bank-first order amortizes it.
    EXPECT_GT(rank.seconds, bank.seconds);
    // Filling whole rows maximizes row hits.
    EXPECT_GE(row.row_hit_rate, bank.row_hit_rate);
    EXPECT_GT(row.row_hit_rate, 0.9);
    for (const TransferResult *r : {&bank, &rank, &row})
        EXPECT_GT(r->seconds, 0.0);
}
