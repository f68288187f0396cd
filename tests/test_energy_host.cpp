/**
 * @file
 * Tests of the Micron power model, the roofline baselines, the host
 * kernels, and the stats manager.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "core/pim_stats.h"
#include "energy/micron_power_model.h"
#include "host/baseline_models.h"
#include "host/host_kernels.h"

using namespace pimeval;

TEST(MicronPowerModel, EquationValues)
{
    PimDramParams dram; // defaults
    // Eq. (1): VDD * (IDD4R - IDD3N) = 1.2 * 106 mA.
    EXPECT_NEAR(dram.readPower(), 1.2 * (150.0 - 44.0) * 1e-3, 1e-12);
    EXPECT_NEAR(dram.writePower(), 1.2 * (145.0 - 44.0) * 1e-3, 1e-12);
    // Eq. (2): positive, sub-nJ scale for these parameters.
    const double ap = dram.actPreEnergy();
    EXPECT_GT(ap, 0.1e-9);
    EXPECT_LT(ap, 10e-9);
    EXPECT_NEAR(dram.backgroundPowerDelta(),
                1.2 * (44.0 - 34.0) * 1e-3, 1e-12);
}

TEST(MicronPowerModel, DeviceScaling)
{
    PimDeviceConfig config;
    config.device = PimDeviceEnum::PIM_DEVICE_BITSIMD_V_AP;
    MicronPowerModel model(config);

    EXPECT_GT(model.rowActPreEnergy(), 0.0);
    EXPECT_GT(model.bitSerialLogicEnergy(), 0.0);
    EXPECT_GT(model.gdlRowTransferEnergy(), 0.0);

    // Background energy scales linearly with active subarrays and
    // time.
    const double e1 = model.backgroundEnergy(1e-3, 100);
    const double e2 = model.backgroundEnergy(2e-3, 100);
    const double e3 = model.backgroundEnergy(1e-3, 200);
    EXPECT_NEAR(e2, 2 * e1, 1e-15);
    EXPECT_NEAR(e3, 2 * e1, 1e-15);

    // Transfer energy proportional to occupancy time.
    const double t1 = model.dataTransferEnergy(1 << 20, 1e-3, true);
    const double t2 = model.dataTransferEnergy(1 << 20, 2e-3, true);
    EXPECT_NEAR(t2, 2 * t1, 1e-15);

    HostParams host;
    EXPECT_NEAR(model.hostIdleEnergy(0.5, host), 5.0, 1e-12);
}

TEST(BaselineModels, RooflineRegimes)
{
    CpuModel cpu;
    GpuModel gpu;

    // Memory-bound: 1 GB, 1 op — time = bytes / achievable BW.
    WorkloadProfile mem;
    mem.bytes = 1ull << 30;
    mem.ops = 1;
    EXPECT_NEAR(cpu.cost(mem).runtime_sec,
                static_cast<double>(mem.bytes) / (460.8e9 * 0.65),
                1e-9);
    EXPECT_NEAR(gpu.cost(mem).runtime_sec,
                static_cast<double>(mem.bytes) / (1935e9 * 0.75),
                1e-9);
    // The GPU's higher bandwidth wins.
    EXPECT_LT(gpu.cost(mem).runtime_sec, cpu.cost(mem).runtime_sec);

    // Compute-bound: tiny bytes, many ops.
    WorkloadProfile compute;
    compute.bytes = 64;
    compute.ops = 1ull << 36;
    EXPECT_LT(gpu.cost(compute).runtime_sec,
              cpu.cost(compute).runtime_sec);

    // Serial fractions penalize the GPU harder.
    WorkloadProfile serial = compute;
    serial.serial_fraction = 0.5;
    EXPECT_GT(gpu.cost(serial).runtime_sec,
              gpu.cost(compute).runtime_sec);

    // Energy = runtime * TDP.
    EXPECT_NEAR(cpu.cost(mem).energy_j,
                cpu.cost(mem).runtime_sec * 200.0, 1e-12);
    EXPECT_NEAR(gpu.cost(mem).energy_j,
                gpu.cost(mem).runtime_sec * 300.0, 1e-12);
}

TEST(HostKernels, CountingSortScatterIsStable)
{
    const std::vector<uint32_t> keys = {0x21, 0x13, 0x22, 0x11,
                                        0x23, 0x12};
    // Low nibble as digit.
    std::vector<uint64_t> counts(16, 0);
    for (uint32_t k : keys)
        ++counts[k & 0xf];
    const auto sorted = countingSortScatter(keys, counts, 0, 0xf);
    const std::vector<uint32_t> expected = {0x21, 0x11, 0x22,
                                            0x12, 0x13, 0x23};
    EXPECT_EQ(sorted, expected);
}

TEST(HostKernels, GatherKnnSoftmaxPrefix)
{
    const std::vector<uint32_t> values = {5, 6, 7, 8};
    const std::vector<uint8_t> bitmap = {1, 0, 0, 1};
    EXPECT_EQ(gatherByBitmap(values, bitmap),
              (std::vector<uint32_t>{5, 8}));

    const std::vector<int> dist = {9, 1, 8, 2, 7, 3};
    const std::vector<int> labels = {0, 1, 0, 1, 0, 1};
    EXPECT_EQ(knnClassify(dist, labels, 3), 1);

    const auto probs = softmax({0, 0, 0, 0});
    ASSERT_EQ(probs.size(), 4u);
    for (float p : probs)
        EXPECT_NEAR(p, 0.25f, 1e-6f);
    const auto peaked = softmax({10000, 0});
    EXPECT_GT(peaked[0], peaked[1]);

    EXPECT_EQ(exclusivePrefixSum({3, 1, 4}),
              (std::vector<uint64_t>{0, 3, 4}));
    EXPECT_TRUE(exclusivePrefixSum({}).empty());
}

TEST(HostKernels, ConvShiftsZeroPadding)
{
    // 2x2 plane [1 2; 3 4]: shift (dy=-1,dx=-1) pulls from above-left.
    const std::vector<int> plane = {1, 2, 3, 4};
    const auto shifts = extractConvShifts(plane, 2, 2);
    ASSERT_EQ(shifts.size(), 9u);
    // Center shift (index 4) is the identity.
    EXPECT_EQ(shifts[4], plane);
    // Top-left shift (dy=-1, dx=-1): out[y][x] = in[y-1][x-1].
    EXPECT_EQ(shifts[0], (std::vector<int>{0, 0, 0, 1}));
    // Bottom-right shift (dy=+1, dx=+1): out[y][x] = in[y+1][x+1].
    EXPECT_EQ(shifts[8], (std::vector<int>{4, 0, 0, 0}));
}

TEST(StatsMgr, RecordAggregateReport)
{
    PimStatsMgr stats;
    PimOpCost cost;
    cost.runtime_sec = 1e-3;
    cost.energy_j = 2e-3;
    stats.recordCmd("add.int32.v", PimCmdEnum::kAdd, cost);
    stats.recordCmd("add.int32.v", PimCmdEnum::kAdd, cost);
    stats.recordCmd("mul.int32.v", PimCmdEnum::kMul, cost);
    stats.recordCopy(PimCopyEnum::PIM_COPY_H2D, 1024, cost);
    stats.addHostTime(0.25);

    const PimRunStats snap = stats.snapshot();
    EXPECT_NEAR(snap.kernel_sec, 3e-3, 1e-12);
    EXPECT_NEAR(snap.kernel_j, 6e-3, 1e-12);
    EXPECT_EQ(snap.bytes_h2d, 1024u);
    EXPECT_NEAR(snap.host_sec, 0.25, 1e-12);
    EXPECT_NEAR(snap.totalSec(), 3e-3 + 1e-3 + 0.25, 1e-12);

    EXPECT_EQ(stats.cmdStats().at("add.int32.v").count, 2u);
    EXPECT_EQ(stats.opMix().at("add"), 2u);
    EXPECT_EQ(stats.opMix().at("mul"), 1u);

    std::ostringstream oss;
    stats.printReport(oss);
    EXPECT_NE(oss.str().find("add.int32.v"), std::string::npos);
    EXPECT_NE(oss.str().find("Data Copy Stats"), std::string::npos);

    stats.reset();
    EXPECT_EQ(stats.snapshot().kernel_sec, 0.0);
    EXPECT_TRUE(stats.cmdStats().empty());
}
