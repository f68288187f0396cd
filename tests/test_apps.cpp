/**
 * @file
 * End-to-end benchmark tests: every PIMbench application must verify
 * functionally against its CPU reference on all three PIM targets —
 * the paper's functional-verification methodology (Section V-E i) —
 * and the Table I apps of the end-to-end benchmark must reproduce its
 * modeled-statistics golden exactly.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "apps/suite.h"
#include "core/pim_json.h"
#include "util/logging.h"

using namespace pimbench;
using pimeval::JsonParser;
using pimeval::JsonValue;
using pimeval::LogConfig;
using pimeval::LogLevel;

namespace {

class AppTest
    : public ::testing::TestWithParam<
          std::tuple<PimDeviceEnum, std::string>>
{
  protected:
    void
    SetUp() override
    {
        LogConfig::setThreshold(LogLevel::Error);
        pimeval::PimDeviceConfig config;
        config.device = std::get<0>(GetParam());
        config.num_ranks = 2;
        config.num_banks_per_rank = 16;
        config.num_subarrays_per_bank = 8;
        config.num_rows_per_subarray = 512;
        config.num_cols_per_row = 1024;
        ASSERT_EQ(pimCreateDeviceFromConfig(config),
                  PimStatus::PIM_OK);
    }

    void
    TearDown() override
    {
        pimDeleteDevice();
    }
};

} // namespace

TEST_P(AppTest, VerifiesAgainstCpuReference)
{
    const std::string &name = std::get<1>(GetParam());
    const AppResult result =
        runBenchmarkByName(name, SuiteScale::kTiny);
    EXPECT_EQ(result.name, name);
    EXPECT_TRUE(result.verified) << name << " failed verification";
    EXPECT_GT(result.stats.kernel_sec, 0.0);
    EXPECT_GT(result.stats.bytes_h2d, 0u);
    EXPECT_FALSE(result.features.op_mix.empty());
}

INSTANTIATE_TEST_SUITE_P(
    SuiteOnAllDevices, AppTest,
    ::testing::Combine(
        ::testing::Values(PimDeviceEnum::PIM_DEVICE_BITSIMD_V_AP,
                          PimDeviceEnum::PIM_DEVICE_FULCRUM,
                          PimDeviceEnum::PIM_DEVICE_BANK_LEVEL),
        ::testing::Values(
            "Vector Addition", "AXPY", "GEMV", "GEMM", "Radix Sort",
            "AES-Encryption", "AES-Decryption", "Triangle Count",
            "Filter-By-Key", "Histogram", "Brightness",
            "Image Downsampling", "KNN", "Linear Regression",
            "K-means", "VGG-13", "VGG-16", "VGG-19", "Prefix Sum",
            "String Match", "PCA", "Apriori")),
    [](const auto &info) {
        std::string device;
        switch (std::get<0>(info.param)) {
          case PimDeviceEnum::PIM_DEVICE_BITSIMD_V_AP:
            device = "BitSerial";
            break;
          case PimDeviceEnum::PIM_DEVICE_FULCRUM:
            device = "Fulcrum";
            break;
          default:
            device = "BankLevel";
            break;
        }
        std::string name = std::get<1>(info.param);
        for (auto &ch : name) {
            if (!std::isalnum(static_cast<unsigned char>(ch)))
                ch = '_';
        }
        return device + "_" + name;
    });

namespace {

/** A target as bench/e2e names it in its golden keys. */
struct GoldenTarget
{
    PimDeviceEnum device;
    const char *name;
};

void
PrintTo(const GoldenTarget &target, std::ostream *os)
{
    *os << target.name;
}

class E2eGoldenTest : public ::testing::TestWithParam<GoldenTarget>
{
  protected:
    void
    SetUp() override
    {
        LogConfig::setThreshold(LogLevel::Error);
        // The end-to-end benchmark's device: Table II with 32 ranks.
        // LUT transfer timing is named in the config, so a
        // PIMEVAL_MEM_BACKEND override still compares LUT numbers.
        pimeval::PimDeviceConfig config;
        config.device = GetParam().device;
        config.num_ranks = 32;
        config.mem_backend = PimMemBackend::PIM_MEM_BACKEND_LUT;
        ASSERT_EQ(pimCreateDeviceFromConfig(config), PimStatus::PIM_OK);
    }

    void
    TearDown() override
    {
        pimDeleteDevice();
    }
};

} // namespace

TEST_P(E2eGoldenTest, TableOneAppsMatchModeledGolden)
{
    // bench/e2e/modeled_golden.json (read-only) pins the modeled
    // statistics of every app of the table1_cmd and table1_elem
    // workloads, each run once at SuiteScale::kSmall, exact to the
    // last bit. Each golden entry of this target runs here.
    std::ifstream in(PIMEVAL_E2E_GOLDEN);
    ASSERT_TRUE(in) << "cannot read " << PIMEVAL_E2E_GOLDEN;
    std::stringstream text;
    text << in.rdbuf();
    const std::string body = text.str();
    std::string error;
    JsonValue root;
    ASSERT_TRUE(JsonParser(body, &error).parse(&root)) << error;
    const JsonValue *workloads = root.find("workloads");
    ASSERT_NE(workloads, nullptr);

    const std::string suffix = std::string("/") + GetParam().name;
    size_t compared = 0;
    for (const char *workload : {"table1_cmd", "table1_elem"}) {
        const JsonValue *entries = workloads->find(workload);
        ASSERT_NE(entries, nullptr) << workload;
        for (const auto &[key, golden] : entries->object) {
            if (key.size() <= suffix.size() ||
                key.compare(key.size() - suffix.size(), suffix.size(),
                            suffix) != 0)
                continue;
            const std::string app = key.substr(0, key.size() - suffix.size());
            const AppResult r = runBenchmarkByName(app, SuiteScale::kSmall);
            EXPECT_TRUE(r.verified) << key;
            uint64_t commands = 0;
            for (const auto &[cmd, count] : r.features.op_mix)
                commands += count;
            const std::pair<const char *, double> observed[] = {
                {"kernel_sec", r.stats.kernel_sec},
                {"kernel_j", r.stats.kernel_j},
                {"copy_sec", r.stats.copy_sec},
                {"copy_j", r.stats.copy_j},
                {"bytes_h2d", static_cast<double>(r.stats.bytes_h2d)},
                {"bytes_d2h", static_cast<double>(r.stats.bytes_d2h)},
                {"bytes_d2d", static_cast<double>(r.stats.bytes_d2d)},
                {"commands", static_cast<double>(commands)},
            };
            for (const auto &[field, value] : observed) {
                const JsonValue *want = golden.find(field);
                ASSERT_TRUE(want && want->kind == JsonValue::Kind::kNumber)
                    << key << " lacks " << field;
                EXPECT_EQ(value, want->number) << key << " " << field;
            }
            ++compared;
        }
    }
    // 7 table1_cmd apps and 4 table1_elem apps.
    EXPECT_EQ(compared, 11u);
}

INSTANTIATE_TEST_SUITE_P(
    E2eTargets, E2eGoldenTest,
    ::testing::Values(
        GoldenTarget{PimDeviceEnum::PIM_DEVICE_BITSIMD_V_AP, "bitserial"},
        GoldenTarget{PimDeviceEnum::PIM_DEVICE_FULCRUM, "fulcrum"},
        GoldenTarget{PimDeviceEnum::PIM_DEVICE_BANK_LEVEL, "banklevel"}),
    [](const auto &info) { return std::string(info.param.name); });
