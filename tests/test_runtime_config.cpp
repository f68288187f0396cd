/**
 * @file
 * Tests of the PIMEVAL_* environment knobs, each read where it is
 * used: PIMEVAL_FUSION at device creation, PIMEVAL_MEM_BACKEND in
 * backend resolution (below the explicit config field), and
 * PIMEVAL_TRACE / PIMEVAL_PROFILE from pimCreateDevice through the
 * export at pimDeleteDevice.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/pim_api.h"
#include "core/pim_context.h"
#include "core/pim_error.h"
#include "core/pim_json.h"
#include "core/pim_profile.h"
#include "core/pim_sim.h"
#include "core/pim_trace.h"

using namespace pimeval;

namespace {

/** Sets an environment variable for one scope, restoring on exit. */
class EnvVarScope
{
  public:
    EnvVarScope(const char *name, const char *value) : name_(name)
    {
        const char *old = std::getenv(name);
        had_old_ = old != nullptr;
        if (had_old_)
            old_ = old;
        if (value)
            setenv(name, value, 1);
        else
            unsetenv(name);
    }
    ~EnvVarScope()
    {
        if (had_old_)
            setenv(name_.c_str(), old_.c_str(), 1);
        else
            unsetenv(name_.c_str());
    }

  private:
    std::string name_;
    std::string old_;
    bool had_old_ = false;
};

PimDeviceConfig
smallConfig()
{
    PimDeviceConfig config;
    config.device = PimDeviceEnum::PIM_DEVICE_FULCRUM;
    config.num_ranks = 1;
    config.num_banks_per_rank = 4;
    config.num_subarrays_per_bank = 4;
    config.num_rows_per_subarray = 256;
    config.num_cols_per_row = 256;
    return config;
}

/** Fusion toggle of a context created while PIMEVAL_FUSION is
 *  @p value (nullptr = unset). */
bool
fusionAtCreation(const char *value)
{
    EnvVarScope env("PIMEVAL_FUSION", value);
    PimContext ctx = pimCreateContextFromConfig(smallConfig(), "rc");
    EXPECT_NE(ctx, nullptr);
    bool on = false;
    {
        PimContextScope scope(ctx);
        on = pimGetFusionEnabled();
    }
    pimDestroyContext(ctx);
    return on;
}

/** Backend of a context created from @p config while
 *  PIMEVAL_MEM_BACKEND is @p value (nullptr = unset). */
PimMemBackend
backendAtCreation(const PimDeviceConfig &config, const char *value)
{
    EnvVarScope env("PIMEVAL_MEM_BACKEND", value);
    PimContext ctx = pimCreateContextFromConfig(config, "rc");
    EXPECT_NE(ctx, nullptr);
    const PimMemBackend kind = pimContextMemBackend(ctx);
    pimDestroyContext(ctx);
    return kind;
}

} // namespace

/** PIMEVAL_FUSION sets the fusion default of each device created
 *  while it is set: unset, "" and "0" are off, anything else on. */
TEST(RuntimeConfig, FusionKnobAppliesAtDeviceCreation)
{
    EXPECT_FALSE(fusionAtCreation(nullptr));
    EXPECT_FALSE(fusionAtCreation(""));
    EXPECT_FALSE(fusionAtCreation("0"));
    EXPECT_TRUE(fusionAtCreation("1"));

    PimContext on = nullptr;
    {
        EnvVarScope env("PIMEVAL_FUSION", "1");
        on = pimCreateContextFromConfig(smallConfig(), "rc.on");
    }
    ASSERT_NE(on, nullptr);
    EnvVarScope env("PIMEVAL_FUSION", "0");
    PimContext off = pimCreateContextFromConfig(smallConfig(), "rc.off");
    ASSERT_NE(off, nullptr);
    {
        PimContextScope scope(off);
        EXPECT_FALSE(pimGetFusionEnabled());
    }
    // The already-created context keeps its creation-time setting.
    {
        PimContextScope scope(on);
        EXPECT_TRUE(pimGetFusionEnabled());
    }
    pimDestroyContext(on);
    pimDestroyContext(off);
}

/** PIMEVAL_MEM_BACKEND selects the backend when the config leaves it
 *  at DEFAULT; the explicit per-device field beats it. */
TEST(RuntimeConfig, MemBackendPrecedenceEndToEnd)
{
    EXPECT_EQ(backendAtCreation(smallConfig(), nullptr),
              PimMemBackend::PIM_MEM_BACKEND_LUT);
    EXPECT_EQ(backendAtCreation(smallConfig(), "analytical"),
              PimMemBackend::PIM_MEM_BACKEND_ANALYTICAL);

    PimDeviceConfig explicit_cfg = smallConfig();
    explicit_cfg.mem_backend = PimMemBackend::PIM_MEM_BACKEND_CYCLE;
    EXPECT_EQ(backendAtCreation(explicit_cfg, "analytical"),
              PimMemBackend::PIM_MEM_BACKEND_CYCLE);
}

#if PIMEVAL_TRACING_ENABLED
/**
 * PIMEVAL_TRACE and PIMEVAL_PROFILE arm tracing and profiling at
 * pimCreateDevice and export both at pimDeleteDevice, while the
 * default context is still live: the profile lists it.
 */
TEST(RuntimeConfig, EnvArmsTraceAndProfile)
{
    const std::string trace_path = ::testing::TempDir() + "rc_trace.json";
    const std::string profile_path =
        ::testing::TempDir() + "rc_profile.json";
    const std::string html_path = ::testing::TempDir() + "rc_profile.html";
    std::remove(trace_path.c_str());
    std::remove(profile_path.c_str());
    uint32_t ctx_id = 0;
    {
        EnvVarScope trace("PIMEVAL_TRACE", trace_path.c_str());
        EnvVarScope profile("PIMEVAL_PROFILE", profile_path.c_str());
        ASSERT_EQ(pimCreateDeviceFromConfig(smallConfig()),
                  PimStatus::PIM_OK);
        EXPECT_TRUE(pimTraceActive());
        EXPECT_TRUE(pimProfileActive());
        ctx_id = pimContextId(PimSim::instance().defaultContext());
        {
            PIM_PROFILE_SCOPE("rc.phase");
            const uint64_t n = 256;
            std::vector<int> xs(n, 1);
            const PimObjId a = pimAlloc(PimAllocEnum::PIM_ALLOC_AUTO, n,
                                        32, PimDataType::PIM_INT32);
            ASSERT_GE(a, 0);
            pimCopyHostToDevice(xs.data(), a);
            pimAddScalar(a, a, 7);
            pimFree(a);
        }
        ASSERT_EQ(pimDeleteDevice(), PimStatus::PIM_OK);
    }
    EXPECT_FALSE(pimTraceActive());
    EXPECT_FALSE(pimProfileActive());

    std::string error;
    EXPECT_TRUE(pimValidateChromeTraceFile(trace_path, nullptr, &error))
        << error;
    EXPECT_TRUE(pimValidateProfileFile(profile_path, &error)) << error;

    std::ifstream is(profile_path);
    std::stringstream ss;
    ss << is.rdbuf();
    JsonValue root;
    ASSERT_TRUE(JsonParser(ss.str(), &error).parse(&root)) << error;
    const JsonValue *contexts = root.find("contexts");
    ASSERT_NE(contexts, nullptr);
    ASSERT_EQ(contexts->kind, JsonValue::Kind::kArray);
    const JsonValue *entry = nullptr;
    for (const JsonValue &c : contexts->array) {
        const JsonValue *id = c.find("id");
        if (id && id->number == static_cast<double>(ctx_id))
            entry = &c;
    }
    ASSERT_NE(entry, nullptr) << "context " << ctx_id
                              << " missing from:\n" << ss.str();
    const JsonValue *label = entry->find("label");
    ASSERT_NE(label, nullptr);
    EXPECT_EQ(label->kind, JsonValue::Kind::kString);
    EXPECT_EQ(label->str, "");

    std::remove(trace_path.c_str());
    std::remove(profile_path.c_str());
    std::remove(html_path.c_str());
}

TEST(RuntimeConfig, EnvExportFailureFailsDeleteDevice)
{
    // A path under a regular file cannot be opened, even as root.
    const std::string blocker = ::testing::TempDir() + "rc_not_a_dir";
    std::ofstream(blocker) << "x";
    const std::string bad_trace = blocker + "/trace.json";
    const std::string bad_profile = blocker + "/profile.json";
    struct Case
    {
        const char *trace;
        const char *profile;
    };
    for (const Case &c : {Case{bad_trace.c_str(), nullptr},
                          Case{nullptr, bad_profile.c_str()},
                          Case{bad_trace.c_str(), bad_profile.c_str()}}) {
        {
            EnvVarScope trace("PIMEVAL_TRACE", c.trace);
            EnvVarScope profile("PIMEVAL_PROFILE", c.profile);
            ASSERT_EQ(pimCreateDeviceFromConfig(smallConfig()),
                      PimStatus::PIM_OK);
            pimClearLastError();
            EXPECT_EQ(pimDeleteDevice(), PimStatus::PIM_ERROR);
        }
        EXPECT_EQ(pimGetLastError(), PimStatus::PIM_ERROR);
        const std::string message = pimGetLastErrorMessage();
        for (const char *path : {c.trace, c.profile}) {
            if (path) {
                EXPECT_NE(message.find(path), std::string::npos)
                    << message;
            }
        }
        EXPECT_FALSE(pimTraceActive());
        EXPECT_FALSE(pimProfileActive());
        // The device is gone either way: a new one can be created.
        EXPECT_FALSE(pimIsDeviceActive());
        ASSERT_EQ(pimCreateDeviceFromConfig(smallConfig()),
                  PimStatus::PIM_OK);
        ASSERT_EQ(pimDeleteDevice(), PimStatus::PIM_OK);
    }
    std::remove(blocker.c_str());
}
#endif // PIMEVAL_TRACING_ENABLED
