/**
 * @file
 * Tests of the consolidated runtime-configuration resolver: the
 * config > env > default precedence per knob, end-to-end effect on
 * device creation, and the JSON dump.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>

#include "core/pim_api.h"
#include "core/pim_context.h"
#include "core/pim_json.h"
#include "core/pim_runtime_config.h"

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

/** Clears programmatic overrides for one test, restoring defaults. */
struct ConfigReset
{
    ~ConfigReset() { pimSetRuntimeConfig(PimRuntimeConfig{}); }
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

} // namespace

TEST(RuntimeConfig, DefaultsWhenNothingSet)
{
    ConfigReset reset;
    EnvVarScope e1("PIMEVAL_FUSION", nullptr);
    EnvVarScope e2("PIMEVAL_MEM_BACKEND", nullptr);
    EnvVarScope e3("PIMEVAL_TRACE_CAPACITY", nullptr);
    EnvVarScope e4("PIMEVAL_PROFILE_SAMPLE_MS", nullptr);
    EnvVarScope e5("PIMEVAL_TRACE", nullptr);
    EnvVarScope e6("PIMEVAL_PROFILE", nullptr);

    const PimResolvedRuntimeConfig rt = pimResolveRuntimeConfig();
    EXPECT_EQ(rt.fusion.source, PimKnobSource::kDefault);
    EXPECT_FALSE(rt.fusion.value);
    EXPECT_EQ(rt.mem_backend.source, PimKnobSource::kDefault);
    EXPECT_EQ(rt.mem_backend.value,
              PimMemBackend::PIM_MEM_BACKEND_DEFAULT);
    EXPECT_EQ(rt.trace_path.source, PimKnobSource::kDefault);
    EXPECT_TRUE(rt.trace_path.value.empty());
    EXPECT_EQ(rt.trace_capacity.source, PimKnobSource::kDefault);
    EXPECT_GT(rt.trace_capacity.value, 0u);
    EXPECT_EQ(rt.profile_sample_ms.source, PimKnobSource::kDefault);
}

TEST(RuntimeConfig, EnvBeatsDefault)
{
    ConfigReset reset;
    EnvVarScope e1("PIMEVAL_FUSION", "1");
    EnvVarScope e2("PIMEVAL_MEM_BACKEND", "analytical");
    EnvVarScope e3("PIMEVAL_TRACE_CAPACITY", "4096");
    EnvVarScope e4("PIMEVAL_PROFILE_SAMPLE_MS", "7.5");
    EnvVarScope e5("PIMEVAL_TRACE", "t.json");

    const PimResolvedRuntimeConfig rt = pimResolveRuntimeConfig();
    EXPECT_EQ(rt.fusion.source, PimKnobSource::kEnv);
    EXPECT_TRUE(rt.fusion.value);
    EXPECT_EQ(rt.mem_backend.source, PimKnobSource::kEnv);
    EXPECT_EQ(rt.mem_backend.value,
              PimMemBackend::PIM_MEM_BACKEND_ANALYTICAL);
    EXPECT_EQ(rt.trace_capacity.source, PimKnobSource::kEnv);
    EXPECT_EQ(rt.trace_capacity.value, 4096u);
    EXPECT_EQ(rt.profile_sample_ms.source, PimKnobSource::kEnv);
    EXPECT_DOUBLE_EQ(rt.profile_sample_ms.value, 7.5);
    EXPECT_EQ(rt.trace_path.source, PimKnobSource::kEnv);
    EXPECT_EQ(rt.trace_path.value, "t.json");
}

TEST(RuntimeConfig, ConfigBeatsEnv)
{
    ConfigReset reset;
    EnvVarScope e1("PIMEVAL_FUSION", "1");
    EnvVarScope e2("PIMEVAL_MEM_BACKEND", "analytical");
    EnvVarScope e3("PIMEVAL_TRACE_CAPACITY", "4096");

    PimRuntimeConfig overrides;
    overrides.fusion = false;
    overrides.mem_backend = PimMemBackend::PIM_MEM_BACKEND_CYCLE;
    overrides.trace_capacity = 128;
    ASSERT_EQ(pimSetRuntimeConfig(overrides), PimStatus::PIM_OK);

    const PimResolvedRuntimeConfig rt = pimResolveRuntimeConfig();
    EXPECT_EQ(rt.fusion.source, PimKnobSource::kConfig);
    EXPECT_FALSE(rt.fusion.value);
    EXPECT_EQ(rt.mem_backend.source, PimKnobSource::kConfig);
    EXPECT_EQ(rt.mem_backend.value,
              PimMemBackend::PIM_MEM_BACKEND_CYCLE);
    EXPECT_EQ(rt.trace_capacity.source, PimKnobSource::kConfig);
    EXPECT_EQ(rt.trace_capacity.value, 128u);

    // Clearing the overrides restores env resolution.
    ASSERT_EQ(pimSetRuntimeConfig(PimRuntimeConfig{}),
              PimStatus::PIM_OK);
    const PimResolvedRuntimeConfig rt2 = pimResolveRuntimeConfig();
    EXPECT_EQ(rt2.fusion.source, PimKnobSource::kEnv);
    EXPECT_TRUE(rt2.fusion.value);
    EXPECT_EQ(rt2.trace_capacity.value, 4096u);
}

TEST(RuntimeConfig, RoundTripThroughGet)
{
    ConfigReset reset;
    PimRuntimeConfig overrides;
    overrides.fusion = true;
    overrides.profile_sample_ms = 3.0;
    ASSERT_EQ(pimSetRuntimeConfig(overrides), PimStatus::PIM_OK);
    const PimRuntimeConfig got = pimGetRuntimeConfig();
    ASSERT_TRUE(got.fusion.has_value());
    EXPECT_TRUE(*got.fusion);
    ASSERT_TRUE(got.profile_sample_ms.has_value());
    EXPECT_DOUBLE_EQ(*got.profile_sample_ms, 3.0);
    EXPECT_FALSE(got.mem_backend.has_value());
}

/** The fusion knob must actually govern devices created after it. */
TEST(RuntimeConfig, FusionKnobAppliesAtDeviceCreation)
{
    ConfigReset reset;
    EnvVarScope env("PIMEVAL_FUSION", nullptr);

    PimRuntimeConfig overrides;
    overrides.fusion = true;
    ASSERT_EQ(pimSetRuntimeConfig(overrides), PimStatus::PIM_OK);
    PimContext on = pimCreateContextFromConfig(smallConfig(), "rc.on");
    ASSERT_NE(on, nullptr);
    {
        PimContextScope scope(on);
        EXPECT_TRUE(pimGetFusionEnabled());
    }

    overrides.fusion = false;
    ASSERT_EQ(pimSetRuntimeConfig(overrides), PimStatus::PIM_OK);
    PimContext off =
        pimCreateContextFromConfig(smallConfig(), "rc.off");
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

/** The mem-backend knob must govern backend resolution end to end,
 *  with the explicit per-device field still winning. */
TEST(RuntimeConfig, MemBackendPrecedenceEndToEnd)
{
    ConfigReset reset;
    EnvVarScope env("PIMEVAL_MEM_BACKEND", "analytical");

    // Env selects ANALYTICAL.
    PimContext a = pimCreateContextFromConfig(smallConfig(), "rc.a");
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(pimContextMemBackend(a),
              PimMemBackend::PIM_MEM_BACKEND_ANALYTICAL);

    // Programmatic override beats env.
    PimRuntimeConfig overrides;
    overrides.mem_backend = PimMemBackend::PIM_MEM_BACKEND_LUT;
    ASSERT_EQ(pimSetRuntimeConfig(overrides), PimStatus::PIM_OK);
    PimContext b = pimCreateContextFromConfig(smallConfig(), "rc.b");
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(pimContextMemBackend(b),
              PimMemBackend::PIM_MEM_BACKEND_LUT);

    // The per-device struct field beats everything.
    PimDeviceConfig explicit_cfg = smallConfig();
    explicit_cfg.mem_backend = PimMemBackend::PIM_MEM_BACKEND_CYCLE;
    PimContext c =
        pimCreateContextFromConfig(explicit_cfg, "rc.c");
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(pimContextMemBackend(c),
              PimMemBackend::PIM_MEM_BACKEND_CYCLE);

    pimDestroyContext(a);
    pimDestroyContext(b);
    pimDestroyContext(c);
}

TEST(RuntimeConfig, DumpReportsValueAndProvenance)
{
    ConfigReset reset;
    EnvVarScope e1("PIMEVAL_FUSION", "1");
    EnvVarScope e2("PIMEVAL_MEM_BACKEND", nullptr);
    PimRuntimeConfig overrides;
    overrides.trace_capacity = 2048;
    ASSERT_EQ(pimSetRuntimeConfig(overrides), PimStatus::PIM_OK);

    std::ostringstream os;
    ASSERT_EQ(pimDumpRuntimeConfig(os), PimStatus::PIM_OK);
    const std::string json = os.str();
    // Every knob is present with its env-var name.
    for (const char *needle :
         {"\"trace_path\"", "\"trace_capacity\"", "\"profile_path\"",
          "\"profile_sample_ms\"", "\"fusion\"", "\"mem_backend\"",
          "PIMEVAL_TRACE_CAPACITY",
          "PIMEVAL_MEM_BACKEND"}) {
        EXPECT_NE(json.find(needle), std::string::npos)
            << "missing " << needle << " in:\n"
            << json;
    }
    // Provenance markers for the three sources in play.
    EXPECT_NE(json.find("\"source\": \"config\""), std::string::npos);
    EXPECT_NE(json.find("\"source\": \"env\""), std::string::npos);
    EXPECT_NE(json.find("\"source\": \"default\""),
              std::string::npos);
    // The overridden capacity value is visible.
    EXPECT_NE(json.find("2048"), std::string::npos);
}

TEST(RuntimeConfig, DumpIsValidJsonForControlCharacterPaths)
{
    ConfigReset reset;
    const std::string path = "out dir\\tab\there\nline \"q\".json";
    PimRuntimeConfig overrides;
    overrides.profile_path = path;
    ASSERT_EQ(pimSetRuntimeConfig(overrides), PimStatus::PIM_OK);

    std::ostringstream os;
    ASSERT_EQ(pimDumpRuntimeConfig(os), PimStatus::PIM_OK);
    const std::string dump = os.str();
    // Raw control characters are invalid inside JSON strings: the tab
    // must be escaped, and the newline must not split the knob's line.
    EXPECT_EQ(dump.find('\t'), std::string::npos) << dump;
    const size_t at = dump.find("\"profile_path\"");
    ASSERT_NE(at, std::string::npos);
    const std::string line = dump.substr(at, dump.find('\n', at) - at);
    EXPECT_NE(line.find("\"source\""), std::string::npos) << line;

    std::string error;
    JsonValue doc;
    ASSERT_TRUE(JsonParser(dump, &error).parse(&doc))
        << error << " in:\n" << dump;
    const JsonValue *knob = doc.find("profile_path");
    ASSERT_NE(knob, nullptr);
    const JsonValue *value = knob->find("value");
    ASSERT_NE(value, nullptr);
    EXPECT_EQ(value->str, path);
}
