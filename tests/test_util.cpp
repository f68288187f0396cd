/**
 * @file
 * Unit tests for the utility layer: PRNG, string formatting, table
 * writer, the shared JSON string escaper, and the metrics registry's
 * JSON writer (the thread pool has its own suite, test_thread_pool).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <sstream>

#include "core/pim_api.h"
#include "core/pim_json.h"
#include "util/prng.h"
#include "util/string_utils.h"
#include "util/table_writer.h"

using namespace pimeval;

TEST(Prng, DeterministicStreams)
{
    Prng a(42), b(42), c(43);
    for (int i = 0; i < 100; ++i) {
        const uint64_t va = a.next();
        EXPECT_EQ(va, b.next());
        (void)c;
    }
    Prng d(43);
    bool differs = false;
    Prng e(42);
    for (int i = 0; i < 10; ++i)
        differs |= (d.next() != e.next());
    EXPECT_TRUE(differs);
}

TEST(Prng, RangesRespected)
{
    Prng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const int64_t v = rng.nextInt(-5, 5);
        EXPECT_GE(v, -5);
        EXPECT_LE(v, 5);
        const double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
    const auto vec = rng.intVector(100, 10, 20);
    for (int v : vec) {
        EXPECT_GE(v, 10);
        EXPECT_LE(v, 20);
    }
}

TEST(Prng, ReasonableSpread)
{
    Prng rng(11);
    std::set<uint64_t> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(rng.next());
    EXPECT_EQ(seen.size(), 1000u);
}

TEST(StringUtils, Formatting)
{
    EXPECT_EQ(formatFixed(3.14159, 2), "3.14");
    EXPECT_EQ(formatBytes(512), "512 B");
    EXPECT_EQ(formatBytes(2048), "2.0 KB");
    EXPECT_EQ(formatBytes(3ull << 20), "3.0 MB");
    EXPECT_EQ(formatTime(0.5e-9 * 1000), "500.000 ns");
    EXPECT_EQ(formatTime(1.5e-3), "1.500 ms");
    EXPECT_EQ(formatEnergy(2e-3), "2.000 mJ");
    EXPECT_EQ(padLeft("ab", 5), "   ab");
    EXPECT_EQ(padRight("ab", 5), "ab   ");
    EXPECT_TRUE(iequals("PIM", "pim"));
    EXPECT_FALSE(iequals("PIM", "pin"));
    const auto parts = splitString("a,b,,c", ',');
    ASSERT_EQ(parts.size(), 3u);
    EXPECT_EQ(parts[2], "c");
}

TEST(TableWriter, AlignedOutputAndCsv)
{
    TableWriter table("Demo", {"name", "value"});
    table.addRow({"alpha", "1"});
    table.addNumericRow("beta", {2.5}, 1);
    EXPECT_EQ(table.numRows(), 2u);

    std::ostringstream oss;
    table.print(oss);
    const std::string text = oss.str();
    EXPECT_NE(text.find("Demo"), std::string::npos);
    EXPECT_NE(text.find("alpha"), std::string::npos);
    EXPECT_NE(text.find("2.5"), std::string::npos);

    std::ostringstream csv;
    table.writeCsv(csv);
    EXPECT_NE(csv.str().find("name,value"), std::string::npos);
    EXPECT_NE(csv.str().find("beta,2.5"), std::string::npos);
}

TEST(Json, EscapeRoundTripsThroughParser)
{
    const std::string raw =
        std::string("quote\" backslash\\ nl\n tab\t cr\r ctl") + '\x01' +
        " del\x7f end";
    const std::string escaped = jsonEscape(raw);
    // No raw control character survives escaping.
    for (const char c : escaped)
        EXPECT_GE(static_cast<unsigned char>(c), 0x20u);
    EXPECT_NE(escaped.find("\\u0001"), std::string::npos);

    const std::string doc = "{\"k\": \"" + escaped + "\"}";
    std::string error;
    JsonValue value;
    ASSERT_TRUE(JsonParser(doc, &error).parse(&value)) << error;
    const JsonValue *k = value.find("k");
    ASSERT_NE(k, nullptr);
    EXPECT_EQ(k->str, raw);
}

/** pimDumpMetrics always writes valid JSON: metric names are escaped
 *  and non-finite gauges are written as 0. */
TEST(Json, MetricsDumpIsValidJson)
{
    const std::string name = "test.quote\"back\\slash";
    PimMetrics &metrics = PimMetrics::instance();
    metrics.counter(name).add(3);
    metrics.gauge("test.gauge_nan").set(std::nan(""));
    metrics.gauge("test.gauge_inf")
        .set(std::numeric_limits<double>::infinity());

    std::ostringstream dump;
    ASSERT_EQ(pimDumpMetrics(dump), PimStatus::PIM_OK);
    std::string error;
    JsonValue root;
    ASSERT_TRUE(JsonParser(dump.str(), &error).parse(&root))
        << error << "\n" << dump.str();
    const JsonValue *counter = root.find(name);
    ASSERT_NE(counter, nullptr);
    EXPECT_EQ(counter->number, 3.0);
    for (const char *gauge : {"test.gauge_nan", "test.gauge_inf"}) {
        const JsonValue *value = root.find(gauge);
        ASSERT_NE(value, nullptr) << gauge;
        EXPECT_EQ(value->kind, JsonValue::Kind::kNumber) << gauge;
        EXPECT_EQ(value->number, 0.0) << gauge;
    }
}
