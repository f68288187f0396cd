/**
 * @file
 * Regenerates Table I: the PIMbench suite with domains, memory access
 * patterns, execution types, and per-run verification status. Runs
 * every benchmark on the Fulcrum target to collect the measured
 * execution-type and access-pattern characteristics.
 *
 * When PIMEVAL_BENCH_TABLE1_JSON=<path> is set, the rows are also
 * written as JSON together with the profiler's per-phase breakdown
 * (each app is one top-level phase with setup/h2d/compute/d2h
 * children). The bench arms the profiler itself for that run if
 * PIMEVAL_PROFILE did not already, exporting PROFILE.json + HTML
 * next to the JSON.
 */

#include "bench_common.h"

using namespace pimbench;

namespace {

struct SuiteRow
{
    const char *domain;
    const char *name;
};

const SuiteRow kRows[] = {
    {"Linear Algebra", "Vector Addition"},
    {"Linear Algebra", "AXPY"},
    {"Linear Algebra", "GEMV"},
    {"Linear Algebra", "GEMM"},
    {"Sort", "Radix Sort"},
    {"Cryptography", "AES-Encryption"},
    {"Cryptography", "AES-Decryption"},
    {"Graph", "Triangle Count"},
    {"Database", "Filter-By-Key"},
    {"Image Processing", "Histogram"},
    {"Image Processing", "Brightness"},
    {"Image Processing", "Image Downsampling"},
    {"Supervised Learning", "KNN"},
    {"Supervised Learning", "Linear Regression"},
    {"Unsupervised Learning", "K-means"},
    {"Neural Network", "VGG-13"},
    {"Neural Network", "VGG-16"},
    {"Neural Network", "VGG-19"},
};

} // namespace

int
main()
{
    quietLogs();
    printConfigBanner("Table I -- PIMbench Suite");

    const char *json_env = std::getenv("PIMEVAL_BENCH_TABLE1_JSON");
    const std::string json_path =
        (json_env && *json_env) ? json_env : "";

    DeviceSession session(
        benchConfig(PimDeviceEnum::PIM_DEVICE_FULCRUM, 32));
    if (!session.ok())
        return 1;

    // JSON mode wants the per-phase breakdown, so make sure the
    // profiler records this run even without PIMEVAL_PROFILE.
    bool own_profile = false;
    if (!json_path.empty() && !pimProfileActive()) {
        own_profile = pimProfileStart(
                          (json_path + ".profile.json").c_str()) ==
            PimStatus::PIM_OK;
    }

    pimeval::TableWriter table(
        "Table I: PIMbench Suite (laptop-scale inputs)",
        {"Domain", "Application", "Sequential", "Random",
         "Execution Type", "H2D Bytes", "Verified"});

    struct RowResult
    {
        const SuiteRow *row;
        AppResult result;
    };
    std::vector<RowResult> results;
    for (const auto &row : kRows) {
        results.push_back(
            {&row, runBenchmarkByName(row.name, SuiteScale::kSmall)});
        const AppResult &result = results.back().result;
        table.addRow({
            row.domain,
            row.name,
            result.features.sequential_access ? "yes" : "no",
            result.features.random_access ? "yes" : "no",
            result.features.uses_host ? "PIM + Host" : "PIM",
            std::to_string(result.stats.bytes_h2d),
            result.verified ? "yes" : "NO",
        });
    }

    emitTable(table);
    std::cout << "\nNote: paper Table I input sizes (e.g., 2.0e9 "
                 "int32 for vector addition) are scaled to laptop "
                 "sizes here; see EXPERIMENTS.md.\n";

    if (!json_path.empty()) {
        // Snapshot before stopping: stop() freezes but retains the
        // tree, and exports PROFILE.json + HTML for the run.
        const pimeval::PimProfileSnapshot snap =
            pimProfileSnapshot();
        if (own_profile)
            pimProfileStop();
        std::ofstream out(json_path);
        if (!out) {
            std::cerr << "cannot open " << json_path
                      << " for writing\n";
            return 1;
        }
        out << "{\n  \"bench\": \"table1_suite\",\n"
            << "  \"target\": \"fulcrum\",\n  \"results\": [\n";
        for (size_t i = 0; i < results.size(); ++i) {
            const AppResult &r = results[i].result;
            out << "    {\"domain\": \""
                << pimeval::jsonEscape(results[i].row->domain)
                << "\", \"app\": \"" << pimeval::jsonEscape(r.name)
                << "\", \"sequential\": "
                << (r.features.sequential_access ? "true" : "false")
                << ", \"random\": "
                << (r.features.random_access ? "true" : "false")
                << ", \"uses_host\": "
                << (r.features.uses_host ? "true" : "false")
                << ", \"bytes_h2d\": " << r.stats.bytes_h2d
                << ", \"kernel_sec\": " << r.stats.kernel_sec
                << ", \"copy_sec\": " << r.stats.copy_sec
                << ", \"verified\": "
                << (r.verified ? "true" : "false") << "}"
                << (i + 1 < results.size() ? "," : "") << "\n";
        }
        out << "  ],\n  \"profile_phases\": ";
        pimeval::writeProfilePhasesJson(out, snap.phases);
        out << "\n}\n";
        std::cout << "[json written: " << json_path << "]\n";
    }
    return 0;
}
