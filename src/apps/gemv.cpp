/**
 * @file
 * GEMV implementation.
 */

#include "apps/gemv.h"

#include "core/pim_profile.h"
#include "util/prng.h"

namespace pimbench {

GemvWorkspace::GemvWorkspace(uint64_t m)
{
    PIM_PROFILE_SCOPE("setup");
    col_ = pimAlloc(PimAllocEnum::PIM_ALLOC_AUTO, m, 32,
                    PimDataType::PIM_INT32);
    acc_ = pimAllocAssociated(32, col_, PimDataType::PIM_INT32);
    ok_ = col_ >= 0 && acc_ >= 0;
}

GemvWorkspace::~GemvWorkspace()
{
    if (col_ >= 0)
        pimFree(col_);
    if (acc_ >= 0)
        pimFree(acc_);
}

std::vector<int>
pimGemvColumnSweep(GemvWorkspace &ws, const std::vector<int> &matrix,
                   const std::vector<int> &v, uint64_t m, uint64_t n)
{
    std::vector<int> y(m, 0);
    if (!ws.ok())
        return y;

    {
        // One phase for the whole sweep: the per-column H2D staging
        // is deliberately interleaved with the scaled-adds, and the
        // profiler's modeled split shows its transfer share anyway.
        PIM_PROFILE_SCOPE("compute");
        // With fusion on, the whole sweep runs as a capture region:
        // each copy becomes a fused load feeding its scaled-add, the
        // staging buffer's stores are WAW-elided, and a window of K
        // columns executes as one fused sweep.
        const bool fused = pimGetFusionEnabled();
        if (fused)
            pimBeginFusion();
        pimBroadcastInt(ws.acc(), 0);
        for (uint64_t j = 0; j < n; ++j) {
            pimCopyHostToDevice(matrix.data() + j * m, ws.column());
            pimScaledAdd(
                ws.column(), ws.acc(), ws.acc(),
                static_cast<uint64_t>(static_cast<int64_t>(v[j])));
        }
        if (fused)
            pimEndFusion();
    }
    {
        PIM_PROFILE_SCOPE("d2h");
        pimCopyDeviceToHost(ws.acc(), y.data());
    }
    return y;
}

std::vector<int>
pimGemvColumnSweep(const std::vector<int> &matrix,
                   const std::vector<int> &v, uint64_t m, uint64_t n)
{
    GemvWorkspace ws(m);
    return pimGemvColumnSweep(ws, matrix, v, m, n);
}

AppResult
runGemv(const GemvParams &params)
{
    AppResult result;
    result.name = "GEMV";
    pimResetStats();

    const uint64_t m = params.rows;
    const uint64_t n = params.cols;
    pimeval::Prng rng(params.seed);
    const std::vector<int> matrix =
        rng.intVector(m * n, -1000, 1000); // column-major
    const std::vector<int> v = rng.intVector(n, -1000, 1000);

    const std::vector<int> y = pimGemvColumnSweep(matrix, v, m, n);

    // CPU reference.
    result.verified = true;
    for (uint64_t i = 0; i < m && result.verified; ++i) {
        int64_t acc = 0;
        for (uint64_t j = 0; j < n; ++j)
            acc += static_cast<int64_t>(matrix[j * m + i]) * v[j];
        if (y[i] != static_cast<int>(acc))
            result.verified = false;
    }

    result.cpu_work.bytes = (m * n + n + m) * sizeof(int);
    result.cpu_work.ops = 2 * m * n;
    result.gpu_work = result.cpu_work;
    result.features.sequential_access = true;

    finalizeResult(result);
    return result;
}

} // namespace pimbench
