/**
 * @file
 * PIMbench: Matrix-Vector Multiplication / GEMV (Table I).
 *
 * y = M * v for an m x n int32 matrix. The PIM mapping stores one
 * object per matrix column and accumulates y += col_j * v[j] with the
 * fused scaled-add, the standard column-sweep formulation used by
 * PIMbench. Multiplication dominates, so Fulcrum leads (Section VIII).
 */

#ifndef PIMEVAL_APPS_GEMV_H_
#define PIMEVAL_APPS_GEMV_H_

#include <cstdint>
#include <vector>

#include "apps/app_common.h"

namespace pimbench {

struct GemvParams
{
    uint64_t rows = 2048; ///< m (output length)
    uint64_t cols = 64;   ///< n (columns = PIM calls)
    uint64_t seed = 3;
};

AppResult runGemv(const GemvParams &params);

/**
 * Pre-allocated device objects for column sweeps: one column staging
 * buffer plus the accumulator. Reusing one workspace across sweeps
 * (GEMM, VGG dense layers) avoids per-sweep alloc/free churn. With
 * fusion on, captured copies stream host tiles through the fused
 * tape and back-to-back writes to the staging buffer are WAW-elided.
 */
class GemvWorkspace
{
  public:
    /** Allocate buffers for m-element columns on the active device. */
    explicit GemvWorkspace(uint64_t m);
    ~GemvWorkspace();
    GemvWorkspace(const GemvWorkspace &) = delete;
    GemvWorkspace &operator=(const GemvWorkspace &) = delete;

    bool ok() const { return ok_; }
    PimObjId column() const { return col_; }
    PimObjId acc() const { return acc_; }

  private:
    PimObjId col_ = -1;
    PimObjId acc_ = -1;
    bool ok_ = false;
};

/**
 * Reusable column-sweep GEMV on the active device; operates on
 * column-major matrix data and returns y. Exposed for GEMM and the
 * VGG dense layers.
 * @param matrix column-major m*n values.
 */
std::vector<int> pimGemvColumnSweep(const std::vector<int> &matrix,
                                    const std::vector<int> &v,
                                    uint64_t m, uint64_t n);

/** Column sweep into a caller-owned workspace (m must match). */
std::vector<int> pimGemvColumnSweep(GemvWorkspace &ws,
                                    const std::vector<int> &matrix,
                                    const std::vector<int> &v,
                                    uint64_t m, uint64_t n);

} // namespace pimbench

#endif // PIMEVAL_APPS_GEMV_H_
