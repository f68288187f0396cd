/**
 * @file
 * K-means with bitmask grouping on PIM.
 */

#include "apps/kmeans.h"

#include <cmath>

#include "core/pim_profile.h"
#include "util/prng.h"

namespace pimbench {

namespace {

struct Centroid
{
    int x;
    int y;

    bool operator==(const Centroid &o) const
    {
        return x == o.x && y == o.y;
    }
};

/** CPU reference: identical algorithm, scalar execution. */
std::vector<Centroid>
referenceKmeans(const std::vector<int> &xs, const std::vector<int> &ys,
                std::vector<Centroid> centroids, unsigned iterations)
{
    const uint64_t n = xs.size();
    const unsigned k = centroids.size();
    for (unsigned it = 0; it < iterations; ++it) {
        std::vector<int64_t> sum_x(k, 0), sum_y(k, 0), count(k, 0);
        for (uint64_t i = 0; i < n; ++i) {
            int best_dist = INT32_MAX;
            unsigned best_c = 0;
            for (unsigned c = 0; c < k; ++c) {
                const int dist = std::abs(xs[i] - centroids[c].x) +
                    std::abs(ys[i] - centroids[c].y);
                if (dist < best_dist) {
                    best_dist = dist;
                    best_c = c;
                }
            }
            sum_x[best_c] += xs[i];
            sum_y[best_c] += ys[i];
            ++count[best_c];
        }
        for (unsigned c = 0; c < k; ++c) {
            if (count[c] > 0) {
                centroids[c].x = static_cast<int>(sum_x[c] / count[c]);
                centroids[c].y = static_cast<int>(sum_y[c] / count[c]);
            }
        }
    }
    return centroids;
}

} // namespace

AppResult
runKmeans(const KmeansParams &params)
{
    AppResult result;
    result.name = "K-means";
    pimResetStats();

    const uint64_t n = params.num_points;
    const unsigned k = params.k;
    pimeval::Prng rng(params.seed);
    const std::vector<int> xs = rng.intVector(n, -10000, 10000);
    const std::vector<int> ys = rng.intVector(n, -10000, 10000);

    std::vector<Centroid> centroids(k);
    for (auto &c : centroids) {
        c.x = static_cast<int>(rng.nextInt(-10000, 10000));
        c.y = static_cast<int>(rng.nextInt(-10000, 10000));
    }
    const std::vector<Centroid> initial = centroids;

    pimProfileBegin("setup");
    const PimObjId obj_x =
        pimAlloc(PimAllocEnum::PIM_ALLOC_AUTO, n, 32,
                 PimDataType::PIM_INT32);
    auto assoc = [&]() {
        return pimAllocAssociated(32, obj_x, PimDataType::PIM_INT32);
    };
    const PimObjId obj_y = assoc();
    const PimObjId obj_tmp = assoc();
    const PimObjId obj_min = assoc();
    const PimObjId obj_mask = assoc();
    const PimObjId obj_assigned = assoc();
    const PimObjId obj_dy = assoc();
    // Per-centroid distances (kept for the running minimum and the
    // grouping pass); the y-delta is scratch shared by all centroids.
    std::vector<PimObjId> obj_dist(k);
    bool alloc_ok = obj_x >= 0 && obj_y >= 0 && obj_tmp >= 0 &&
        obj_min >= 0 && obj_mask >= 0 && obj_assigned >= 0 &&
        obj_dy >= 0;
    for (auto &d : obj_dist) {
        d = assoc();
        alloc_ok = alloc_ok && d >= 0;
    }
    pimProfileEnd();
    if (!alloc_ok)
        return result;

    {
        PIM_PROFILE_SCOPE("h2d");
        pimCopyHostToDevice(xs.data(), obj_x);
        pimCopyHostToDevice(ys.data(), obj_y);
    }

    pimProfileBegin("compute");
    for (unsigned it = 0; it < params.iterations; ++it) {
        // Distances per centroid. With fusion enabled the block is a
        // capture region: [sub,abs] and [sub,abs,add] chains fuse per
        // centroid and the pre-abs intermediates' stores elide.
        const bool fused = pimGetFusionEnabled();
        if (fused)
            pimBeginFusion();
        for (unsigned c = 0; c < k; ++c) {
            pimSubScalar(obj_x, obj_dist[c],
                         static_cast<uint64_t>(
                             static_cast<int64_t>(centroids[c].x)));
            pimAbs(obj_dist[c], obj_dist[c]);
            pimSubScalar(obj_y, obj_dy,
                         static_cast<uint64_t>(
                             static_cast<int64_t>(centroids[c].y)));
            pimAbs(obj_dy, obj_dy);
            pimAdd(obj_dist[c], obj_dy, obj_dist[c]);
        }
        if (fused)
            pimEndFusion();

        // Running minimum.
        pimCopyDeviceToDevice(obj_dist[0], obj_min);
        for (unsigned c = 1; c < k; ++c)
            pimMin(obj_min, obj_dist[c], obj_min);

        // Group with first-match tie-breaking, then masked sums.
        pimBroadcastInt(obj_assigned, 0);
        for (unsigned c = 0; c < k; ++c) {
            pimEQ(obj_dist[c], obj_min, obj_mask);
            // mask &= !assigned (0/1 invert via xor 1).
            pimXorScalar(obj_assigned, obj_tmp, 1);
            pimAnd(obj_mask, obj_tmp, obj_mask);
            pimOr(obj_assigned, obj_mask, obj_assigned);

            // The three reductions share one fusion region: each
            // mask product fuses with its reduction into a single
            // dot-product sweep, and the product temporaries are
            // born and freed inside the window so their stores
            // elide. Results are valid once pimEndFusion flushes.
            int64_t count = 0, sum_x = 0, sum_y = 0;
            pimBeginFusion();
            pimRedSum(obj_mask, &count);
            const PimObjId obj_px = assoc();
            pimMul(obj_x, obj_mask, obj_px);
            pimRedSum(obj_px, &sum_x);
            pimFree(obj_px);
            const PimObjId obj_py = assoc();
            pimMul(obj_y, obj_mask, obj_py);
            pimRedSum(obj_py, &sum_y);
            pimFree(obj_py);
            pimEndFusion();

            // Host: centroid update (constant work).
            pimAddHostWork(4 * sizeof(int64_t), 8);
            if (count > 0) {
                centroids[c].x = static_cast<int>(sum_x / count);
                centroids[c].y = static_cast<int>(sum_y / count);
            }
        }
    }
    pimProfileEnd();

    pimFree(obj_x);
    pimFree(obj_y);
    pimFree(obj_tmp);
    pimFree(obj_min);
    pimFree(obj_mask);
    pimFree(obj_assigned);
    pimFree(obj_dy);
    for (PimObjId d : obj_dist)
        pimFree(d);

    // Verify with the PIM semantics: distances (and hence
    // assignments) are fixed at iteration start, updates applied per
    // centroid after its masked reduction. referenceKmeans() keeps
    // the canonical Lloyd form for the unit tests.
    (void)referenceKmeans;
    {
        std::vector<Centroid> expect = initial;
        for (unsigned it = 0; it < params.iterations; ++it) {
            std::vector<unsigned> assign(n);
            for (uint64_t i = 0; i < n; ++i) {
                int best = INT32_MAX;
                unsigned best_c = 0;
                for (unsigned c = 0; c < k; ++c) {
                    const int dist = std::abs(xs[i] - expect[c].x) +
                        std::abs(ys[i] - expect[c].y);
                    if (dist < best) {
                        best = dist;
                        best_c = c;
                    }
                }
                assign[i] = best_c;
            }
            for (unsigned c = 0; c < k; ++c) {
                int64_t sum_x = 0, sum_y = 0, count = 0;
                for (uint64_t i = 0; i < n; ++i) {
                    if (assign[i] == c) {
                        sum_x += xs[i];
                        sum_y += ys[i];
                        ++count;
                    }
                }
                if (count > 0) {
                    expect[c].x = static_cast<int>(sum_x / count);
                    expect[c].y = static_cast<int>(sum_y / count);
                }
            }
        }
        result.verified = true;
        for (unsigned c = 0; c < k; ++c) {
            if (!(centroids[c] == expect[c]))
                result.verified = false;
        }
    }

    result.cpu_work.bytes = static_cast<uint64_t>(params.iterations) *
        2 * n * sizeof(int);
    result.cpu_work.ops = static_cast<uint64_t>(params.iterations) *
        n * k * 5;
    result.gpu_work = result.cpu_work;
    result.features.sequential_access = true;
    result.features.random_access = true;

    finalizeResult(result);
    return result;
}

} // namespace pimbench
