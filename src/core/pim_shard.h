/**
 * @file
 * Sharded execution layer: split one oversized workload across K
 * same-architecture contexts (API v2).
 *
 * A PimShardGroup owns K freshly created contexts of one device
 * configuration and presents a single-device-like surface over them:
 * a sharded allocation is K per-context slices, a command broadcast
 * runs on every shard, copies partition (block) or interleave
 * (round-robin) the host buffer across the slices, and reductions
 * gather per-shard partial sums combined in a binary tree. Shards run
 * one after another on the calling thread; each shard device spreads
 * its own kernels across its thread pool.
 *
 * Partitioning:
 *  - kBlock: shard s holds the contiguous element range
 *    [offset_s, offset_s + count_s); copies are direct pointer
 *    arithmetic into the host buffer.
 *  - kRoundRobin: element i lives on shard i % K (slot i / K); copies
 *    gather/scatter through per-shard staging buffers on the host.
 * Both produce bit-identical functional results; they differ in how
 * copy traffic maps to shards for non-uniform access patterns.
 *
 * Statistics: each shard's context keeps its own exact PimStatsMgr;
 * aggregatedStats() sums the K snapshots into one fleet-level
 * PimRunStats (wall-clock-style fields add, as K devices would).
 */

#ifndef PIMEVAL_CORE_PIM_SHARD_H_
#define PIMEVAL_CORE_PIM_SHARD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/pim_context.h"
#include "core/pim_params.h"
#include "core/pim_stats.h"
#include "core/pim_types.h"

namespace pimeval {

/** How sharded allocations map elements to shards. */
enum class PimShardPartition {
    kBlock = 0,   ///< contiguous ranges
    kRoundRobin,  ///< element i -> shard i % K
};

class PimShardGroup
{
  public:
    /**
     * Create a group of @p num_shards contexts simulating @p config.
     * Contexts are labeled "<label_prefix>.s<index>". @return nullptr
     * on failure (pimGetLastError has the detail).
     */
    static std::unique_ptr<PimShardGroup>
    create(const PimDeviceConfig &config, size_t num_shards,
           PimShardPartition partition,
           const std::string &label_prefix = "shard");

    /** Destroys the K contexts (flushing their fusion windows). */
    ~PimShardGroup();

    PimShardGroup(const PimShardGroup &) = delete;
    PimShardGroup &operator=(const PimShardGroup &) = delete;

    size_t numShards() const { return shards_.size(); }
    PimShardPartition partition() const { return partition_; }
    /** Shard @p i's context (for per-shard stats or tracing). */
    PimContext shard(size_t i) const { return shards_[i]; }

    /** Flush every shard's fusion window. */
    void sync();

    // --- Sharded allocations ---

    /**
     * Allocate @p num_elements of @p data_type split across the
     * shards under the group's partitioning. @return a group-local
     * handle (valid only with this group's methods), or -1.
     */
    PimObjId alloc(PimAllocEnum alloc_type, uint64_t num_elements,
                   PimDataType data_type);

    /** Allocate shard-by-shard associated with @p ref's slices. */
    PimObjId allocAssociated(PimObjId ref, PimDataType data_type);

    PimStatus free(PimObjId obj);

    /** Total element count of a sharded allocation (0 if unknown). */
    uint64_t numElements(PimObjId obj) const;

    // --- Data movement (whole-object) ---

    PimStatus copyHostToDevice(const void *src, PimObjId dest);
    PimStatus copyDeviceToHost(PimObjId src, void *dest);

    // --- Command broadcast (runs on every shard) ---

    PimStatus executeBinary(PimCmdEnum cmd, PimObjId a, PimObjId b,
                            PimObjId dest);
    PimStatus executeUnary(PimCmdEnum cmd, PimObjId a, PimObjId dest);
    PimStatus executeScalar(PimCmdEnum cmd, PimObjId a, PimObjId dest,
                            uint64_t scalar);
    PimStatus executeScaledAdd(PimObjId a, PimObjId b, PimObjId dest,
                               uint64_t scalar);
    PimStatus executeBroadcast(PimObjId dest, uint64_t value);

    /**
     * Sharded reduction: per-shard pimRedSum partials gathered and
     * combined pairwise in a binary tree (int64 wrap-around addition
     * is associative, so the tree matches the sequential sum bit for
     * bit).
     */
    PimStatus executeRedSum(PimObjId a, int64_t *result);

    // --- Fleet statistics ---

    /** Sum of the K per-shard statistics snapshots (flushes first). */
    PimRunStats aggregatedStats();

    /** Reset every shard's statistics. */
    void resetStats();

  private:
    /** One shard's piece of a sharded allocation. */
    struct Slice
    {
        PimObjId obj = -1;
        uint64_t count = 0;
    };

    /** A sharded allocation: K slices plus layout metadata. */
    struct ShardedObj
    {
        PimDataType dtype = PimDataType::PIM_INT32;
        uint64_t total = 0;
        std::vector<Slice> slices;
    };

    PimShardGroup(std::vector<PimContext> shards,
                  PimShardPartition partition);

    /** Slice sizes for @p total elements (both partitionings give
     *  shard s: total/K plus one of the first total%K remainders). */
    std::vector<uint64_t> sliceCounts(uint64_t total) const;

    const ShardedObj *find(PimObjId obj, const char *what) const;

    /** Free every slice of @p so (best effort, for error unwinding
     *  and free()). */
    void freeSlices(const ShardedObj &so);

    std::vector<PimContext> shards_;
    PimShardPartition partition_;
    std::unordered_map<PimObjId, ShardedObj> objs_;
    PimObjId next_id_ = 1;
};

} // namespace pimeval

#endif // PIMEVAL_CORE_PIM_SHARD_H_
