/**
 * @file
 * Sharded execution implementation.
 *
 * Every operation talks to the shard devices directly (no
 * thread-local current-context churn): the group holds the K context
 * handles and dispatches to ctx->device. All methods are
 * single-threaded from the caller's perspective — concurrency comes
 * from each shard device's own thread pool.
 */

#include "core/pim_shard.h"

#include <cstring>

#include "core/pim_error.h"
#include "core/pim_metrics.h"
#include "core/pim_sim.h"
#include "util/logging.h"

namespace pimeval {

namespace {

/** Host-buffer bytes per element of a data type. */
uint64_t
hostElemBytes(PimDataType dtype)
{
    return (pimBitsOfDataType(dtype) + 7) / 8;
}

/** Per-shard failure: records @p what and the shard index as the
 *  thread's last error, preserving the device layer's own detail. */
PimStatus
failShard(const char *what, size_t shard)
{
    return fail(strCat(what, ": shard ", shard, " failed (",
                       pimGetLastErrorMessage(), ")"));
}

} // namespace

std::unique_ptr<PimShardGroup>
PimShardGroup::create(const PimDeviceConfig &config, size_t num_shards,
                      PimShardPartition partition,
                      const std::string &label_prefix)
{
    if (num_shards == 0) {
        fail("PimShardGroup: at least one shard required");
        return nullptr;
    }
    std::vector<PimContext> shards;
    shards.reserve(num_shards);
    for (size_t s = 0; s < num_shards; ++s) {
        PimContext ctx = pimCreateContextFromConfig(
            config,
            strCat(label_prefix, ".s", s).c_str());
        if (!ctx) {
            for (PimContext done : shards)
                pimDestroyContext(done);
            return nullptr;
        }
        shards.push_back(ctx);
    }
    PIM_METRIC_COUNT("shard.groups_created", 1);
    PIM_METRIC_COUNT("shard.contexts_created", num_shards);
    return std::unique_ptr<PimShardGroup>(
        new PimShardGroup(std::move(shards), partition));
}

PimShardGroup::PimShardGroup(std::vector<PimContext> shards,
                             PimShardPartition partition)
    : shards_(std::move(shards)), partition_(partition)
{
}

PimShardGroup::~PimShardGroup()
{
    for (PimContext ctx : shards_)
        pimDestroyContext(ctx);
}

void
PimShardGroup::sync()
{
    for (PimContext ctx : shards_)
        ctx->device->sync();
}

std::vector<uint64_t>
PimShardGroup::sliceCounts(uint64_t total) const
{
    const uint64_t k = shards_.size();
    std::vector<uint64_t> counts(k);
    for (uint64_t s = 0; s < k; ++s)
        counts[s] = total / k + (s < total % k ? 1 : 0);
    return counts;
}

const PimShardGroup::ShardedObj *
PimShardGroup::find(PimObjId obj, const char *what) const
{
    const auto it = objs_.find(obj);
    if (it == objs_.end()) {
        fail(strCat(what, ": unknown sharded object id ", obj));
        return nullptr;
    }
    return &it->second;
}

void
PimShardGroup::freeSlices(const ShardedObj &so)
{
    for (size_t s = 0; s < so.slices.size(); ++s)
        if (so.slices[s].obj >= 0)
            shards_[s]->device->free(so.slices[s].obj);
}

PimObjId
PimShardGroup::alloc(PimAllocEnum alloc_type, uint64_t num_elements,
                     PimDataType data_type)
{
    if (num_elements == 0) {
        fail("PimShardGroup::alloc: zero-element allocation");
        return -1;
    }
    ShardedObj so;
    so.dtype = data_type;
    so.total = num_elements;
    const std::vector<uint64_t> counts = sliceCounts(num_elements);
    so.slices.resize(shards_.size());
    for (size_t s = 0; s < shards_.size(); ++s) {
        so.slices[s].count = counts[s];
        if (counts[s] == 0)
            continue;
        so.slices[s].obj = shards_[s]->device->alloc(
            alloc_type, counts[s], data_type);
        if (so.slices[s].obj < 0) {
            freeSlices(so);
            fail(strCat("PimShardGroup::alloc: shard ", s,
                        " allocation failed"));
            return -1;
        }
    }
    const PimObjId id = next_id_++;
    objs_.emplace(id, std::move(so));
    PIM_METRIC_COUNT("shard.allocs", 1);
    return id;
}

PimObjId
PimShardGroup::allocAssociated(PimObjId ref, PimDataType data_type)
{
    const ShardedObj *r = find(ref, "PimShardGroup::allocAssociated");
    if (!r)
        return -1;
    ShardedObj so;
    so.dtype = data_type;
    so.total = r->total;
    so.slices.resize(shards_.size());
    for (size_t s = 0; s < shards_.size(); ++s) {
        so.slices[s].count = r->slices[s].count;
        if (so.slices[s].count == 0)
            continue;
        so.slices[s].obj = shards_[s]->device->allocAssociated(
            r->slices[s].obj, data_type);
        if (so.slices[s].obj < 0) {
            freeSlices(so);
            fail(strCat("PimShardGroup::allocAssociated: shard ", s,
                        " allocation failed"));
            return -1;
        }
    }
    const PimObjId id = next_id_++;
    objs_.emplace(id, std::move(so));
    PIM_METRIC_COUNT("shard.allocs", 1);
    return id;
}

PimStatus
PimShardGroup::free(PimObjId obj)
{
    const auto it = objs_.find(obj);
    if (it == objs_.end())
        return fail(strCat("PimShardGroup::free: unknown sharded "
                           "object id ", obj));
    freeSlices(it->second);
    objs_.erase(it);
    return PimStatus::PIM_OK;
}

uint64_t
PimShardGroup::numElements(PimObjId obj) const
{
    const auto it = objs_.find(obj);
    return it == objs_.end() ? 0 : it->second.total;
}

PimStatus
PimShardGroup::copyHostToDevice(const void *src, PimObjId dest)
{
    const ShardedObj *so = find(dest, "PimShardGroup::copyH2D");
    if (!so)
        return PimStatus::PIM_ERROR;
    if (!src)
        return fail("PimShardGroup::copyH2D: null host source");
    const uint64_t eb = hostElemBytes(so->dtype);
    const auto *bytes = static_cast<const uint8_t *>(src);
    const uint64_t k = shards_.size();

    if (partition_ == PimShardPartition::kBlock) {
        uint64_t offset = 0;
        for (size_t s = 0; s < k; ++s) {
            const Slice &sl = so->slices[s];
            if (sl.count == 0)
                continue;
            if (shards_[s]->device->copyHostToDevice(
                    bytes + offset * eb, sl.obj, 0, sl.count) !=
                PimStatus::PIM_OK)
                return failShard("PimShardGroup::copyH2D", s);
            offset += sl.count;
        }
        return PimStatus::PIM_OK;
    }

    // Round-robin: element i -> shard i % K, slot i / K. Gather into
    // per-shard staging buffers (the device snapshots H2D sources, so
    // the staging buffer may die right after the call).
    std::vector<uint8_t> staging;
    for (size_t s = 0; s < k; ++s) {
        const Slice &sl = so->slices[s];
        if (sl.count == 0)
            continue;
        staging.resize(sl.count * eb);
        for (uint64_t j = 0; j < sl.count; ++j)
            std::memcpy(staging.data() + j * eb,
                        bytes + (j * k + s) * eb, eb);
        if (shards_[s]->device->copyHostToDevice(
                staging.data(), sl.obj, 0, sl.count) !=
            PimStatus::PIM_OK)
            return failShard("PimShardGroup::copyH2D", s);
    }
    return PimStatus::PIM_OK;
}

PimStatus
PimShardGroup::copyDeviceToHost(PimObjId src, void *dest)
{
    const ShardedObj *so = find(src, "PimShardGroup::copyD2H");
    if (!so)
        return PimStatus::PIM_ERROR;
    if (!dest)
        return fail("PimShardGroup::copyD2H: null host destination");
    const uint64_t eb = hostElemBytes(so->dtype);
    auto *bytes = static_cast<uint8_t *>(dest);
    const uint64_t k = shards_.size();

    if (partition_ == PimShardPartition::kBlock) {
        uint64_t offset = 0;
        for (size_t s = 0; s < k; ++s) {
            const Slice &sl = so->slices[s];
            if (sl.count == 0)
                continue;
            if (shards_[s]->device->copyDeviceToHost(
                    sl.obj, bytes + offset * eb, 0, sl.count) !=
                PimStatus::PIM_OK)
                return failShard("PimShardGroup::copyD2H", s);
            offset += sl.count;
        }
        return PimStatus::PIM_OK;
    }

    std::vector<uint8_t> staging;
    for (size_t s = 0; s < k; ++s) {
        const Slice &sl = so->slices[s];
        if (sl.count == 0)
            continue;
        staging.resize(sl.count * eb);
        if (shards_[s]->device->copyDeviceToHost(
                sl.obj, staging.data(), 0, sl.count) !=
            PimStatus::PIM_OK)
            return failShard("PimShardGroup::copyD2H", s);
        for (uint64_t j = 0; j < sl.count; ++j)
            std::memcpy(bytes + (j * k + s) * eb,
                        staging.data() + j * eb, eb);
    }
    return PimStatus::PIM_OK;
}

PimStatus
PimShardGroup::executeBinary(PimCmdEnum cmd, PimObjId a, PimObjId b,
                             PimObjId dest)
{
    const ShardedObj *oa = find(a, "PimShardGroup::executeBinary");
    const ShardedObj *ob = find(b, "PimShardGroup::executeBinary");
    const ShardedObj *od = find(dest, "PimShardGroup::executeBinary");
    if (!oa || !ob || !od)
        return PimStatus::PIM_ERROR;
    PIM_METRIC_COUNT("shard.broadcast_cmds", 1);
    for (size_t s = 0; s < shards_.size(); ++s) {
        if (oa->slices[s].count == 0)
            continue;
        if (shards_[s]->device->executeBinary(
                cmd, oa->slices[s].obj, ob->slices[s].obj,
                od->slices[s].obj) != PimStatus::PIM_OK)
            return failShard("PimShardGroup::executeBinary", s);
    }
    return PimStatus::PIM_OK;
}

PimStatus
PimShardGroup::executeUnary(PimCmdEnum cmd, PimObjId a, PimObjId dest)
{
    const ShardedObj *oa = find(a, "PimShardGroup::executeUnary");
    const ShardedObj *od = find(dest, "PimShardGroup::executeUnary");
    if (!oa || !od)
        return PimStatus::PIM_ERROR;
    PIM_METRIC_COUNT("shard.broadcast_cmds", 1);
    for (size_t s = 0; s < shards_.size(); ++s) {
        if (oa->slices[s].count == 0)
            continue;
        if (shards_[s]->device->executeUnary(
                cmd, oa->slices[s].obj, od->slices[s].obj) !=
            PimStatus::PIM_OK)
            return failShard("PimShardGroup::executeUnary", s);
    }
    return PimStatus::PIM_OK;
}

PimStatus
PimShardGroup::executeScalar(PimCmdEnum cmd, PimObjId a, PimObjId dest,
                             uint64_t scalar)
{
    const ShardedObj *oa = find(a, "PimShardGroup::executeScalar");
    const ShardedObj *od = find(dest, "PimShardGroup::executeScalar");
    if (!oa || !od)
        return PimStatus::PIM_ERROR;
    PIM_METRIC_COUNT("shard.broadcast_cmds", 1);
    for (size_t s = 0; s < shards_.size(); ++s) {
        if (oa->slices[s].count == 0)
            continue;
        if (shards_[s]->device->executeScalar(
                cmd, oa->slices[s].obj, od->slices[s].obj, scalar) !=
            PimStatus::PIM_OK)
            return failShard("PimShardGroup::executeScalar", s);
    }
    return PimStatus::PIM_OK;
}

PimStatus
PimShardGroup::executeScaledAdd(PimObjId a, PimObjId b, PimObjId dest,
                                uint64_t scalar)
{
    const ShardedObj *oa = find(a, "PimShardGroup::executeScaledAdd");
    const ShardedObj *ob = find(b, "PimShardGroup::executeScaledAdd");
    const ShardedObj *od =
        find(dest, "PimShardGroup::executeScaledAdd");
    if (!oa || !ob || !od)
        return PimStatus::PIM_ERROR;
    PIM_METRIC_COUNT("shard.broadcast_cmds", 1);
    for (size_t s = 0; s < shards_.size(); ++s) {
        if (oa->slices[s].count == 0)
            continue;
        if (shards_[s]->device->executeScaledAdd(
                oa->slices[s].obj, ob->slices[s].obj,
                od->slices[s].obj, scalar) != PimStatus::PIM_OK)
            return failShard("PimShardGroup::executeScaledAdd", s);
    }
    return PimStatus::PIM_OK;
}

PimStatus
PimShardGroup::executeBroadcast(PimObjId dest, uint64_t value)
{
    const ShardedObj *od = find(dest, "PimShardGroup::broadcast");
    if (!od)
        return PimStatus::PIM_ERROR;
    PIM_METRIC_COUNT("shard.broadcast_cmds", 1);
    for (size_t s = 0; s < shards_.size(); ++s) {
        if (od->slices[s].count == 0)
            continue;
        if (shards_[s]->device->executeBroadcast(
                od->slices[s].obj, value) != PimStatus::PIM_OK)
            return failShard("PimShardGroup::executeBroadcast", s);
    }
    return PimStatus::PIM_OK;
}

PimStatus
PimShardGroup::executeRedSum(PimObjId a, int64_t *result)
{
    const ShardedObj *oa = find(a, "PimShardGroup::executeRedSum");
    if (!oa)
        return PimStatus::PIM_ERROR;
    if (!result)
        return fail("PimShardGroup::executeRedSum: null result "
                    "pointer");
    // Gather per-shard partials.
    std::vector<int64_t> partials;
    partials.reserve(shards_.size());
    for (size_t s = 0; s < shards_.size(); ++s) {
        if (oa->slices[s].count == 0)
            continue;
        int64_t partial = 0;
        if (shards_[s]->device->executeRedSum(
                oa->slices[s].obj, 0, 0, &partial) !=
            PimStatus::PIM_OK)
            return failShard("PimShardGroup::executeRedSum", s);
        partials.push_back(partial);
    }
    // Tree combine. Two's-complement addition is associative, so the
    // tree is bit-identical to the left-to-right sum an unsharded
    // reduction would produce.
    while (partials.size() > 1) {
        std::vector<int64_t> next;
        next.reserve((partials.size() + 1) / 2);
        for (size_t i = 0; i + 1 < partials.size(); i += 2) {
            next.push_back(static_cast<int64_t>(
                static_cast<uint64_t>(partials[i]) +
                static_cast<uint64_t>(partials[i + 1])));
            PIM_METRIC_COUNT("shard.redsum_combines", 1);
        }
        if (partials.size() % 2)
            next.push_back(partials.back());
        partials.swap(next);
    }
    *result = partials.empty() ? 0 : partials.front();
    return PimStatus::PIM_OK;
}

PimRunStats
PimShardGroup::aggregatedStats()
{
    sync();
    PimRunStats total;
    for (PimContext ctx : shards_)
        total += ctx->device->stats().snapshot();
    return total;
}

void
PimShardGroup::resetStats()
{
    for (PimContext ctx : shards_)
        ctx->device->resetStats();
}

} // namespace pimeval
