/**
 * @file
 * Tests of the elementwise command fusion pass (pimSetFusionEnabled /
 * pimBeginFusion / pimEndFusion): chain planning on synthetic hazard
 * graphs, fused-vs-unfused bit-identity of functional outputs AND
 * modeled statistics on all three digital targets, dead-temporary
 * elision accounting (fusion.temps_elided, freelist.pristine), window
 * flush boundaries, the flush-and-retry of an allocation that finds
 * the device full, and how an elided fill flows into its consumer in
 * tape lowering.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <unordered_set>
#include <vector>

#include "apps/linear_regression.h"
#include "core/pim_api.h"
#include "core/pim_error.h"
#include "core/pim_fusion.h"
#include "util/logging.h"
#include "util/prng.h"

using namespace pimeval;

namespace {

PimDeviceConfig
smallConfig(PimDeviceEnum device)
{
    PimDeviceConfig config;
    config.device = device;
    config.num_ranks = 1;
    config.num_banks_per_rank = 4;
    config.num_subarrays_per_bank = 4;
    config.num_rows_per_subarray = 256;
    config.num_cols_per_row = 256;
    return config;
}

double
metric(const char *name)
{
    double v = 0.0;
    pimGetMetric(name, &v);
    return v;
}

// ---------------------------------------------------------------------
// Chain planning on synthetic hazard graphs (no device needed).
// ---------------------------------------------------------------------

/** Shorthand: op view writing @p d from @p a (and optional @p b). */
PimFusionOpView
opView(PimObjId a, PimObjId d, PimObjId b = -1)
{
    return PimFusionOpView{a, b, d};
}

/** Reduction view: reads @p a, writes no object (dest stays -1). */
PimFusionOpView
reduceView(PimObjId a)
{
    PimFusionOpView view;
    view.a = a;
    view.is_reduce = true;
    return view;
}

/** Broadcast-fill view: writes @p d, reads nothing. */
PimFusionOpView
fillView(PimObjId d)
{
    PimFusionOpView view;
    view.dest = d;
    view.is_fill = true;
    return view;
}

/** Captured-copy view: an is_load head op writing @p d from a host
 *  snapshot (reads no device object). */
PimFusionOpView
loadView(PimObjId d)
{
    PimFusionOpView view;
    view.dest = d;
    view.is_load = true;
    return view;
}

TEST(FusionPlanner, LinearChainFusesWhole)
{
    // 1 -> 2 -> 3 -> 4: each op reads the previous dest.
    const std::vector<PimFusionOpView> ops = {
        opView(1, 2), opView(2, 3), opView(3, 4), opView(4, 5)};
    const auto chains = pimPlanFusionChains(ops, {}, {});
    ASSERT_EQ(chains.size(), 1u);
    EXPECT_EQ(chains[0].size(), 4u);
    for (size_t k = 0; k < chains[0].size(); ++k) {
        EXPECT_EQ(chains[0][k].op, k);
        EXPECT_FALSE(chains[0][k].elide_store); // nothing born/freed
    }
}

TEST(FusionPlanner, BreaksWhereDataflowBreaks)
{
    // Op 1 does not read op 0's dest: two singleton chains; then a
    // two-op chain.
    const std::vector<PimFusionOpView> ops = {
        opView(1, 2), opView(10, 11), opView(11, 12)};
    const auto chains = pimPlanFusionChains(ops, {}, {});
    ASSERT_EQ(chains.size(), 2u);
    EXPECT_EQ(chains[0].size(), 1u);
    EXPECT_EQ(chains[1].size(), 2u);
}

TEST(FusionPlanner, SecondOperandLinksChain)
{
    // Next op reads prev dest through operand b.
    const std::vector<PimFusionOpView> ops = {
        opView(1, 2), opView(7, 3, /*b=*/2)};
    const auto chains = pimPlanFusionChains(ops, {}, {});
    ASSERT_EQ(chains.size(), 1u);
    EXPECT_EQ(chains[0].size(), 2u);
}

TEST(FusionPlanner, ElidesDeadTemporaryOnly)
{
    // t=2 is born+freed in-window, written once, read only by its
    // successor: elided. The final dest (3) is never elided.
    const std::vector<PimFusionOpView> ops = {opView(1, 2),
                                              opView(2, 3)};
    const std::unordered_set<PimObjId> born = {2};
    const std::unordered_set<PimObjId> freed = {2};
    const auto chains = pimPlanFusionChains(ops, born, freed);
    ASSERT_EQ(chains.size(), 1u);
    EXPECT_TRUE(chains[0][0].elide_store);
    EXPECT_FALSE(chains[0][1].elide_store);
}

TEST(FusionPlanner, NoElisionWhenNotBornOrNotFreed)
{
    const std::vector<PimFusionOpView> ops = {opView(1, 2),
                                              opView(2, 3)};
    // Freed but pre-existing: keep the store (freed object may have
    // been observable before the window).
    auto chains = pimPlanFusionChains(ops, {}, {2});
    EXPECT_FALSE(chains[0][0].elide_store);
    // Born but survives the window: someone may read it later.
    chains = pimPlanFusionChains(ops, {2}, {});
    EXPECT_FALSE(chains[0][0].elide_store);
}

TEST(FusionPlanner, NoElisionWhenReadOutsideTheLink)
{
    // Op 2 (outside the chain link) also reads the temporary: the
    // store must be materialized for it.
    const std::vector<PimFusionOpView> ops = {
        opView(1, 2), opView(2, 3), opView(2, 9, /*b=*/7)};
    const auto chains =
        pimPlanFusionChains(ops, {2}, {2});
    EXPECT_FALSE(chains[0][0].elide_store);
}

TEST(FusionPlanner, WawShadowedStoreElided)
{
    // A later op fully rewrites the temporary and the only reader
    // before the rewrite is the chain's own consumer — the first
    // store is dead and the planner elides it (order-aware rule).
    const std::vector<PimFusionOpView> ops = {
        opView(1, 2), opView(2, 3), opView(7, 2)};
    const auto chains = pimPlanFusionChains(ops, {2}, {2});
    EXPECT_TRUE(chains[0][0].elide_store);
}

TEST(FusionPlanner, NoElisionWhenReaderBetweenWriters)
{
    // An out-of-chain op reads the temporary between the chain
    // consumer and the rewrite — the store must materialize.
    const std::vector<PimFusionOpView> ops = {
        opView(1, 2), opView(2, 3), opView(2, 4), opView(7, 2)};
    const auto chains = pimPlanFusionChains(ops, {2}, {2});
    EXPECT_FALSE(chains[0][0].elide_store);
}

TEST(FusionPlanner, LoadAbsorbedAndElidedForDeadStagingDest)
{
    // copy -> consumer RAW link: the load joins the chain, and a
    // staging dest born and freed in the window never materializes.
    const std::vector<PimFusionOpView> ops = {loadView(2),
                                              opView(2, 3)};
    const auto chains = pimPlanFusionChains(ops, {2}, {2});
    ASSERT_EQ(chains.size(), 1u);
    ASSERT_EQ(chains[0].size(), 2u);
    EXPECT_TRUE(chains[0][0].elide_store);
}

TEST(FusionPlanner, LoadMaterializesWhenDestOutlivesWindow)
{
    // Same shape, but the staging dest is a long-lived object (not
    // born/freed here) with no shadowing rewrite: the converted data
    // must land in memory for whoever reads it after the flush.
    const std::vector<PimFusionOpView> ops = {loadView(2),
                                              opView(2, 3)};
    const auto chains = pimPlanFusionChains(ops, {}, {});
    ASSERT_EQ(chains.size(), 1u);
    ASSERT_EQ(chains[0].size(), 2u);
    EXPECT_FALSE(chains[0][0].elide_store);
}

TEST(FusionPlanner, LoadShadowedByNextCopyElides)
{
    // The GEMV sweep shape: copy/consume pairs reusing one staging
    // buffer. Every copy shadowed by the next copy's rewrite elides;
    // the window's trailing copy (no shadow, long-lived dest)
    // materializes for the next window.
    const std::vector<PimFusionOpView> ops = {
        loadView(2), opView(2, 3, /*b=*/3), loadView(2),
        opView(2, 3, /*b=*/3)};
    const auto chains = pimPlanFusionChains(ops, {}, {});
    ASSERT_EQ(chains.size(), 1u);
    ASSERT_EQ(chains[0].size(), 4u);
    EXPECT_TRUE(chains[0][0].elide_store);  // shadowed by op 2
    EXPECT_FALSE(chains[0][2].elide_store); // trailing copy
}

TEST(FusionPlanner, LoadReadBeyondChainMaterializes)
{
    // Regression: a captured-copy dest read by a later op the chain
    // does not absorb must materialize even when born and freed in
    // the window — the out-of-chain reader needs the memory image.
    const std::vector<PimFusionOpView> ops = {
        loadView(2), opView(2, 3), opView(7, 8), opView(2, 5)};
    const auto chains = pimPlanFusionChains(ops, {2}, {2});
    ASSERT_GE(chains.size(), 3u);
    ASSERT_EQ(chains[0].size(), 2u);
    EXPECT_FALSE(chains[0][0].elide_store);
}

TEST(FusionPlanner, ReduceDoesNotJoinThroughShadowingLoad)
{
    // mul writes t, a captured copy rewrites t, then a reduce reads
    // t. The reduce consumes the flowing value blindly, so it must
    // not join a chain whose flow was shadowed by the load — it
    // would sum the mul's output instead of the copied data.
    const std::vector<PimFusionOpView> ops = {opView(1, 2),
                                              loadView(2),
                                              reduceView(2)};
    const auto chains = pimPlanFusionChains(ops, {}, {});
    ASSERT_EQ(chains.size(), 2u);
    EXPECT_EQ(chains[0].size(), 2u); // mul + absorbed load
    ASSERT_EQ(chains[1].size(), 1u);
    EXPECT_EQ(chains[1][0].op, 2u); // reduce runs standalone
}

TEST(FusionPlanner, ChainLengthCapped)
{
    std::vector<PimFusionOpView> ops;
    for (PimObjId v = 1; v <= static_cast<PimObjId>(2 * kMaxFusionChainLen); ++v)
        ops.push_back(opView(v, v + 1));
    const auto chains = pimPlanFusionChains(ops, {}, {});
    ASSERT_GE(chains.size(), 2u);
    EXPECT_EQ(chains[0].size(), kMaxFusionChainLen);
}

TEST(FusionPlanner, ReductionTerminatesChain)
{
    // mul -> redSum fuses into one chain; the op after the reduce
    // starts a fresh chain (a reduce can only end one).
    const std::vector<PimFusionOpView> ops = {
        opView(1, 2), reduceView(2), opView(1, 3), opView(3, 4)};
    const auto chains = pimPlanFusionChains(ops, {}, {});
    ASSERT_EQ(chains.size(), 2u);
    ASSERT_EQ(chains[0].size(), 2u);
    EXPECT_EQ(chains[0][1].op, 1u);
    EXPECT_EQ(chains[1].size(), 2u);
}

TEST(FusionPlanner, ReduceInputTemporaryElided)
{
    // The reduce is the in-chain consumer of the dead product
    // temporary, so its store elides: the fused sweep accumulates
    // the product without ever materializing it.
    const std::vector<PimFusionOpView> ops = {opView(1, 2, /*b=*/5),
                                              reduceView(2)};
    const auto chains = pimPlanFusionChains(ops, {2}, {2});
    ASSERT_EQ(chains.size(), 1u);
    ASSERT_EQ(chains[0].size(), 2u);
    EXPECT_TRUE(chains[0][0].elide_store);
}

TEST(FusionPlanner, NoSpuriousLinkThroughReduce)
{
    // Back-to-back reductions both have dest == -1: the second must
    // not chain onto the first through the unset dest id.
    const std::vector<PimFusionOpView> ops = {reduceView(1),
                                              reduceView(2)};
    const auto chains = pimPlanFusionChains(ops, {}, {});
    ASSERT_EQ(chains.size(), 2u);
    EXPECT_EQ(chains[0].size(), 1u);
    EXPECT_EQ(chains[1].size(), 1u);
}

TEST(FusionPlanner, FillOpensChainButNeverContinuesOne)
{
    // A broadcast fill reads nothing: it can head a chain whose next
    // op consumes the filled object, but it cannot extend a chain —
    // even one whose dest it rewrites.
    const std::vector<PimFusionOpView> ops = {
        fillView(2), opView(1, 3, /*b=*/2), opView(1, 9), fillView(9)};
    const auto chains = pimPlanFusionChains(ops, {}, {});
    ASSERT_EQ(chains.size(), 3u);
    EXPECT_EQ(chains[0].size(), 2u);
    EXPECT_EQ(chains[1].size(), 1u);
    EXPECT_EQ(chains[2].size(), 1u);
}

TEST(FusionPlanner, FillMulReduceChainElidesBothTemporaries)
{
    // fill(c) -> mul(x, c, t) -> redSum(t) with c and t both dead:
    // the whole chain runs as one sweep that stores neither.
    const std::vector<PimFusionOpView> ops = {
        fillView(7), opView(1, 8, /*b=*/7), reduceView(8)};
    const auto chains = pimPlanFusionChains(ops, {7, 8}, {7, 8});
    ASSERT_EQ(chains.size(), 1u);
    ASSERT_EQ(chains[0].size(), 3u);
    EXPECT_TRUE(chains[0][0].elide_store);
    EXPECT_TRUE(chains[0][1].elide_store);
}

// ---------------------------------------------------------------------
// Tape lowering (no device needed).
// ---------------------------------------------------------------------

TEST(FusionTape, ElidedFillFlowsIntoConsumer)
{
    // fill(c, 5) -> op(x, c) with the fill elided: the fill stays a
    // tape step whose value flows into the consumer as its right-hand
    // tile, and the consumer runs the kernel it captured. kNE's
    // captured kernel is kEQ's negation, so x != 5 must come out, not
    // x == 5.
    const std::vector<uint64_t> x = {5, 6, 7, 5};
    std::vector<uint64_t> out(4);
    PimFusedOp fill; // elided: never stores, so it needs no memory
    fill.cmd = PimCmdEnum::kBroadcast;
    fill.is_fill = true;
    fill.dest = 2;
    fill.scalar = 5;
    fill.bits = 32;
    fill.dmask = 0xffffffffull;
    fill.n = 4;

    PimFusedOp ne = fill;
    ne.cmd = PimCmdEnum::kNE;
    ne.is_fill = false;
    ne.a = 1;
    ne.b = 2;
    ne.dest = 3;
    ne.pa = x.data();
    ne.pd = out.data();
    ne.scalar = 0;
    ne.kern2 = binaryChunkFor<true>(AlpuOp::kEQ, false);

    PimFusedOp add = ne;
    add.cmd = PimCmdEnum::kAdd;
    add.kern2 = binaryChunkFor<false>(AlpuOp::kAdd, false);

    const PimFusionChain chain{{0, true}, {1, false}};
    const std::pair<PimFusedOp, std::vector<uint64_t>> cases[] = {
        {ne, {0, 1, 1, 0}}, {add, {10, 11, 12, 10}}};
    for (const auto &[consumer, want] : cases) {
        const PimFusedTape tape =
            pimBuildFusedTape({fill, consumer}, chain);
        ASSERT_EQ(tape.steps.size(), 2u);
        EXPECT_TRUE(tape.steps[0].is_fill);
        EXPECT_EQ(tape.steps[0].store, nullptr);
        EXPECT_EQ(tape.steps[1].kern2, consumer.kern2);
        EXPECT_TRUE(tape.steps[1].b_is_prev);
        std::fill(out.begin(), out.end(), 0);
        tape.run(0, 4);
        EXPECT_EQ(out, want);
    }
}

// ---------------------------------------------------------------------
// Device-level identity: fused == unfused, outputs and stats, on all
// three targets in both exec modes.
// ---------------------------------------------------------------------

/** Everything one workload run produces, for cross-config compare. */
struct RunOutcome
{
    std::vector<int> d1, d2, d3, d4;
    PimRunStats stats;
    std::map<std::string, uint64_t> op_mix;
};

/**
 * Chained workload covering the fusion shapes: a 2-op chain with one
 * dead temporary (mulScalar->add), a 3-op chain with two
 * (mulScalar->addScalar->sub), a unary producer (abs->max), and a
 * scaledAdd producer link. Temporaries are allocated and freed inside
 * the capture region.
 */
RunOutcome
runChainWorkload(uint64_t n)
{
    RunOutcome outcome;
    Prng rng(11);
    const std::vector<int> xs = rng.intVector(n, -1000, 1000);
    const std::vector<int> ys = rng.intVector(n, -1000, 1000);

    const PimObjId x = pimAlloc(PimAllocEnum::PIM_ALLOC_AUTO, n, 32,
                                PimDataType::PIM_INT32);
    const PimObjId y = pimAllocAssociated(32, x, PimDataType::PIM_INT32);
    const PimObjId d1 = pimAllocAssociated(32, x, PimDataType::PIM_INT32);
    const PimObjId d2 = pimAllocAssociated(32, x, PimDataType::PIM_INT32);
    const PimObjId d3 = pimAllocAssociated(32, x, PimDataType::PIM_INT32);
    const PimObjId d4 = pimAllocAssociated(32, x, PimDataType::PIM_INT32);
    EXPECT_TRUE(x >= 0 && y >= 0 && d1 >= 0 && d2 >= 0 && d3 >= 0 &&
                d4 >= 0);
    pimCopyHostToDevice(xs.data(), x);
    pimCopyHostToDevice(ys.data(), y);

    for (int round = 0; round < 3; ++round) {
        // 2-op chain, one dead temporary.
        PimObjId t = pimAllocAssociated(32, x, PimDataType::PIM_INT32);
        pimMulScalar(x, t, 5);
        pimAdd(t, y, d1);
        pimFree(t);

        // 3-op chain, two dead temporaries.
        PimObjId u0 = pimAllocAssociated(32, x, PimDataType::PIM_INT32);
        PimObjId u1 = pimAllocAssociated(32, x, PimDataType::PIM_INT32);
        pimMulScalar(x, u0, 3);
        pimAddScalar(u0, u1, 7);
        pimSub(u1, y, d2);
        pimFree(u0);
        pimFree(u1);

        // Unary producer feeding a binary consumer.
        PimObjId v = pimAllocAssociated(32, x, PimDataType::PIM_INT32);
        pimAbs(x, v);
        pimMax(v, y, d3);
        pimFree(v);

        // scaledAdd producer feeding a consumer.
        PimObjId w = pimAllocAssociated(32, x, PimDataType::PIM_INT32);
        pimScaledAdd(x, y, w, 2);
        pimXorScalar(w, d4, 0x5a);
        pimFree(w);
    }

    outcome.d1.resize(n);
    outcome.d2.resize(n);
    outcome.d3.resize(n);
    outcome.d4.resize(n);
    pimCopyDeviceToHost(d1, outcome.d1.data());
    pimCopyDeviceToHost(d2, outcome.d2.data());
    pimCopyDeviceToHost(d3, outcome.d3.data());
    pimCopyDeviceToHost(d4, outcome.d4.data());

    pimFree(x);
    pimFree(y);
    pimFree(d1);
    pimFree(d2);
    pimFree(d3);
    pimFree(d4);

    outcome.stats = pimGetStats();
    outcome.op_mix = pimGetOpMix();
    return outcome;
}

void
expectOutcomesIdentical(const RunOutcome &a, const RunOutcome &b)
{
    EXPECT_EQ(a.d1, b.d1);
    EXPECT_EQ(a.d2, b.d2);
    EXPECT_EQ(a.d3, b.d3);
    EXPECT_EQ(a.d4, b.d4);
    // Bit-identical stats: fused execution computes and commits cost
    // per original command in issue order, so even floating-point
    // accumulation order is unchanged.
    EXPECT_EQ(a.stats.kernel_sec, b.stats.kernel_sec);
    EXPECT_EQ(a.stats.kernel_j, b.stats.kernel_j);
    EXPECT_EQ(a.stats.copy_sec, b.stats.copy_sec);
    EXPECT_EQ(a.stats.copy_j, b.stats.copy_j);
    EXPECT_EQ(a.stats.bytes_h2d, b.stats.bytes_h2d);
    EXPECT_EQ(a.stats.bytes_d2h, b.stats.bytes_d2h);
    EXPECT_EQ(a.stats.bytes_d2d, b.stats.bytes_d2d);
    EXPECT_EQ(a.op_mix, b.op_mix);
}

/** Everything the reduction workload produces, for compare. */
struct ReduceOutcome
{
    int64_t dot = 0;    ///< mul + redSum through a dead temporary
    int64_t chain2 = 0; ///< 2-op chain ending in a kept-store reduce
    int64_t filled = 0; ///< broadcast fill flowing into the chain
    int64_t plain = 0;  ///< bare full-object redSum
    int64_t ranged = 0; ///< ranged redSum (always flush-and-execute)
    std::vector<int> d; ///< kept store of the chain2 sweep
    PimRunStats stats;
    std::map<std::string, uint64_t> op_mix;
};

/**
 * Reduction-terminated chains: a dot product through a dead
 * temporary, a 2-op elementwise chain whose kept store feeds the
 * reduce, a broadcast-scalar producer foldable to an immediate, a
 * bare full-object redSum, and a ranged redSum. With @p fused_regions
 * each group runs inside pimBeginFusion/pimEndFusion (reduction
 * results are deferred until the region flushes); without, the same
 * command sequence executes unfused.
 */
ReduceOutcome
runReduceWorkload(uint64_t n, bool fused_regions)
{
    ReduceOutcome o;
    Prng rng(23);
    const std::vector<int> xs = rng.intVector(n, -1000, 1000);
    const std::vector<int> ys = rng.intVector(n, -1000, 1000);

    const PimObjId x = pimAlloc(PimAllocEnum::PIM_ALLOC_AUTO, n, 32,
                                PimDataType::PIM_INT32);
    const PimObjId y = pimAllocAssociated(32, x, PimDataType::PIM_INT32);
    const PimObjId d = pimAllocAssociated(32, x, PimDataType::PIM_INT32);
    EXPECT_TRUE(x >= 0 && y >= 0 && d >= 0);
    pimCopyHostToDevice(xs.data(), x);
    pimCopyHostToDevice(ys.data(), y);
    auto assoc = [&]() {
        return pimAllocAssociated(32, x, PimDataType::PIM_INT32);
    };
    auto begin = [&]() {
        if (fused_regions) {
            EXPECT_EQ(pimBeginFusion(), PimStatus::PIM_OK);
        }
    };
    auto end = [&]() {
        if (fused_regions) {
            EXPECT_EQ(pimEndFusion(), PimStatus::PIM_OK);
        }
    };

    // Dot product: the mul's dead temporary feeds the reduction, so
    // the fused sweep never materializes the product vector.
    begin();
    {
        const PimObjId t = assoc();
        pimMul(x, y, t);
        pimRedSum(t, &o.dot);
        pimFree(t);
    }
    end();

    // Two elementwise ops, then a reduce over the kept store d.
    begin();
    {
        const PimObjId t = assoc();
        pimMulScalar(x, t, 3);
        pimSub(t, y, d);
        pimRedSum(d, &o.chain2);
        pimFree(t);
    }
    end();

    // Broadcast-scalar producer: fused, the fill flows into the mul
    // as a tile and both temporaries stay dead.
    begin();
    {
        const PimObjId c = assoc();
        const PimObjId t = assoc();
        pimBroadcastInt(c, 5);
        pimMul(x, c, t);
        pimRedSum(t, &o.filled);
        pimFree(c);
        pimFree(t);
    }
    end();

    // Bare full-object reduce (singleton chain) and the ranged
    // variant, which always flushes and executes directly.
    begin();
    pimRedSum(x, &o.plain);
    end();
    pimRedSumRanged(y, 3, n - 5, &o.ranged);

    o.d.resize(n);
    pimCopyDeviceToHost(d, o.d.data());
    pimFree(x);
    pimFree(y);
    pimFree(d);

    o.stats = pimGetStats();
    o.op_mix = pimGetOpMix();
    return o;
}

void
expectReduceOutcomesIdentical(const ReduceOutcome &a,
                              const ReduceOutcome &b)
{
    EXPECT_EQ(a.dot, b.dot);
    EXPECT_EQ(a.chain2, b.chain2);
    EXPECT_EQ(a.filled, b.filled);
    EXPECT_EQ(a.plain, b.plain);
    EXPECT_EQ(a.ranged, b.ranged);
    EXPECT_EQ(a.d, b.d);
    // Bit-identical modeled stats: fused reductions commit the same
    // per-command costs in issue order as unfused execution.
    EXPECT_EQ(a.stats.kernel_sec, b.stats.kernel_sec);
    EXPECT_EQ(a.stats.kernel_j, b.stats.kernel_j);
    EXPECT_EQ(a.stats.copy_sec, b.stats.copy_sec);
    EXPECT_EQ(a.stats.copy_j, b.stats.copy_j);
    EXPECT_EQ(a.stats.bytes_h2d, b.stats.bytes_h2d);
    EXPECT_EQ(a.stats.bytes_d2h, b.stats.bytes_d2h);
    EXPECT_EQ(a.stats.bytes_d2d, b.stats.bytes_d2d);
    EXPECT_EQ(a.op_mix, b.op_mix);
}

/** Host reference for the reduction workload sums. */
void
expectReduceOutcomeCorrect(const ReduceOutcome &o, uint64_t n)
{
    Prng rng(23);
    const std::vector<int> xs = rng.intVector(n, -1000, 1000);
    const std::vector<int> ys = rng.intVector(n, -1000, 1000);
    int64_t dot = 0, chain2 = 0, filled = 0, plain = 0, ranged = 0;
    for (uint64_t i = 0; i < n; ++i) {
        dot += static_cast<int64_t>(xs[i]) * ys[i];
        chain2 += static_cast<int64_t>(xs[i]) * 3 - ys[i];
        filled += static_cast<int64_t>(xs[i]) * 5;
        plain += xs[i];
        if (i >= 3 && i < n - 5)
            ranged += ys[i];
    }
    EXPECT_EQ(o.dot, dot);
    EXPECT_EQ(o.chain2, chain2);
    EXPECT_EQ(o.filled, filled);
    EXPECT_EQ(o.plain, plain);
    EXPECT_EQ(o.ranged, ranged);
    for (uint64_t i = 0; i < n; ++i) {
        ASSERT_EQ(o.d[i], xs[i] * 3 - ys[i]) << "element " << i;
    }
}

class FusionTest : public ::testing::TestWithParam<PimDeviceEnum>
{
  protected:
    void
    SetUp() override
    {
        LogConfig::setThreshold(LogLevel::Error);
        ASSERT_EQ(pimCreateDeviceFromConfig(smallConfig(GetParam())),
                  PimStatus::PIM_OK);
    }

    void
    TearDown() override
    {
        pimDeleteDevice();
    }
};

} // namespace

TEST_P(FusionTest, FusedMatchesUnfusedBitIdenticalSync)
{
    // 2000 runs as one inline chunk with a 976-element tile tail.
    // 3001 is above the pool's parallel threshold, so the tape runs as
    // chunks that start mid-tile.
    for (const uint64_t n : {uint64_t{2000}, uint64_t{3001}}) {
        pimSetFusionEnabled(false);
        pimResetStats();
        const RunOutcome unfused = runChainWorkload(n);

        pimSetFusionEnabled(true);
        EXPECT_TRUE(pimGetFusionEnabled());
        pimResetStats();
        const RunOutcome fused = runChainWorkload(n);
        pimSetFusionEnabled(false);

        expectOutcomesIdentical(unfused, fused);
    }
}

TEST_P(FusionTest, ReductionFusedMatchesUnfusedBitIdenticalSync)
{
    // 2000 crosses the 1024-element fusion tile with a non-divisible
    // 976-element tail; 1537 leaves a 513-element tail. 3001 is above
    // the pool's parallel threshold, so the tape runs as chunks that
    // start mid-tile.
    for (const uint64_t n :
         {uint64_t{2000}, uint64_t{1537}, uint64_t{3001}}) {
        pimResetStats();
        const ReduceOutcome unfused = runReduceWorkload(n, false);
        pimResetStats();
        const ReduceOutcome fused = runReduceWorkload(n, true);
        expectReduceOutcomesIdentical(unfused, fused);
        expectReduceOutcomeCorrect(fused, n);
    }
}

TEST_P(FusionTest, RedSumImmediateUnderGlobalToggle)
{
    // Outside an explicit region the global toggle still defers
    // nothing observable: a full-object redSum flushes its window
    // right after capturing, so the result is valid on return.
    const uint64_t n = 700;
    const std::vector<int> xs(n, 4), ys(n, 9);
    const PimObjId x = pimAlloc(PimAllocEnum::PIM_ALLOC_AUTO, n, 32,
                                PimDataType::PIM_INT32);
    const PimObjId y = pimAllocAssociated(32, x, PimDataType::PIM_INT32);
    pimCopyHostToDevice(xs.data(), x);
    pimCopyHostToDevice(ys.data(), y);

    pimSetFusionEnabled(true);
    const PimObjId t = pimAllocAssociated(32, x, PimDataType::PIM_INT32);
    int64_t sum = 0;
    pimMul(x, y, t);
    pimRedSum(t, &sum);
    EXPECT_EQ(sum, static_cast<int64_t>(n) * 4 * 9);
    pimFree(t);
    pimSetFusionEnabled(false);

    pimFree(x);
    pimFree(y);
}

TEST_P(FusionTest, RegionRedSumValidAfterEndFusionUnderGlobalToggle)
{
    // Regression: with the global toggle on, the outermost
    // pimEndFusion used to skip its flush, leaving reductions
    // captured in the region pending after it returned.
    const uint64_t n = 700;
    const std::vector<int> xs(n, 4), ys(n, 9);
    const PimObjId x = pimAlloc(PimAllocEnum::PIM_ALLOC_AUTO, n, 32,
                                PimDataType::PIM_INT32);
    const PimObjId y = pimAllocAssociated(32, x, PimDataType::PIM_INT32);
    pimCopyHostToDevice(xs.data(), x);
    pimCopyHostToDevice(ys.data(), y);

    pimSetFusionEnabled(true);
    int64_t sum_x = -1, dot = -1;
    ASSERT_EQ(pimBeginFusion(), PimStatus::PIM_OK);
    const PimObjId t = pimAllocAssociated(32, x, PimDataType::PIM_INT32);
    pimRedSum(x, &sum_x);
    pimMul(x, y, t);
    pimRedSum(t, &dot);
    pimFree(t);
    ASSERT_EQ(pimEndFusion(), PimStatus::PIM_OK);
    EXPECT_EQ(sum_x, static_cast<int64_t>(n) * 4);
    EXPECT_EQ(dot, static_cast<int64_t>(n) * 4 * 9);
    pimSetFusionEnabled(false);

    pimFree(x);
    pimFree(y);
}

TEST_P(FusionTest, LinearRegressionVerifiesUnderGlobalToggle)
{
    // The app reads its region's reductions right after
    // pimEndFusion; it failed verification with the toggle on.
    pimSetFusionEnabled(true);
    pimbench::LinearRegressionParams params;
    params.num_points = 2000;
    const pimbench::AppResult result =
        pimbench::runLinearRegression(params);
    pimSetFusionEnabled(false);
    EXPECT_TRUE(result.verified);
}

TEST_P(FusionTest, ReductionChainMetrics)
{
    const uint64_t n = 600;
    const std::vector<int> xs(n, 2);
    const PimObjId x = pimAlloc(PimAllocEnum::PIM_ALLOC_AUTO, n, 32,
                                PimDataType::PIM_INT32);
    pimCopyHostToDevice(xs.data(), x);

    pimResetMetrics();
    int64_t sum = 0;
    ASSERT_EQ(pimBeginFusion(), PimStatus::PIM_OK);
    const PimObjId c = pimAllocAssociated(32, x, PimDataType::PIM_INT32);
    const PimObjId t = pimAllocAssociated(32, x, PimDataType::PIM_INT32);
    pimBroadcastInt(c, 5);
    pimMul(x, c, t);
    pimRedSum(t, &sum);
    pimFree(c);
    pimFree(t);
    ASSERT_EQ(pimEndFusion(), PimStatus::PIM_OK);

    EXPECT_EQ(sum, static_cast<int64_t>(n) * 2 * 5);
    // One chain ended in a reduce; the broadcast flowed into the mul
    // as a tile; both temporaries' stores elided.
    EXPECT_GE(metric("fusion.reduction_chains"), 1.0);
    EXPECT_GE(metric("fusion.temps_elided"), 2.0);

    pimFree(x);
}

TEST_P(FusionTest, FusionRegionCapturesWithoutGlobalToggle)
{
    const uint64_t n = 600;
    pimResetMetrics();
    const std::vector<int> xs(n, 3), ys(n, 4);
    const PimObjId x = pimAlloc(PimAllocEnum::PIM_ALLOC_AUTO, n, 32,
                                PimDataType::PIM_INT32);
    const PimObjId y = pimAllocAssociated(32, x, PimDataType::PIM_INT32);
    const PimObjId d = pimAllocAssociated(32, x, PimDataType::PIM_INT32);
    pimCopyHostToDevice(xs.data(), x);
    pimCopyHostToDevice(ys.data(), y);

    EXPECT_FALSE(pimGetFusionEnabled());
    ASSERT_EQ(pimBeginFusion(), PimStatus::PIM_OK);
    const PimObjId t = pimAllocAssociated(32, x, PimDataType::PIM_INT32);
    pimMulScalar(x, t, 5);
    pimAdd(t, y, d);
    pimFree(t);
    ASSERT_EQ(pimEndFusion(), PimStatus::PIM_OK);

    std::vector<int> out(n, 0);
    pimCopyDeviceToHost(d, out.data());
    for (uint64_t i = 0; i < n; ++i) {
        ASSERT_EQ(out[i], 3 * 5 + 4);
    }
    EXPECT_GE(metric("fusion.chains"), 1.0);
    EXPECT_GE(metric("fusion.ops_fused"), 2.0);
    EXPECT_GE(metric("fusion.temps_elided"), 1.0);

    // Unbalanced end is rejected.
    EXPECT_EQ(pimEndFusion(), PimStatus::PIM_ERROR);

    pimFree(x);
    pimFree(y);
    pimFree(d);
}

TEST_P(FusionTest, DeadTemporaryElisionAccounting)
{
    const uint64_t n = 800;
    const std::vector<int> xs(n, 2), ys(n, 9);
    const PimObjId x = pimAlloc(PimAllocEnum::PIM_ALLOC_AUTO, n, 32,
                                PimDataType::PIM_INT32);
    const PimObjId y = pimAllocAssociated(32, x, PimDataType::PIM_INT32);
    const PimObjId d = pimAllocAssociated(32, x, PimDataType::PIM_INT32);
    pimCopyHostToDevice(xs.data(), x);
    pimCopyHostToDevice(ys.data(), y);

    pimResetMetrics();
    pimSetFusionEnabled(true);
    const PimObjId t0 = pimAllocAssociated(32, x, PimDataType::PIM_INT32);
    const PimObjId t1 = pimAllocAssociated(32, x, PimDataType::PIM_INT32);
    pimMulScalar(x, t0, 3);
    pimAddScalar(t0, t1, 1);
    pimSub(t1, y, d);
    pimFree(t0);
    pimFree(t1);
    pimSync();
    pimSetFusionEnabled(false);

    EXPECT_EQ(metric("fusion.chains"), 1.0);
    EXPECT_EQ(metric("fusion.ops_fused"), 3.0);
    EXPECT_EQ(metric("fusion.temps_elided"), 2.0);
    // Elided buffers were never written, so the freelist can recycle
    // them without the zero-fill.
    EXPECT_EQ(metric("freelist.pristine"), 2.0);

    // A recycled pristine buffer must still read back as zeros.
    const PimObjId fresh =
        pimAllocAssociated(32, x, PimDataType::PIM_INT32);
    std::vector<int> out(n, -1);
    pimCopyDeviceToHost(fresh, out.data());
    for (uint64_t i = 0; i < n; ++i) {
        ASSERT_EQ(out[i], 0);
    }
    std::vector<int> dres(n, 0);
    pimCopyDeviceToHost(d, dres.data());
    for (uint64_t i = 0; i < n; ++i) {
        ASSERT_EQ(dres[i], (2 * 3 + 1) - 9);
    }
    pimFree(fresh);
    pimFree(x);
    pimFree(y);
    pimFree(d);
}

TEST_P(FusionTest, MaterializedWriteBlocksElisionAndPristineRecycle)
{
    // Regression: an object with any materialized write in the window
    // must not return to the allocator pristine even when other
    // writes to it elide. Here the captured copy runs as a singleton
    // chain (its data lands in t's storage) while the chain that
    // overwrites t elides its store — per-id bookkeeping must see the
    // materialized write, or the next same-shape allocation would
    // skip the recycle zero-fill and read back the copied data.
    const uint64_t n = 400;
    const std::vector<int> xs(n, 7), junk(n, 0x5a5a5a);
    const PimObjId x = pimAlloc(PimAllocEnum::PIM_ALLOC_AUTO, n, 32,
                                PimDataType::PIM_INT32);
    const PimObjId d = pimAllocAssociated(32, x, PimDataType::PIM_INT32);
    pimCopyHostToDevice(xs.data(), x);

    pimResetMetrics();
    pimSetFusionEnabled(true);
    const PimObjId t = pimAllocAssociated(32, x, PimDataType::PIM_INT32);
    pimCopyHostToDevice(junk.data(), t); // non-fused write to t
    pimMulScalar(x, t, 3);               // chain overwrites t...
    pimAdd(t, x, d);                     // ...reads it once...
    pimFree(t);                          // ...and frees it in-window
    pimSync();
    pimSetFusionEnabled(false);

    // t was written outside the window: not elidable, not pristine.
    EXPECT_EQ(metric("fusion.temps_elided"), 0.0);
    EXPECT_EQ(metric("freelist.pristine"), 0.0);

    std::vector<int> out(n, 0);
    pimCopyDeviceToHost(d, out.data());
    for (uint64_t i = 0; i < n; ++i) {
        ASSERT_EQ(out[i], 7 * 3 + 7);
    }

    // A recycled same-shape allocation must read back zeros, not the
    // junk the host copy left in t's storage.
    const PimObjId fresh =
        pimAllocAssociated(32, x, PimDataType::PIM_INT32);
    std::vector<int> zs(n, -1);
    pimCopyDeviceToHost(fresh, zs.data());
    for (uint64_t i = 0; i < n; ++i) {
        ASSERT_EQ(zs[i], 0);
    }
    pimFree(fresh);
    pimFree(x);
    pimFree(d);
}

TEST_P(FusionTest, NonFusedWriteBlocksElisionAndPristineRecycle)
{
    // An empty flush is still a write barrier. t is born while fusion
    // captures, then written by a ranged copy, which never fuses: it
    // flushes the still-empty window and runs alone. That idle flush
    // must drop t from the born set, or the chain that overwrites,
    // reads and frees t in the next window would elide its store and
    // hand t's storage back pristine with the copied data in it.
    const uint64_t n = 400;
    const std::vector<int> xs(n, 7), junk(n, 0x5a5a5a);
    const PimObjId x = pimAlloc(PimAllocEnum::PIM_ALLOC_AUTO, n, 32,
                                PimDataType::PIM_INT32);
    const PimObjId d = pimAllocAssociated(32, x, PimDataType::PIM_INT32);
    pimCopyHostToDevice(xs.data(), x);

    pimResetMetrics();
    pimSetFusionEnabled(true);
    const PimObjId t = pimAllocAssociated(32, x, PimDataType::PIM_INT32);
    pimCopyHostToDevice(junk.data(), t, 0, n - 1); // ranged: runs now
    pimMulScalar(x, t, 3);
    pimAdd(t, x, d);
    pimFree(t);
    pimSync();
    pimSetFusionEnabled(false);

    EXPECT_EQ(metric("fusion.temps_elided"), 0.0);
    EXPECT_EQ(metric("freelist.pristine"), 0.0);
    std::vector<int> out(n, 0);
    pimCopyDeviceToHost(d, out.data());
    for (uint64_t i = 0; i < n; ++i) {
        ASSERT_EQ(out[i], 7 * 3 + 7);
    }
    const PimObjId fresh =
        pimAllocAssociated(32, x, PimDataType::PIM_INT32);
    std::vector<int> zs(n, -1);
    pimCopyDeviceToHost(fresh, zs.data());
    for (uint64_t i = 0; i < n; ++i) {
        ASSERT_EQ(zs[i], 0);
    }
    pimFree(fresh);
    pimFree(x);
    pimFree(d);
}

TEST_P(FusionTest, FlushOnIntermediateReadAndWindowOverflow)
{
    const uint64_t n = 512;
    const std::vector<int> xs(n, 10);
    const PimObjId x = pimAlloc(PimAllocEnum::PIM_ALLOC_AUTO, n, 32,
                                PimDataType::PIM_INT32);
    const PimObjId t = pimAllocAssociated(32, x, PimDataType::PIM_INT32);
    pimCopyHostToDevice(xs.data(), x);

    pimSetFusionEnabled(true);

    // Reading a window intermediate must flush and observe its value.
    pimAddScalar(x, t, 1);
    std::vector<int> out(n, 0);
    pimCopyDeviceToHost(t, out.data());
    EXPECT_EQ(out[0], 11);
    EXPECT_EQ(out[n - 1], 11);

    // Overflowing the window must flush transparently: a long
    // self-chain still computes the right value.
    for (int i = 0; i < static_cast<int>(kMaxFusionWindowOps) + 5; ++i)
        pimAddScalar(t, t, 1);
    pimCopyDeviceToHost(t, out.data());
    EXPECT_EQ(out[0],
              11 + static_cast<int>(kMaxFusionWindowOps) + 5);

    // Disabling fusion flushes whatever is pending.
    pimMulScalar(t, t, 2);
    pimSetFusionEnabled(false);
    pimCopyDeviceToHost(t, out.data());
    EXPECT_EQ(out[0],
              (11 + static_cast<int>(kMaxFusionWindowOps) + 5) * 2);

    pimFree(x);
    pimFree(t);
}

namespace {

/** Everything one GEMV column sweep produces, for compare. */
struct SweepOutcome
{
    std::vector<int> y;
    PimRunStats stats;
    std::map<std::string, uint64_t> op_mix;
};

/**
 * The GEMV column-sweep command stream: broadcast the accumulator,
 * then per column copy into one staging buffer and scaled-add into
 * the accumulator. With @p fused the whole sweep is a capture region
 * (the copies become fused loads and the staging stores elide); the
 * command stream is identical either way, so modeled stats must be
 * bit-identical.
 */
SweepOutcome
runGemvSweepWorkload(const std::vector<int> &matrix,
                     const std::vector<int> &v, uint64_t m, uint64_t n,
                     bool fused)
{
    SweepOutcome o;
    o.y.assign(m, 0);
    const PimObjId col = pimAlloc(PimAllocEnum::PIM_ALLOC_AUTO, m, 32,
                                  PimDataType::PIM_INT32);
    const PimObjId acc =
        pimAllocAssociated(32, col, PimDataType::PIM_INT32);
    EXPECT_TRUE(col >= 0 && acc >= 0);

    if (fused)
        pimBeginFusion();
    pimBroadcastInt(acc, 0);
    for (uint64_t j = 0; j < n; ++j) {
        pimCopyHostToDevice(matrix.data() + j * m, col);
        pimScaledAdd(col, acc, acc,
                     static_cast<uint64_t>(
                         static_cast<int64_t>(v[j])));
    }
    if (fused)
        pimEndFusion();
    pimCopyDeviceToHost(acc, o.y.data());

    pimFree(col);
    pimFree(acc);
    o.stats = pimGetStats();
    o.op_mix = pimGetOpMix();
    return o;
}

void
expectSweepOutcomesIdentical(const SweepOutcome &a,
                             const SweepOutcome &b)
{
    EXPECT_EQ(a.y, b.y);
    EXPECT_EQ(a.stats.kernel_sec, b.stats.kernel_sec);
    EXPECT_EQ(a.stats.kernel_j, b.stats.kernel_j);
    EXPECT_EQ(a.stats.copy_sec, b.stats.copy_sec);
    EXPECT_EQ(a.stats.copy_j, b.stats.copy_j);
    EXPECT_EQ(a.stats.bytes_h2d, b.stats.bytes_h2d);
    EXPECT_EQ(a.stats.bytes_d2h, b.stats.bytes_d2h);
    EXPECT_EQ(a.op_mix, b.op_mix);
}

void
expectSweepCorrect(const SweepOutcome &o, const std::vector<int> &matrix,
                   const std::vector<int> &v, uint64_t m, uint64_t n)
{
    for (uint64_t i = 0; i < m; ++i) {
        int64_t acc = 0;
        for (uint64_t j = 0; j < n; ++j)
            acc += static_cast<int64_t>(matrix[j * m + i]) * v[j];
        ASSERT_EQ(o.y[i], static_cast<int>(acc)) << "row " << i;
    }
}

} // namespace

TEST_P(FusionTest, CopyCaptureSweepBitIdenticalSync)
{
    // 2048 is tile-divisible; 1537 leaves a 513-element tail. 40
    // columns = 81 captured commands, crossing the window boundary.
    const uint64_t n = 40;
    for (const uint64_t m : {uint64_t{2048}, uint64_t{1537}}) {
        Prng rng(17);
        const std::vector<int> matrix =
            rng.intVector(m * n, -100, 100);
        const std::vector<int> v = rng.intVector(n, -10, 10);

        pimResetStats();
        const SweepOutcome unfused =
            runGemvSweepWorkload(matrix, v, m, n, false);
        pimResetStats();
        const SweepOutcome fused =
            runGemvSweepWorkload(matrix, v, m, n, true);

        expectSweepOutcomesIdentical(unfused, fused);
        expectSweepCorrect(fused, matrix, v, m, n);
    }
}

TEST_P(FusionTest, CapturedCopySnapshotsHostBufferAtIssue)
{
    // The capture must snapshot the host buffer at issue — the
    // caller may scribble over or free it before the window flushes.
    const uint64_t n = 900;
    const std::vector<int> xs(n, 5);
    const PimObjId x = pimAlloc(PimAllocEnum::PIM_ALLOC_AUTO, n, 32,
                                PimDataType::PIM_INT32);
    const PimObjId d = pimAllocAssociated(32, x, PimDataType::PIM_INT32);
    pimCopyHostToDevice(xs.data(), x);

    ASSERT_EQ(pimBeginFusion(), PimStatus::PIM_OK);
    {
        std::vector<int> staged(n, 100);
        pimCopyHostToDevice(staged.data(), d);
        std::fill(staged.begin(), staged.end(), -1); // scribble
        pimAdd(d, x, d);
    } // staged destroyed while the window is still open
    ASSERT_EQ(pimEndFusion(), PimStatus::PIM_OK);

    std::vector<int> out(n, 0);
    pimCopyDeviceToHost(d, out.data());
    for (uint64_t i = 0; i < n; ++i) {
        ASSERT_EQ(out[i], 100 + 5);
    }
    pimFree(x);
    pimFree(d);
}

TEST_P(FusionTest, CapturedCopyDestReadAfterFlushMaterializes)
{
    // Regression: a captured copy whose dest outlives the window must
    // land the converted data in memory — a later non-fused reader
    // sees it after the flush.
    const uint64_t n = 800;
    Prng rng(31);
    const std::vector<int> xs = rng.intVector(n, -50, 50);
    const std::vector<int> hs = rng.intVector(n, -50, 50);
    const PimObjId x = pimAlloc(PimAllocEnum::PIM_ALLOC_AUTO, n, 32,
                                PimDataType::PIM_INT32);
    const PimObjId t = pimAllocAssociated(32, x, PimDataType::PIM_INT32);
    const PimObjId d = pimAllocAssociated(32, x, PimDataType::PIM_INT32);
    pimCopyHostToDevice(xs.data(), x);

    ASSERT_EQ(pimBeginFusion(), PimStatus::PIM_OK);
    pimCopyHostToDevice(hs.data(), t);
    pimAdd(t, x, d); // in-window consumer
    ASSERT_EQ(pimEndFusion(), PimStatus::PIM_OK);

    // Non-fused reads after the flush.
    std::vector<int> tout(n, 0), dout(n, 0);
    pimCopyDeviceToHost(t, tout.data());
    pimCopyDeviceToHost(d, dout.data());
    for (uint64_t i = 0; i < n; ++i) {
        ASSERT_EQ(tout[i], hs[i]);
        ASSERT_EQ(dout[i], hs[i] + xs[i]);
    }
    pimFree(x);
    pimFree(t);
    pimFree(d);
}

TEST_P(FusionTest, DeferredFreeOfCapturedCopyDestElides)
{
    // Regression for the deferred-free path: freeing a staging object
    // whose pending *copy* writes it must defer to the flush (not
    // release the storage under the buffered chain), and a staging
    // dest born, copy-written, consumed, and freed in-window is
    // elided — its storage returns to the allocator pristine.
    const uint64_t n = 700;
    Prng rng(37);
    const std::vector<int> xs = rng.intVector(n, -50, 50);
    const std::vector<int> hs = rng.intVector(n, -50, 50);
    const PimObjId x = pimAlloc(PimAllocEnum::PIM_ALLOC_AUTO, n, 32,
                                PimDataType::PIM_INT32);
    const PimObjId d = pimAllocAssociated(32, x, PimDataType::PIM_INT32);
    pimCopyHostToDevice(xs.data(), x);

    pimResetMetrics();
    ASSERT_EQ(pimBeginFusion(), PimStatus::PIM_OK);
    const PimObjId t = pimAllocAssociated(32, x, PimDataType::PIM_INT32);
    pimCopyHostToDevice(hs.data(), t);
    pimAdd(t, x, d);
    pimFree(t); // pending copy writes t: must defer, then elide
    ASSERT_EQ(pimEndFusion(), PimStatus::PIM_OK);

    std::vector<int> out(n, 0);
    pimCopyDeviceToHost(d, out.data());
    for (uint64_t i = 0; i < n; ++i) {
        ASSERT_EQ(out[i], hs[i] + xs[i]);
    }
    EXPECT_GE(metric("fusion.host_loads"), 1.0);
    EXPECT_GE(metric("fusion.copy_elisions"), 1.0);
    EXPECT_GE(metric("fusion.temps_elided"), 1.0);
    EXPECT_GE(metric("freelist.pristine"), 1.0);

    // The pristine-recycled buffer must still read back as zeros.
    const PimObjId fresh =
        pimAllocAssociated(32, x, PimDataType::PIM_INT32);
    std::vector<int> zs(n, -1);
    pimCopyDeviceToHost(fresh, zs.data());
    for (uint64_t i = 0; i < n; ++i) {
        ASSERT_EQ(zs[i], 0);
    }
    pimFree(fresh);
    pimFree(x);
    pimFree(d);
}

TEST_P(FusionTest, CopyFusionMetrics)
{
    // fusion.host_loads counts captured copies in multi-op chains,
    // fusion.copy_bytes_fused their modeled payload (matching what
    // the same copies commit to bytes_h2d), fusion.copy_elisions the
    // staging stores that never materialized.
    const uint64_t n = 600;
    const std::vector<int> hs(n, 3);
    const PimObjId x = pimAlloc(PimAllocEnum::PIM_ALLOC_AUTO, n, 32,
                                PimDataType::PIM_INT32);
    const PimObjId col = pimAllocAssociated(32, x, PimDataType::PIM_INT32);
    const PimObjId acc = pimAllocAssociated(32, x, PimDataType::PIM_INT32);
    pimCopyHostToDevice(hs.data(), x);

    pimResetStats();
    const uint64_t h2d_before = pimGetStats().bytes_h2d;
    pimResetMetrics();
    ASSERT_EQ(pimBeginFusion(), PimStatus::PIM_OK);
    pimBroadcastInt(acc, 0);
    // Two copy/consume pairs through one staging buffer: the first
    // copy is shadowed by the second (elides), the trailing copy
    // materializes.
    pimCopyHostToDevice(hs.data(), col);
    pimScaledAdd(col, acc, acc, 2);
    pimCopyHostToDevice(hs.data(), col);
    pimScaledAdd(col, acc, acc, 4);
    ASSERT_EQ(pimEndFusion(), PimStatus::PIM_OK);
    pimSync();

    EXPECT_EQ(metric("fusion.host_loads"), 2.0);
    EXPECT_EQ(metric("fusion.copy_elisions"), 1.0);
    const uint64_t h2d_fused = pimGetStats().bytes_h2d - h2d_before;
    EXPECT_EQ(metric("fusion.copy_bytes_fused"),
              static_cast<double>(h2d_fused));

    std::vector<int> out(n, 0);
    pimCopyDeviceToHost(acc, out.data());
    for (uint64_t i = 0; i < n; ++i) {
        ASSERT_EQ(out[i], 3 * 2 + 3 * 4);
    }
    pimFree(x);
    pimFree(col);
    pimFree(acc);
}

TEST_P(FusionTest, AllocRetriesAfterFlushingDeferredFrees)
{
    // Four objects of n int32 fill the device. Inside the region the
    // fourth allocation fits only because alloc flushes the window,
    // which runs the deferred free of the temporary t.
    const uint64_t n = 8192;
    Prng rng(41);
    const std::vector<int> xs = rng.intVector(n, -1000, 1000);
    const std::vector<int> ys = rng.intVector(n, -1000, 1000);
    const PimObjId a = pimAlloc(PimAllocEnum::PIM_ALLOC_AUTO, n, 32,
                                PimDataType::PIM_INT32);
    const PimObjId b = pimAllocAssociated(32, a, PimDataType::PIM_INT32);
    ASSERT_GE(a, 0);
    ASSERT_GE(b, 0);
    pimCopyHostToDevice(xs.data(), a);
    pimCopyHostToDevice(ys.data(), b);

    ASSERT_EQ(pimBeginFusion(), PimStatus::PIM_OK);
    const PimObjId t = pimAllocAssociated(32, a, PimDataType::PIM_INT32);
    ASSERT_GE(t, 0);
    pimAdd(a, b, t);
    const PimObjId d = pimAllocAssociated(32, a, PimDataType::PIM_INT32);
    ASSERT_GE(d, 0);
    pimAdd(t, a, d);
    pimFree(t); // t has a pending write: deferred to the flush

    pimClearLastError();
    const PimObjId e = pimAllocAssociated(32, a, PimDataType::PIM_INT32);
    ASSERT_GE(e, 0);
    EXPECT_EQ(pimGetLastError(), PimStatus::PIM_OK)
        << pimGetLastErrorMessage();
    std::vector<int> zs(n, -1);
    pimCopyDeviceToHost(e, zs.data());
    for (uint64_t i = 0; i < n; ++i) {
        ASSERT_EQ(zs[i], 0) << "element " << i;
    }

    // Nothing is deferred now, so a fifth object cannot fit.
    EXPECT_EQ(pimAlloc(PimAllocEnum::PIM_ALLOC_AUTO, n, 32,
                       PimDataType::PIM_INT32),
              -1);
    EXPECT_STREQ(pimGetLastErrorMessage(),
                 "pimAlloc: device capacity exhausted");
    ASSERT_EQ(pimEndFusion(), PimStatus::PIM_OK);

    std::vector<int> out(n, 0);
    pimCopyDeviceToHost(d, out.data());
    for (uint64_t i = 0; i < n; ++i) {
        ASSERT_EQ(out[i], 2 * xs[i] + ys[i]) << "element " << i;
    }
    pimFree(a);
    pimFree(b);
    pimFree(d);
    pimFree(e);
    const PimObjId whole = pimAlloc(PimAllocEnum::PIM_ALLOC_AUTO, 4 * n,
                                    32, PimDataType::PIM_INT32);
    EXPECT_GE(whole, 0);
    pimFree(whole);
}

INSTANTIATE_TEST_SUITE_P(
    AllTargets, FusionTest,
    ::testing::Values(PimDeviceEnum::PIM_DEVICE_BITSIMD_V_AP,
                      PimDeviceEnum::PIM_DEVICE_FULCRUM,
                      PimDeviceEnum::PIM_DEVICE_BANK_LEVEL),
    [](const ::testing::TestParamInfo<PimDeviceEnum> &info) {
        switch (info.param) {
          case PimDeviceEnum::PIM_DEVICE_BITSIMD_V_AP:
            return "BitSerial";
          case PimDeviceEnum::PIM_DEVICE_FULCRUM:
            return "Fulcrum";
          default:
            return "BankLevel";
        }
    });
