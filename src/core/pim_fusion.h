/**
 * @file
 * Elementwise command fusion: expression-tape lowering for chained PIM
 * ops with dead-temporary elision (docs/PERFORMANCE.md).
 *
 * PIMbench workloads issue long chains of elementwise API calls
 * (pimMulScalar -> pimAdd -> pimSub ...) where every intermediate is
 * fully materialized, so simulator throughput is bounded by memory
 * traffic over temporaries. When fusion is active (PIMEVAL_FUSION /
 * pimSetFusionEnabled / a pimBeginFusion region), the device buffers
 * fusable elementwise commands in a small issue window instead of
 * executing them immediately. At a flush boundary the PimFusionWindow
 * plans the window:
 *
 *  - pimPlanFusionChains greedily extracts linear producer->consumer
 *    chains of adjacent commands (command j+1 reads command j's dest);
 *    adjacency keeps per-command statistics commits in issue order,
 *    which is what makes fused stats bit-identical to unfused runs.
 *    Full-object pimCopyHostToDevice calls capture as is_load members
 *    (host buffer snapshotted at issue), so copy->consumer chains —
 *    the GEMV/GEMM column-sweep pattern — fuse end-to-end; a staging
 *    column whose only readers are in-chain is elided and never
 *    materialized, its consumers reading tile slices straight from
 *    the snapshot.
 *  - Each chain lowers to an expression tape (post-order op list +
 *    operand slots). The tape interpreter evaluates the whole chain
 *    over one L1-resident tile at a time with the same chunk kernels
 *    as unfused execution — each step applies its own element width
 *    and dest mask, so stored values are bit-identical by
 *    construction. The interpreter is the only fused execution
 *    path; a singleton chain runs through the device's singleton
 *    executor, the path every uncaptured command takes.
 *  - An intermediate born in the window, written once, freed inside
 *    the window, and read only by its chain successor is *elided*: its
 *    store is skipped and its storage returns to the allocator
 *    free-list still in the pristine all-zero state
 *    (PimResourceMgr::freeElided), so the next same-shape allocation
 *    skips the recycle zero-fill.
 *
 * Fusion is a functional-simulation optimization only: the modeled
 * cost of every original command is still computed from its
 * issue-time profile and committed per command in issue order.
 */

#ifndef PIMEVAL_CORE_PIM_FUSION_H_
#define PIMEVAL_CORE_PIM_FUSION_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <type_traits>
#include <unordered_set>
#include <vector>

#include "core/perf_energy_model.h"
#include "core/pim_host_io.h"
#include "core/pim_stats.h"
#include "core/pim_types.h"
#include "fulcrum/alpu_kernels.h"

namespace pimeval {

/** Window and chain bounds (small by design: the window only needs to
 *  span one app-loop body between natural flush points). The chain cap
 *  counts compute members only — host loads (captured H2D copies) ride
 *  along uncapped, so a GEMV window of interleaved copy+scaledAdd
 *  pairs still lowers to a single sweep. */
constexpr size_t kMaxFusionWindowOps = 32;
constexpr size_t kMaxFusionChainLen = 16;

/**
 * Recycling allocator for capture-time host snapshots.
 *
 * A captured H2D copy snapshots the caller's buffer at issue; a GEMV
 * sweep captures one multi-megabyte snapshot per column. Fresh heap
 * blocks of that size come straight from mmap, and the first-touch
 * page faults (plus the unmap when the chain releases the buffer)
 * cost several times the snapshot memcpy itself. The pool retains
 * released blocks and hands them back warm, so steady-state sweeps
 * reuse the same few buffers with no page-fault traffic.
 *
 * Thread-safe: a buffer's last reference may drop on any thread. The
 * device holds the pool via shared_ptr and every buffer's deleter
 * keeps a reference, so outstanding snapshots stay valid through
 * device teardown ordering.
 */
class PimSnapshotPool
    : public std::enable_shared_from_this<PimSnapshotPool>
{
  public:
    /** Get a buffer of at least @p bytes (contents undefined); the
     *  deleter returns it to the pool. Best-fit over retained blocks,
     *  falling back to a fresh allocation. */
    std::shared_ptr<uint8_t[]> acquire(size_t bytes);

  private:
    void release(uint8_t *p, size_t cap);

    struct Block
    {
        size_t cap;
        std::unique_ptr<uint8_t[]> mem;
    };

    /** Retention cap: bounds idle memory at a window's worth of
     *  snapshots (32 ops) without recycling pressure in steady state. */
    static constexpr size_t kMaxRetained = kMaxFusionWindowOps;

    std::mutex mu_;
    std::vector<Block> free_;
};

/**
 * The operand view of one window command, as the chain planner sees
 * it: object ids only. b is -1 for scalar/unary commands. Kept
 * separate from PimFusedOp so chain extraction is unit-testable on
 * synthetic hazard graphs.
 */
struct PimFusionOpView
{
    PimObjId a = -1;
    PimObjId b = -1;
    PimObjId dest = -1;
    /** Reduction terminator (pimRedSum): reads a, writes no object.
     *  May only end a chain — nothing can consume its dest. */
    bool is_reduce = false;
    /** Broadcast fill (pimBroadcast*): writes dest, reads nothing.
     *  May only start a chain. */
    bool is_fill = false;
    /** Captured H2D copy (pimCopyHostToDevice): writes dest from a
     *  host snapshot, reads no object. Loads are absorbed into the
     *  open chain unconditionally; a later compute may link by reading
     *  any absorbed load's dest (copy->consumer RAW chain). */
    bool is_load = false;
};

/** One tape step of a planned chain: window op index + whether its
 *  dest store is elided (dead temporary). */
struct PimFusionStep
{
    size_t op = 0;
    bool elide_store = false;
};

using PimFusionChain = std::vector<PimFusionStep>;

/**
 * Greedy linear chain extraction over a command window.
 *
 * Walks the window in issue order; command j+1 joins the open chain
 * when it reads the chain's flow value (the last compute/fill
 * member's dest) or the dest of a load already absorbed by the chain
 * (copy->consumer RAW link). Only adjacent commands link — fusing
 * across unrelated commands would reorder per-command stats commits.
 * Loads (is_load) are absorbed unconditionally: the tape executes
 * them in window position, so a run of interleaved copy+compute pairs
 * stays one chain. A reduction (is_reduce) joins only by reading the
 * flow, terminates its chain, and never extends further; a fill
 * (is_fill) reads nothing, so it can only open a chain.
 *
 * Store elision is order-aware. For a member writing d at window
 * index w, let p be the next window command writing d (if any) and R
 * the set of commands reading d in (w, p] — p included because a
 * command reads its operands before storing. The store is elided when
 * the value is dead past the window (p exists, or d was born AND
 * freed in the window: @p born / @p freed) and every reader in R can
 * resolve d inside the chain:
 *  - compute/fill: R must be exactly the chain's next compute member
 *    (or empty), which consumes the value as the flowing tile; the
 *    final compute store of a chain always materializes.
 *  - load: every reader in R must be a later member of the same chain
 *    (each consumer converts its tile slice straight from the host
 *    snapshot, so multiple in-chain readers are fine).
 * This covers both dead temporaries (born+freed) and WAW-dead
 * rewrites of long-lived objects (a GEMV accumulator only stores its
 * final value per window).
 *
 * Every window op appears in exactly one chain; unfusable neighbors
 * produce singleton chains, which the device's singleton executor
 * runs as if the command had never been captured.
 */
std::vector<PimFusionChain>
pimPlanFusionChains(const std::vector<PimFusionOpView> &ops,
                    const std::unordered_set<PimObjId> &born,
                    const std::unordered_set<PimObjId> &freed);

/**
 * One device command, built once at issue time (PimDevice::makeOp):
 * raw pointers, the op-specialized kernel, the cost inputs and the
 * interned stats key. The device either buffers a fusable command in
 * the fusion window or runs it at once; both paths execute and commit
 * this same record. A command that never fuses runs its own body and
 * commits its record the same way.
 *
 * Trivially copyable, so building, buffering and dropping one is
 * plain stores: a captured load's snapshot is owned by the window
 * (PimFusionWindow::record), not by the record. The fields without a
 * default are the ones makeOp always writes (shape and key_id: for
 * every command but a copy, which reads neither).
 */
struct PimFusedOp
{
    PimCmdEnum cmd;
    AlpuOp op = AlpuOp::kAdd;
    PimObjId a = -1;
    PimObjId b = -1; ///< -1 for scalar/unary/shift commands
    PimObjId dest = -1;
    const uint64_t *pa = nullptr;
    const uint64_t *pb = nullptr;
    uint64_t *pd = nullptr;
    BinaryChunkFn kern2 = nullptr;      ///< vector-vector commands
    ScalarChunkFn kern1 = nullptr;      ///< scalar/unary/shift commands
    ScaledAddChunkFn kern_sa = nullptr; ///< dest = a*s + b
    /** False when the captured kernel computes something other than
     *  what @p op alone implies (kNE captures op=kEQ plus a negating
     *  kernel). Scalar folding re-selects a kernel from @p op, so it
     *  must skip such steps; only the captured kernel has the right
     *  semantics. */
    bool op_exact = true;
    bool sgn = false;
    uint64_t scalar = 0;
    unsigned bits;
    uint64_t dmask = 0;
    size_t n; ///< raw words (one per element)
    /** Reduction terminator (kRedSum over the full object): reads a,
     *  writes *red_result instead of an object. */
    bool is_reduce = false;
    int64_t *red_result = nullptr;
    /** Broadcast fill: writes @p scalar (pre-masked) to every element
     *  of dest; reads nothing. */
    bool is_fill = false;
    /** H2D copy: converts @p n elements of host bytes into dest. */
    bool is_load = false;
    /** The bytes a load reads: the caller's buffer while the copy runs
     *  at issue, the window's snapshot once it is captured. */
    const uint8_t *host = nullptr;
    PimHostToDeviceChunkFn load_kern = nullptr;
    unsigned host_stride = 0;   ///< host bytes per element
    uint64_t copy_payload = 0;  ///< modeled bytes for the stats commit
    /** What the cost memo reads of a non-copy command: its object's
     *  cost shape (scaled under a modeling scale above 1) and the
     *  profile's immediates, PimOpProfile::scalar and ::aux. */
    PimCostShape shape;
    uint64_t cost_scalar = 0;
    unsigned cost_aux = 0;
    PimStatsMgr::CmdKeyId key_id;
    const char *trace_name;
};

static_assert(std::is_trivially_copyable_v<PimFusedOp>);

/**
 * One step of a lowered expression tape. A null @p store means the
 * step's result only flows to the next step (elided dead temporary or
 * the synthetic first half of a scaledAdd).
 */
struct PimFusedTapeStep
{
    BinaryChunkFn kern2 = nullptr;
    ScalarChunkFn kern1 = nullptr;
    ScaledAddChunkFn kern_sa = nullptr;
    const uint64_t *a = nullptr;
    const uint64_t *b = nullptr;
    bool a_is_prev = false;
    bool b_is_prev = false;
    uint64_t scalar = 0;
    unsigned bits = 0;
    uint64_t mask = 0;
    uint64_t *store = nullptr;
    /** Fill step (all kernels null): write @p scalar to every element
     *  of the output; the value then flows like any step result. */
    bool is_fill = false;
    /** Standalone materialized load: convert the host tile slice and
     *  store it (host_a + load_a + mask describe the conversion); does
     *  not touch the flowing value. An *elided* load never becomes a
     *  step — its consumers carry host-source operands instead. */
    bool is_load = false;
    /** Host-source operands: the operand's producer is an elided
     *  in-window copy, so the step converts its tile slice straight
     *  from the snapshot (load_* kernel, stride in host bytes, the
     *  copy dest's element mask) into a scratch tile. */
    const uint8_t *host_a = nullptr;
    const uint8_t *host_b = nullptr;
    PimHostToDeviceChunkFn load_a = nullptr;
    PimHostToDeviceChunkFn load_b = nullptr;
    unsigned host_stride_a = 0;
    unsigned host_stride_b = 0;
    uint64_t load_mask_a = 0;
    uint64_t load_mask_b = 0;
    /** Inline host-source scaledAdd: set when this step is a
     *  scaledAdd whose A operand is a host snapshot. The kernel
     *  converts each lane and computes in one pass — no scratch-tile
     *  round trip — and is bit-identical to load_a followed by
     *  kern_sa (the lane applies load_mask_a exactly like the
     *  conversion kernel). Signature: (host_slice, b, scalar, out,
     *  cnt, bits, mask, load_mask). */
    void (*kern_hsa)(const uint8_t *, const uint64_t *, uint64_t,
                     uint64_t *, size_t, unsigned, uint64_t,
                     uint64_t) = nullptr;
    /** Op metadata mirrored from the source PimFusedOp: scalar
     *  folding re-selects the step's kernel from it. */
    AlpuOp op = AlpuOp::kAdd;
    bool op_exact = true;
    bool sgn = false;
};

/**
 * A lowered chain, executable over any [lo, hi) element range (the
 * body handed to ThreadPool::parallelForChunks). run() interprets the
 * tape over L1-resident tiles; a range may start and end anywhere.
 */
struct PimFusedTape
{
    std::vector<PimFusedTapeStep> steps;
    size_t n = 0;

    /** Reduction terminator: after the elementwise steps, the flowing
     *  value is accumulated (wrapping int64, sign-extended to
     *  red_bits when red_sgn) instead of — or in addition to — being
     *  stored. run() returns the partial for its range; partials
     *  combine across chunks by wrapping addition, which is
     *  associative, so the total is bit-identical to a sequential
     *  executeRedSum over the materialized intermediate. */
    bool has_reduce = false;
    bool red_sgn = false;
    unsigned red_bits = 0;

    /** Broadcast fills folded into their consumer as scalar
     *  immediates during lowering (fusion.scalar_folds). */
    unsigned folded_fills = 0;

    /** Evaluate [lo, hi); returns the reduction partial (wrapping
     *  uint64 lane arithmetic; 0 when the tape has no reduction). */
    uint64_t run(size_t lo, size_t hi) const;
};

/**
 * Lower one planned chain over the window ops to an executable tape.
 * scaledAdd commands stay one step (the scaledAddChunk kernel), so the
 * chain value can flow into either of their operands.
 */
PimFusedTape pimBuildFusedTape(const std::vector<PimFusedOp> &ops,
                               const PimFusionChain &chain);

/**
 * The device's fusion issue window: buffered commands plus the
 * birth/free bookkeeping the elision analysis needs. Single-threaded
 * (issuing thread only); execution of the planned chains stays with
 * PimDevice, which owns the thread pool.
 */
class PimFusionWindow
{
  public:
    bool empty() const
    {
        return ops_.empty() && deferred_frees_.empty();
    }
    size_t size() const { return ops_.size(); }
    bool full() const { return ops_.size() >= kMaxFusionWindowOps; }

    /** Buffer @p op. A captured load hands over its host snapshot,
     *  which the window owns until clear() and the buffered op reads
     *  in place of the caller's buffer. */
    void
    record(const PimFusedOp &op,
           std::shared_ptr<const uint8_t[]> snapshot = nullptr)
    {
        PimFusedOp &held = ops_.emplace_back(op);
        if (snapshot) {
            held.host = snapshot.get();
            snapshots_.push_back(std::move(snapshot));
        }
    }

    /** An object allocated while fusion captures (cleared at flush):
     *  only window-born temporaries are elision candidates. */
    void noteAlloc(PimObjId id) { born_.insert(id); }

    /**
     * pimFree while the window holds a writer of @p id: the free is
     * deferred to the flush (true). Returns false when the id is not a
     * pending dest (or was already deferred) — the caller frees
     * normally, flushing first if the window still reads the id.
     */
    bool noteFree(PimObjId id);

    /** Whether any pending command reads or writes @p id. */
    bool touches(PimObjId id) const;

    const std::vector<PimFusedOp> &ops() const { return ops_; }
    const std::vector<PimObjId> &deferredFrees() const
    {
        return deferred_frees_;
    }

    /** Plan the pending window (chain extraction + elision). */
    std::vector<PimFusionChain> plan() const;

    /** Reset after a flush: pending ops and their snapshots, deferred
     *  frees, and the born-in-window set. */
    void clear();

  private:
    std::vector<PimFusedOp> ops_;
    /** The captured loads' host snapshots, in capture order. */
    std::vector<std::shared_ptr<const uint8_t[]>> snapshots_;
    std::unordered_set<PimObjId> born_;
    std::unordered_set<PimObjId> freed_;
    std::vector<PimObjId> deferred_frees_;
};

} // namespace pimeval

#endif // PIMEVAL_CORE_PIM_FUSION_H_
