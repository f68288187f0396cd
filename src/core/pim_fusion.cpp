/**
 * @file
 * Fusion pass implementation: chain planning, tape lowering, and the
 * tile interpreter.
 */

#include "core/pim_fusion.h"

#include <algorithm>
#include <unordered_map>

namespace pimeval {

namespace {

/** Tile size of the tape interpreter: 8 KiB of uint64_t lanes — the
 *  whole working set of a tape step stays L1-resident, so a chain of
 *  kernel sweeps over one tile costs close to a single fused loop. */
constexpr size_t kFusionTileWords = 1024;

/**
 * Inline host-source scaledAdd: out[i] = (lane(i) * s + b[i]) with
 * the step's width/mask semantics. Composes the conversion kernel's
 * lane load (zero-extended lane, then & load_mask — see
 * pimHostToDeviceChunk) with scaledAddChunk's arithmetic in a single
 * loop, so the dominant GEMV/GEMM tape shape skips the scratch-tile
 * round trip. Bit-identical to the two-stage path by construction.
 */
template <unsigned Bytes, bool Signed>
void
hostScaledAddChunk(const uint8_t *ha, const uint64_t *b, uint64_t s,
                   uint64_t *d, size_t cnt, unsigned bits,
                   uint64_t mask, uint64_t load_mask)
{
    for (size_t i = 0; i < cnt; ++i) {
        const uint64_t a =
            pimLoadHostLane<Bytes>(ha + i * Bytes) & load_mask;
        const uint64_t prod =
            alpuComputeT<AlpuOp::kMul>(a, s, bits, Signed);
        d[i] = alpuComputeT<AlpuOp::kAdd>(prod, b[i], bits, Signed) &
            mask;
    }
}

/**
 * Width-specialized variant for the common full-width case: the
 * element width equals the host stride and both masks are the full
 * width-bits mask. With the width a compile-time constant the
 * compiler sees every lane fits the element width (the typed lane
 * load zero-extends, the scalar is pre-truncated), so the loop
 * vectorizes where the runtime-width loop stays scalar.
 * Bit-identical to hostScaledAddChunk under the dispatch
 * preconditions: trunc-to-bits and &mask coincide when mask is the
 * full width mask.
 */
template <unsigned Bytes>
void
hostScaledAddChunkW(const uint8_t *ha, const uint64_t *b, uint64_t s,
                    uint64_t *d, size_t cnt, unsigned /*bits*/,
                    uint64_t /*mask*/, uint64_t /*load_mask*/)
{
    constexpr uint64_t kM =
        Bytes == 8 ? ~0ull : ((1ull << (Bytes * 8)) - 1);
    const uint64_t su = s & kM;
    for (size_t i = 0; i < cnt; ++i) {
        const uint64_t a = pimLoadHostLane<Bytes>(ha + i * Bytes);
        const uint64_t prod = (a * su) & kM;
        d[i] = (prod + (b[i] & kM)) & kM;
    }
}

using HostScaledAddFn = void (*)(const uint8_t *, const uint64_t *,
                                 uint64_t, uint64_t *, size_t,
                                 unsigned, uint64_t, uint64_t);

HostScaledAddFn
hostScaledAddFor(unsigned stride_bytes, bool sgn, unsigned bits,
                 uint64_t mask, uint64_t load_mask)
{
    // scaledAdd is mul+add: neither depends on signedness, so the
    // width-specialized kernel covers signed and unsigned alike when
    // the widths line up and the masks are full-width.
    const uint64_t full =
        bits == 64 ? ~0ull : ((1ull << bits) - 1);
    if (bits == stride_bytes * 8 && mask == full &&
        load_mask == full) {
        switch (stride_bytes) {
          case 1:
            return &hostScaledAddChunkW<1>;
          case 2:
            return &hostScaledAddChunkW<2>;
          case 4:
            return &hostScaledAddChunkW<4>;
          case 8:
            return &hostScaledAddChunkW<8>;
          default:
            break;
        }
    }
    switch (stride_bytes) {
      case 1:
        return sgn ? &hostScaledAddChunk<1, true>
                   : &hostScaledAddChunk<1, false>;
      case 2:
        return sgn ? &hostScaledAddChunk<2, true>
                   : &hostScaledAddChunk<2, false>;
      case 4:
        return sgn ? &hostScaledAddChunk<4, true>
                   : &hostScaledAddChunk<4, false>;
      case 8:
        return sgn ? &hostScaledAddChunk<8, true>
                   : &hostScaledAddChunk<8, false>;
      default:
        return nullptr;
    }
}

} // namespace

std::shared_ptr<uint8_t[]>
PimSnapshotPool::acquire(size_t bytes)
{
    std::unique_ptr<uint8_t[]> mem;
    size_t cap = bytes;
    {
        std::lock_guard<std::mutex> lk(mu_);
        size_t best = free_.size();
        for (size_t i = 0; i < free_.size(); ++i) {
            if (free_[i].cap < bytes)
                continue;
            if (best == free_.size() ||
                free_[i].cap < free_[best].cap)
                best = i;
        }
        if (best < free_.size()) {
            cap = free_[best].cap;
            mem = std::move(free_[best].mem);
            free_[best] = std::move(free_.back());
            free_.pop_back();
        }
    }
    if (!mem)
        mem.reset(new uint8_t[bytes]);
    uint8_t *raw = mem.release();
    auto self = shared_from_this();
    return std::shared_ptr<uint8_t[]>(
        raw, [self = std::move(self), cap](uint8_t *p) {
            self->release(p, cap);
        });
}

void
PimSnapshotPool::release(uint8_t *p, size_t cap)
{
    std::unique_ptr<uint8_t[]> mem(p);
    std::lock_guard<std::mutex> lk(mu_);
    if (free_.size() < kMaxRetained)
        free_.push_back({cap, std::move(mem)});
    // Over the cap: mem's destructor frees the block.
}

std::vector<PimFusionChain>
pimPlanFusionChains(const std::vector<PimFusionOpView> &ops,
                    const std::unordered_set<PimObjId> &born,
                    const std::unordered_set<PimObjId> &freed)
{
    std::vector<PimFusionChain> chains;
    const size_t n = ops.size();
    size_t i = 0;
    while (i < n) {
        PimFusionChain chain{{i, false}};
        size_t tail = i;
        // Chain dataflow state: the flowing value (the last
        // compute/fill member's dest) plus the dests of absorbed
        // loads. A load overwriting the flow's object invalidates the
        // flow id — the id now names the loaded data, which only
        // operand resolution (not the flowing tile) can supply.
        PimObjId flow = -1;
        size_t compute_len = 0;
        std::unordered_set<PimObjId> load_dests;
        const auto note = [&](size_t idx) {
            const PimFusionOpView &o = ops[idx];
            if (o.is_load) {
                load_dests.insert(o.dest);
                if (o.dest == flow)
                    flow = -1;
            } else if (!o.is_reduce) {
                flow = o.dest;
                ++compute_len;
            }
        };
        note(i);
        while (tail + 1 < n && !ops[tail].is_reduce) {
            const PimFusionOpView &next = ops[tail + 1];
            bool join;
            if (next.is_load) {
                // Loads ride along unconditionally: the tape runs
                // them in window position, keeping stats commits in
                // issue order; they never touch the compute flow.
                join = true;
            } else if (next.is_fill) {
                join = false; // fills read nothing: only open chains
            } else if (compute_len >= kMaxFusionChainLen) {
                join = false;
            } else if (next.is_reduce) {
                // The reduce terminator has no operand slot in the
                // tape — it accumulates the flowing value, so it may
                // only join by reading the (unshadowed) flow.
                join = flow >= 0 && next.a == flow;
            } else {
                join = (flow >= 0 &&
                        (next.a == flow || next.b == flow)) ||
                    (next.a >= 0 && load_dests.count(next.a) > 0) ||
                    (next.b >= 0 && load_dests.count(next.b) > 0);
            }
            if (!join)
                break;
            ++tail;
            chain.push_back({tail, false});
            note(tail);
        }

        // Order-aware store elision (see pim_fusion.h). Only multi-op
        // chains elide: singleton chains execute through the unfused
        // command path, which always stores.
        if (chain.size() > 1) {
            for (size_t k = 0; k < chain.size(); ++k) {
                const size_t w = chain[k].op;
                const PimFusionOpView &o = ops[w];
                if (o.is_reduce || o.dest < 0)
                    continue;
                // The next window command overwriting dest (if any).
                size_t p = n;
                for (size_t j = w + 1; j < n; ++j) {
                    if (ops[j].dest == o.dest) {
                        p = j;
                        break;
                    }
                }
                if (p == n && (born.find(o.dest) == born.end() ||
                               freed.find(o.dest) == freed.end()))
                    continue; // value live past the window
                // Readers in (w, p] — p included because a command
                // reads its operands before storing.
                const size_t limit = (p == n) ? n : p + 1;
                bool elide = true;
                if (o.is_load) {
                    // Every reader must be a later member of this
                    // chain (chains are contiguous, so readers up to
                    // the chain tail qualify automatically; any
                    // reader beyond it forces materialization).
                    const size_t chain_tail = chain.back().op;
                    for (size_t j = w + 1; j < limit && elide; ++j) {
                        if (ops[j].a != o.dest && ops[j].b != o.dest)
                            continue;
                        if (j > chain_tail)
                            elide = false;
                    }
                } else {
                    // Compute/fill: the only permitted reader is the
                    // chain's next compute member, which consumes the
                    // value as the flowing tile. The final compute
                    // store of a chain always materializes.
                    size_t succ = n;
                    for (size_t k2 = k + 1; k2 < chain.size(); ++k2) {
                        if (!ops[chain[k2].op].is_load) {
                            succ = chain[k2].op;
                            break;
                        }
                    }
                    if (succ == n)
                        continue;
                    for (size_t j = w + 1; j < limit && elide; ++j) {
                        if ((ops[j].a == o.dest || ops[j].b == o.dest) &&
                            j != succ)
                            elide = false;
                    }
                }
                chain[k].elide_store = elide;
            }
        }
        chains.push_back(std::move(chain));
        i = tail + 1;
    }
    return chains;
}

bool
PimFusionWindow::noteFree(PimObjId id)
{
    if (freed_.find(id) != freed_.end())
        return false; // double free: resolved by the flush + caller
    const bool written = std::any_of(
        ops_.begin(), ops_.end(),
        [id](const PimFusedOp &op) { return op.dest == id; });
    if (!written)
        return false;
    freed_.insert(id);
    deferred_frees_.push_back(id);
    return true;
}

bool
PimFusionWindow::touches(PimObjId id) const
{
    return std::any_of(ops_.begin(), ops_.end(),
                       [id](const PimFusedOp &op) {
                           return op.a == id || op.b == id ||
                               op.dest == id;
                       });
}

std::vector<PimFusionChain>
PimFusionWindow::plan() const
{
    std::vector<PimFusionOpView> views;
    views.reserve(ops_.size());
    for (const PimFusedOp &op : ops_)
        views.push_back({op.a, op.b, op.dest, op.is_reduce,
                         op.is_fill, op.is_load});
    return pimPlanFusionChains(views, born_, freed_);
}

void
PimFusionWindow::clear()
{
    ops_.clear();
    snapshots_.clear();
    deferred_frees_.clear();
    // unordered_set::clear zeroes the whole bucket array even when the
    // set holds nothing, and an idle window is flushed before every
    // ranged copy, D2H, D2D, element shift and ranged reduction: skip
    // the sets that are already empty. A non-empty born set still
    // clears, because even an empty flush is a write barrier.
    if (!born_.empty())
        born_.clear();
    if (!freed_.empty())
        freed_.clear();
}

PimFusedTape
pimBuildFusedTape(const std::vector<PimFusedOp> &ops,
                  const PimFusionChain &chain)
{
    PimFusedTape tape;
    tape.steps.reserve(chain.size());
    tape.n = ops[chain.front().op].n;

    // Latest in-chain writer per object id: consumers resolve their
    // operands against it. An elided compute/fill flows through the
    // tile (the elision rule guarantees its consumer is the very next
    // compute step); an elided load supplies the host snapshot; a
    // materialized writer supplies plain memory (already stored
    // earlier in the same tile pass).
    struct Writer
    {
        size_t op = 0; ///< window index into @p ops
        bool elided = false;
        bool is_load = false;
    };
    std::unordered_map<PimObjId, Writer> writers;

    const auto resolve =
        [&](PimObjId id, const uint64_t *mem, const uint64_t *&slot,
            bool &is_prev, const uint8_t *&host,
            PimHostToDeviceChunkFn &load_kern, unsigned &stride,
            uint64_t &load_mask) {
            slot = mem;
            const auto it = writers.find(id);
            if (it == writers.end() || !it->second.elided)
                return;
            const PimFusedOp &w = ops[it->second.op];
            if (it->second.is_load) {
                slot = nullptr;
                host = w.host;
                load_kern = w.load_kern;
                stride = w.host_stride;
                load_mask = w.dmask;
            } else {
                slot = nullptr;
                is_prev = true;
            }
        };

    for (size_t k = 0; k < chain.size(); ++k) {
        const PimFusedOp &op = ops[chain[k].op];
        if (op.is_reduce) {
            // Reduction terminator: no elementwise step — the tape
            // accumulates the flowing value. The planner guarantees
            // the reduce is the last chain member and reads the flow.
            tape.has_reduce = true;
            tape.red_sgn = op.sgn;
            tape.red_bits = op.bits;
            break;
        }
        if (op.is_load) {
            if (chain[k].elide_store) {
                // Never materialized: consumers read tile slices
                // straight from the snapshot.
                writers[op.dest] = {chain[k].op, true, true};
                continue;
            }
            PimFusedTapeStep st;
            st.is_load = true;
            st.host_a = op.host;
            st.load_a = op.load_kern;
            st.host_stride_a = op.host_stride;
            st.bits = op.bits;
            st.mask = op.dmask;
            st.store = op.pd;
            tape.steps.push_back(st);
            writers[op.dest] = {chain[k].op, false, true};
            continue;
        }
        PimFusedTapeStep st;
        st.kern2 = op.kern2;
        st.kern1 = op.kern1;
        st.kern_sa = op.kern_sa;
        if (!op.is_fill) {
            resolve(op.a, op.pa, st.a, st.a_is_prev, st.host_a,
                    st.load_a, st.host_stride_a, st.load_mask_a);
            if (op.b >= 0)
                resolve(op.b, op.pb, st.b, st.b_is_prev, st.host_b,
                        st.load_b, st.host_stride_b, st.load_mask_b);
        }
        if (st.kern_sa && st.host_a && !st.host_b)
            st.kern_hsa =
                hostScaledAddFor(st.host_stride_a, op.sgn, op.bits,
                                 op.dmask, st.load_mask_a);
        st.scalar = op.scalar;
        st.bits = op.bits;
        st.mask = op.dmask;
        st.store = chain[k].elide_store ? nullptr : op.pd;
        st.is_fill = op.is_fill;
        st.op = op.op;
        st.op_exact = op.op_exact;
        st.sgn = op.sgn;
        tape.steps.push_back(st);
        writers[op.dest] = {chain[k].op, chain[k].elide_store, false};
    }

    // Scalar folding: an elided broadcast fill whose consumer is a
    // plain binary op with the fill on the right-hand side collapses
    // into the consumer as a scalar immediate — scalarChunk computes
    // op(a[i], s) & mask, bit-identical to binaryChunk with b[i] == s
    // for every i (op_exact excludes the negated-kernel kNE capture).
    if (tape.steps.size() >= 2 && tape.steps[0].is_fill &&
        tape.steps[0].store == nullptr) {
        const PimFusedTapeStep &c = tape.steps[1];
        if (c.kern2 && c.op_exact && c.b_is_prev && !c.a_is_prev) {
            PimFusedTapeStep folded = c;
            folded.kern2 = nullptr;
            folded.kern1 = scalarChunkFor(c.op, c.sgn);
            folded.scalar = tape.steps[0].scalar;
            folded.b = nullptr;
            folded.b_is_prev = false;
            tape.steps.erase(tape.steps.begin());
            tape.steps[0] = folded;
            ++tape.folded_fills;
        }
    }

    return tape;
}

uint64_t
PimFusedTape::run(size_t lo, size_t hi) const
{
    // Tile interpreter: evaluate the whole tape over one L1-resident
    // tile before moving on, so intermediates live in cache (or in
    // the stack tile when elided) instead of streaming through memory
    // once per command. A reduction terminator accumulates the tile's
    // flowing value while it is still cache-hot.
    uint64_t part = 0;
    alignas(64) uint64_t tile[kFusionTileWords];
    alignas(64) uint64_t load_a[kFusionTileWords];
    alignas(64) uint64_t load_b[kFusionTileWords];
    for (size_t base = lo; base < hi; base += kFusionTileWords) {
        const size_t cnt = std::min(kFusionTileWords, hi - base);
        const uint64_t *prev = nullptr;
        for (const PimFusedTapeStep &st : steps) {
            if (st.is_load) {
                // Standalone materialized load: convert the host tile
                // slice into device storage. Does not touch the flow.
                st.load_a(st.host_a + base * st.host_stride_a,
                          st.store + base, 0, cnt, st.mask);
                continue;
            }
            uint64_t *out = st.store ? st.store + base : tile;
            if (st.is_fill) {
                std::fill(out, out + cnt, st.scalar);
                prev = out;
                continue;
            }
            if (st.kern_hsa) {
                // Host-source scaledAdd: convert-and-compute in one
                // pass, no scratch tile.
                const uint64_t *b =
                    st.b_is_prev ? prev : st.b + base;
                st.kern_hsa(st.host_a + base * st.host_stride_a, b,
                            st.scalar, out, cnt, st.bits, st.mask,
                            st.load_mask_a);
                prev = out;
                continue;
            }
            const uint64_t *a;
            if (st.host_a) {
                // Host-source operand: the producing copy was elided,
                // so the tile slice converts straight from the
                // snapshot into a scratch tile.
                st.load_a(st.host_a + base * st.host_stride_a, load_a,
                          0, cnt, st.load_mask_a);
                a = load_a;
            } else {
                a = st.a_is_prev ? prev : st.a + base;
            }
            if (st.kern2 || st.kern_sa) {
                const uint64_t *b;
                if (st.host_b) {
                    st.load_b(st.host_b + base * st.host_stride_b,
                              load_b, 0, cnt, st.load_mask_b);
                    b = load_b;
                } else {
                    b = st.b_is_prev ? prev : st.b + base;
                }
                if (st.kern2)
                    st.kern2(a, b, out, 0, cnt, st.bits, st.mask);
                else
                    st.kern_sa(a, b, st.scalar, out, 0, cnt, st.bits,
                               st.mask);
            } else {
                st.kern1(a, st.scalar, out, 0, cnt, st.bits, st.mask);
            }
            prev = out;
        }
        if (has_reduce) {
            if (red_sgn) {
                for (size_t i = 0; i < cnt; ++i)
                    part += static_cast<uint64_t>(
                        alpuSignExtend(prev[i], red_bits));
            } else {
                for (size_t i = 0; i < cnt; ++i)
                    part += prev[i];
            }
        }
    }
    return part;
}

} // namespace pimeval
