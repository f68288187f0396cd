/**
 * @file
 * Job validation, costing, and the one job executor.
 *
 * serve_detail::runJobs runs a batch of same-shape jobs as one
 * concatenated execution: every operand is one object of n x B
 * elements, each job's buffers move through ranged copies of its
 * slice, and one command covers all B jobs. pimJobRunDirect is a batch
 * of one, and every server dispatch, alone or coalesced, calls
 * runJobs. A batch of one issues exactly the commands a hand-written
 * direct job would: a [0, n) ranged copy or reduction on an n-element
 * object takes the device's full-object path.
 */

#include "serve/pim_job.h"

#include <algorithm>
#include <vector>

#include "core/pim_api.h"
#include "core/pim_error.h"
#include "serve/serve_internal.h"

namespace pimeval {

uint64_t
pimJobCostElems(const PimJobSpec &spec)
{
    if (spec.kind == PimJobKind::kGemv)
        return spec.n * spec.cols;
    return spec.n;
}

bool
pimJobValidate(const PimJobSpec &spec, std::string *why)
{
    const auto reject = [why](const char *reason) {
        if (why)
            *why = reason;
        return false;
    };
    if (spec.kind < PimJobKind::kVecAdd || spec.kind > PimJobKind::kGemv)
        return reject("unknown job kind");
    if (spec.n == 0)
        return reject("zero-element job");
    if (!spec.a || !spec.b)
        return reject("null operand pointer");
    if (spec.kind == PimJobKind::kGemv && spec.cols == 0)
        return reject("kGemv requires cols > 0");
    if (spec.tenant.empty())
        return reject("empty tenant id");
    return true;
}

namespace serve_detail {

namespace {

using Specs = std::span<const PimJobSpec *const>;
using Outs = std::span<PimJobOutput *const>;

/** Signed scalar bit-cast for the pimScaledAdd ABI. */
uint64_t
sext(int32_t v)
{
    return static_cast<uint64_t>(static_cast<int64_t>(v));
}

/**
 * A batch's int32 objects: ids[0] holds n x B elements and the rest
 * are associated with it. All are allocated before the batch's first
 * command, so a batch that does not fit has issued nothing. Freed
 * newest first.
 */
struct ObjGuard
{
    std::vector<PimObjId> ids;

    bool
    alloc(uint64_t elems, size_t count)
    {
        while (ids.size() < count) {
            const PimObjId id = ids.empty()
                ? pimAlloc(PimAllocEnum::PIM_ALLOC_AUTO, elems, 32,
                           PimDataType::PIM_INT32)
                : pimAllocAssociated(32, ids[0],
                                     PimDataType::PIM_INT32);
            if (id < 0)
                return false;
            ids.push_back(id);
        }
        return true;
    }

    void
    release()
    {
        for (auto it = ids.rbegin(); it != ids.rend(); ++it)
            pimFree(*it);
        ids.clear();
    }

    ~ObjGuard() { release(); }
};

/** Copy each job's n-element operand src(spec) into its slice of
 *  @p obj. */
template <typename Src>
PimStatus
copySlices(Specs specs, PimObjId obj, Src src)
{
    const uint64_t n = specs[0]->n;
    PimStatus status = PimStatus::PIM_OK;
    for (size_t i = 0; status == PimStatus::PIM_OK && i < specs.size();
         ++i)
        status = pimCopyHostToDevice(src(*specs[i]), obj, i * n,
                                     (i + 1) * n);
    return status;
}

/** Copy each job's slice of @p obj into its output values. */
PimStatus
copyOut(Specs specs, Outs outs, PimObjId obj)
{
    const uint64_t n = specs[0]->n;
    PimStatus status = PimStatus::PIM_OK;
    for (size_t i = 0; status == PimStatus::PIM_OK && i < outs.size();
         ++i) {
        outs[i]->values.assign(n, 0);
        status = pimCopyDeviceToHost(obj, outs[i]->values.data(), i * n,
                                     (i + 1) * n);
    }
    return status;
}

/** Upload the per-job multipliers coeff(spec) as one vector, each
 *  repeated over its job's slice, into @p obj. */
template <typename Coeff>
PimStatus
copyCoefficients(Specs specs, PimObjId obj, Coeff coeff)
{
    const uint64_t n = specs[0]->n;
    std::vector<int32_t> values(n * specs.size());
    for (size_t i = 0; i < specs.size(); ++i)
        std::fill_n(values.begin() + i * n, n, coeff(*specs[i]));
    return pimCopyHostToDevice(values.data(), obj);
}

// The executors below run with every object already allocated. When
// jobs differ in their scalar (kVecScaledAdd) or b (kGemv), the last
// two objects hold a coefficient vector and a product: a*s + b equals
// (a .* coeff) + b in wraparound int32, the same mul+add the device's
// scaledAdd performs.

PimStatus
runElementwise(Specs specs, Outs outs, const ObjGuard &g)
{
    const PimJobSpec &head = *specs[0];
    const PimObjId oa = g.ids[0], ob = g.ids[1], od = g.ids[2];
    const bool fused = pimGetFusionEnabled();
    if (fused)
        pimBeginFusion();
    PimStatus status =
        copySlices(specs, oa, [](const PimJobSpec &s) { return s.a; });
    if (status == PimStatus::PIM_OK)
        status = copySlices(specs, ob,
                            [](const PimJobSpec &s) { return s.b; });
    if (status == PimStatus::PIM_OK) {
        switch (head.kind) {
          case PimJobKind::kVecAdd:
            status = pimAdd(oa, ob, od);
            break;
          case PimJobKind::kVecMul:
            status = pimMul(oa, ob, od);
            break;
          default: // kVecScaledAdd
            if (g.ids.size() == 3) {
                status = pimScaledAdd(oa, ob, od, head.scalar);
                break;
            }
            status = copyCoefficients(specs, g.ids[3],
                                      [](const PimJobSpec &s) {
                return static_cast<int32_t>(
                    static_cast<uint32_t>(s.scalar));
            });
            if (status == PimStatus::PIM_OK)
                status = pimMul(oa, g.ids[3], g.ids[4]);
            if (status == PimStatus::PIM_OK)
                status = pimAdd(g.ids[4], ob, od);
            break;
        }
    }
    if (fused)
        pimEndFusion();
    if (status != PimStatus::PIM_OK)
        return status;
    return copyOut(specs, outs, od);
}

PimStatus
runDot(Specs specs, Outs outs, const ObjGuard &g)
{
    const uint64_t n = specs[0]->n;
    const PimObjId oa = g.ids[0], ob = g.ids[1], op = g.ids[2];
    const bool fused = pimGetFusionEnabled();
    if (fused)
        pimBeginFusion();
    PimStatus status =
        copySlices(specs, oa, [](const PimJobSpec &s) { return s.a; });
    if (status == PimStatus::PIM_OK)
        status = copySlices(specs, ob,
                            [](const PimJobSpec &s) { return s.b; });
    if (status == PimStatus::PIM_OK)
        status = pimMul(oa, ob, op);
    // Each job's products occupy its slice. A batch of one's [0, n)
    // sum is a full-object reduction, so it fuses with the mul.
    for (size_t i = 0; status == PimStatus::PIM_OK && i < outs.size();
         ++i)
        status = pimRedSumRanged(op, i * n, (i + 1) * n,
                                 &outs[i]->scalar);
    if (fused)
        pimEndFusion(); // deferred reduce results land here
    return status;
}

PimStatus
runGemv(Specs specs, Outs outs, const ObjGuard &g)
{
    const PimJobSpec &head = *specs[0];
    const PimObjId acc = g.ids[0], col = g.ids[1];
    const bool fused = pimGetFusionEnabled();
    if (fused)
        pimBeginFusion();
    PimStatus status = pimBroadcastInt(acc, 0);
    for (uint64_t j = 0; status == PimStatus::PIM_OK && j < head.cols;
         ++j) {
        status = copySlices(specs, col, [j](const PimJobSpec &s) {
            return s.a + j * s.n;
        });
        if (status != PimStatus::PIM_OK)
            break;
        if (g.ids.size() == 2) {
            status = pimScaledAdd(col, acc, acc, sext(head.b[j]));
            continue;
        }
        status = copyCoefficients(
            specs, g.ids[2], [j](const PimJobSpec &s) { return s.b[j]; });
        if (status == PimStatus::PIM_OK)
            status = pimMul(col, g.ids[2], g.ids[3]);
        if (status == PimStatus::PIM_OK)
            status = pimAdd(g.ids[3], acc, acc);
    }
    if (fused)
        pimEndFusion();
    if (status != PimStatus::PIM_OK)
        return status;
    return copyOut(specs, outs, acc);
}

} // namespace

PimStatus
runJobs(Specs specs, Outs outs)
{
    const PimJobSpec &head = *specs[0];
    bool coefficients = false;
    for (const PimJobSpec *s : specs) {
        if (head.kind == PimJobKind::kVecScaledAdd)
            coefficients |= s->scalar != head.scalar;
        else if (head.kind == PimJobKind::kGemv)
            coefficients |= !std::equal(s->b, s->b + head.cols, head.b);
    }
    const size_t base = head.kind == PimJobKind::kGemv ? 2 : 3;
    ObjGuard g;
    if (!g.alloc(head.n * specs.size(), base + (coefficients ? 2 : 0))) {
        if (specs.size() == 1)
            return PimStatus::PIM_ERROR; // pimAlloc set the last error
        // Too big for the device: run each half on its own.
        g.release();
        const size_t half = specs.size() / 2;
        const PimStatus status =
            runJobs(specs.first(half), outs.first(half));
        if (status != PimStatus::PIM_OK)
            return status;
        return runJobs(specs.subspan(half), outs.subspan(half));
    }
    switch (head.kind) {
      case PimJobKind::kDot:
        return runDot(specs, outs, g);
      case PimJobKind::kGemv:
        return runGemv(specs, outs, g);
      default:
        return runElementwise(specs, outs, g);
    }
}

} // namespace serve_detail

PimStatus
pimJobRunDirect(const PimJobSpec &spec, PimJobOutput *out)
{
    if (!out)
        return fail("pimJobRunDirect: null output");
    std::string why;
    if (!pimJobValidate(spec, &why))
        return fail("pimJobRunDirect: " + why);
    const PimJobSpec *specs[] = {&spec};
    PimJobOutput *outs[] = {out};
    return serve_detail::runJobs(specs, outs);
}

} // namespace pimeval
