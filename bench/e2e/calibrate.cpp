/**
 * @file
 * Host-speed calibration: a fixed kernel whose time tracks how fast the
 * shared host is running this process right now.
 *
 * On the virtual machine this benchmark was built on, the simulator ran
 * up to ~1.8x slower for seconds to minutes at a time while other
 * tenants loaded the host, with its CPU time tracking its wall time
 * (so not preemption). Tight loops and memory-chasing probes barely
 * moved when it did; a kernel that, like the simulator, jumps through
 * many small branchy functions moved with it. Dividing an op's time by
 * this kernel's time, measured between ops in the same process and on
 * the same CPU, cancels most of that drift.
 *
 * The kernel is benchmark code and must stay frozen: changing it
 * rescales every normalised latency.
 */

#include <sched.h>

#include <array>
#include <utility>

#include "e2e.h"

namespace e2e {

namespace {

/** One of kFunctions distinct small functions: a data-dependent branch
 *  and a four-way switch, so calls through the table stress the
 *  instruction cache and branch predictors, not just the ALUs. */
template <int N>
__attribute__((noinline)) uint64_t
step(uint64_t x)
{
    if (x & (1ull << (N % 13)))
        x = x * (2 * N + 1) + (N ^ 0x55);
    else
        x = (x >> (N % 7 + 1)) ^ (x * 0x9e3779b97f4a7c15ull + N);
    switch ((x >> 3) & 3) {
    case 0:
        x += N;
        break;
    case 1:
        x ^= static_cast<uint64_t>(N) << 5;
        break;
    case 2:
        x -= static_cast<uint64_t>(N) * 3;
        break;
    default:
        x = ~x + N;
        break;
    }
    return x;
}

constexpr size_t kFunctions = 2048;
/** Calls per sample: ~35 ms on the build machine when its host is
 *  quiet. */
constexpr int kCalls = 1000000;

template <size_t... I>
constexpr auto
stepTable(std::index_sequence<I...>)
{
    return std::array<uint64_t (*)(uint64_t), sizeof...(I)>{
        &step<static_cast<int>(I)>...};
}

const auto kSteps = stepTable(std::make_index_sequence<kFunctions>{});

} // namespace

void
HostSpeed::sample()
{
    uint64_t x = 1;
    uint64_t s = state_;
    const uint64_t t0 = nowNs();
    for (int i = 0; i < kCalls; ++i) {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        x = kSteps[s % kFunctions](x ^ s);
    }
    ms_.push_back(static_cast<double>(nowNs() - t0) / 1e6);
    state_ = s ^ x;
}

double
HostSpeed::scaleNow(int n)
{
    std::vector<double> now;
    for (int i = 0; i < n; ++i) {
        sample();
        now.push_back(ms_.back());
    }
    return kReferenceMs / median(now);
}

double
HostSpeed::medianMs() const
{
    return median(ms_);
}

double
HostSpeed::normalise(double ms) const
{
    return ms_.empty() ? ms : ms * kReferenceMs / medianMs();
}

void
pinToCurrentCpu()
{
    const int cpu = sched_getcpu();
    if (cpu < 0)
        return;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    sched_setaffinity(0, sizeof set, &set);
}

} // namespace e2e
