/**
 * @file
 * ThreadPool tests: chunked parallel-for coverage, inline fallbacks,
 * nested invocation from worker threads (the case that used to
 * deadlock a fully busy pool), reduction equivalence, concurrent
 * callers sharing one pool, and a dispatch-completion stress test.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <thread>
#include <vector>

#include "util/prng.h"
#include "util/thread_pool.h"

using namespace pimeval;

TEST(ThreadPool, EmptyRangeNeverCallsBody)
{
    ThreadPool pool(3);
    std::atomic<int> calls{0};
    pool.parallelForChunks(5, 5, [&](size_t, size_t) { ++calls; });
    pool.parallelForChunks(7, 3, [&](size_t, size_t) { ++calls; });
    pool.parallelForChunks(0, 0, [&](size_t, size_t) { ++calls; });
    EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPool, SingleElementRange)
{
    ThreadPool pool(3);
    std::atomic<int> calls{0};
    size_t seen_lo = 99, seen_hi = 99;
    pool.parallelForChunks(0, 1, [&](size_t lo, size_t hi) {
        ++calls;
        seen_lo = lo;
        seen_hi = hi;
    });
    EXPECT_EQ(calls.load(), 1);
    EXPECT_EQ(seen_lo, 0u);
    EXPECT_EQ(seen_hi, 1u);
}

TEST(ThreadPool, RangeSmallerThanWorkerCount)
{
    ThreadPool pool(8);
    std::vector<std::atomic<int>> hits(3);
    pool.parallelForChunks(0, 3, [&](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i)
            ++hits[i];
    });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, LargeRangeCoveredExactlyOnce)
{
    ThreadPool pool(4);
    constexpr size_t kN = 100000;
    std::atomic<uint64_t> count{0};
    std::atomic<uint64_t> index_sum{0};
    pool.parallelForChunks(0, kN, [&](size_t lo, size_t hi) {
        uint64_t local_sum = 0;
        for (size_t i = lo; i < hi; ++i)
            local_sum += i;
        count.fetch_add(hi - lo, std::memory_order_relaxed);
        index_sum.fetch_add(local_sum, std::memory_order_relaxed);
    });
    EXPECT_EQ(count.load(), kN);
    EXPECT_EQ(index_sum.load(), kN * (kN - 1) / 2);
}

TEST(ThreadPool, OffsetRangeCoveredExactlyOnce)
{
    ThreadPool pool(4);
    constexpr size_t kBegin = 12345, kEnd = 54321;
    std::vector<std::atomic<uint8_t>> hits(kEnd - kBegin);
    pool.parallelForChunks(kBegin, kEnd, [&](size_t lo, size_t hi) {
        ASSERT_GE(lo, kBegin);
        ASSERT_LE(hi, kEnd);
        for (size_t i = lo; i < hi; ++i)
            ++hits[i - kBegin];
    });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, NestedInvocationRunsInlineWithoutDeadlock)
{
    // Outer chunks run on worker threads (and the caller); each chunk
    // issues an inner parallel-for large enough that it would normally
    // fan out. On workers it must run inline — a fully busy pool that
    // re-enqueues would deadlock here.
    ThreadPool pool(4);
    constexpr size_t kOuter = 16384;
    constexpr size_t kInner = 4096;
    std::atomic<uint64_t> outer_total{0};
    std::atomic<uint64_t> outer_calls{0};
    std::atomic<uint64_t> inner_total{0};
    pool.parallelForChunks(0, kOuter, [&](size_t lo, size_t hi) {
        outer_total.fetch_add(hi - lo, std::memory_order_relaxed);
        outer_calls.fetch_add(1, std::memory_order_relaxed);
        pool.parallelForChunks(0, kInner, [&](size_t ilo, size_t ihi) {
            inner_total.fetch_add(ihi - ilo,
                                  std::memory_order_relaxed);
        });
    });
    EXPECT_EQ(outer_total.load(), kOuter);
    EXPECT_EQ(inner_total.load(), outer_calls.load() * kInner);
}

TEST(ThreadPool, ChunkedReductionMatchesSequential)
{
    ThreadPool pool(4);
    constexpr size_t kN = 65536;
    std::vector<int64_t> data(kN);
    Prng rng(7);
    for (auto &v : data)
        v = static_cast<int32_t>(rng.next());

    const int64_t expect =
        std::accumulate(data.begin(), data.end(), int64_t{0});

    std::atomic<int64_t> total{0};
    pool.parallelForChunks(0, kN, [&](size_t lo, size_t hi) {
        int64_t part = 0;
        for (size_t i = lo; i < hi; ++i)
            part += data[i];
        total.fetch_add(part, std::memory_order_relaxed);
    });
    EXPECT_EQ(total.load(), expect);
}

TEST(ThreadPool, ConcurrentCallersShareOnePool)
{
    ThreadPool pool(4);
    constexpr size_t kN = 50000;
    constexpr int kCallers = 3;
    std::vector<std::vector<std::atomic<uint8_t>>> hits(kCallers);
    for (auto &v : hits)
        v = std::vector<std::atomic<uint8_t>>(kN);

    std::vector<std::thread> callers;
    for (int t = 0; t < kCallers; ++t) {
        callers.emplace_back([&, t] {
            pool.parallelForChunks(0, kN, [&, t](size_t lo, size_t hi) {
                for (size_t i = lo; i < hi; ++i)
                    ++hits[t][i];
            });
        });
    }
    for (auto &caller : callers)
        caller.join();
    for (const auto &v : hits)
        for (const auto &h : v)
            EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ConcurrentShortDispatchesStress)
{
    // Regression: a helper used to decrement the live-helper count and
    // only then lock the caller's stack-local completion mutex, so a
    // caller that saw zero could return and reuse that frame while
    // the helper was still locking and notifying it. Thousands of
    // back-to-back minimum-size dispatches from several callers hit
    // that window: ThreadSanitizer flags it on every run, and plain
    // builds under host contention aborted in pthread_mutex_lock.
    ThreadPool pool(3);
    constexpr int kCallers = 4;
    constexpr int kDispatches = 2000;
    constexpr size_t kN = 2048; // smallest range that fans out
    std::atomic<uint64_t> total{0};
    std::vector<std::thread> callers;
    for (int t = 0; t < kCallers; ++t) {
        callers.emplace_back([&] {
            for (int i = 0; i < kDispatches; ++i) {
                pool.parallelForChunks(0, kN, [&](size_t lo, size_t hi) {
                    total.fetch_add(hi - lo, std::memory_order_relaxed);
                });
            }
        });
    }
    for (auto &caller : callers)
        caller.join();
    EXPECT_EQ(total.load(), uint64_t{kCallers} * kDispatches * kN);
}

TEST(ThreadPool, InWorkerThreadDetection)
{
    ThreadPool pool(2);
    EXPECT_FALSE(pool.inWorkerThread());
    std::atomic<int> worker_hits{0};
    // Large enough to fan out; every worker-executed chunk must see
    // inWorkerThread() true, the caller's chunks false.
    pool.parallelForChunks(0, 100000, [&](size_t, size_t) {
        if (pool.inWorkerThread())
            worker_hits.fetch_add(1, std::memory_order_relaxed);
    });
    // Another pool's workers are not this pool's workers.
    ThreadPool other(2);
    other.parallelForChunks(0, 100000, [&](size_t, size_t) {
        EXPECT_FALSE(pool.inWorkerThread());
    });
    (void)worker_hits;
}
