/**
 * @file
 * Tests for the support::ThreadPool that runs pomd's request
 * executors: FIFO execution, future plumbing (results and exceptions),
 * graceful shutdown, and a concurrent stress case meant to run under
 * the sanitizer CI job.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "support/thread_pool.h"

namespace {

using pom::support::ThreadPool;

TEST(ThreadPool, RunsSubmittedTasks)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.workerCount(), 4);
    auto a = pool.submit([]() { return 2 + 2; });
    auto b = pool.submit([]() { return std::string("ok"); });
    EXPECT_EQ(a.get(), 4);
    EXPECT_EQ(b.get(), "ok");
    EXPECT_GE(pool.tasksExecuted(), 2u);
}

TEST(ThreadPool, PropagatesExceptions)
{
    ThreadPool pool(2);
    auto f = pool.submit(
        []() -> int { throw std::runtime_error("boom"); });
    EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, DrainsQueueOnDestruction)
{
    std::atomic<int> ran{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 64; ++i)
            pool.submit([&ran]() { ++ran; });
        // No get(): the destructor must still run every queued task.
    }
    EXPECT_EQ(ran.load(), 64);
}

TEST(ThreadPool, ConcurrentStress)
{
    // Many producers hammering one pool; meant for the TSan-less
    // ASan+UBSan CI job to shake out lifetime and queue races.
    ThreadPool pool(8);
    std::atomic<std::int64_t> sum{0};
    std::vector<std::thread> producers;
    for (int p = 0; p < 4; ++p) {
        producers.emplace_back([&pool, &sum, p]() {
            std::vector<std::future<int>> futs;
            for (int i = 0; i < 250; ++i) {
                futs.push_back(
                    pool.submit([p, i]() { return p * 1000 + i; }));
            }
            for (auto &f : futs)
                sum += f.get();
        });
    }
    for (auto &t : producers)
        t.join();
    // sum over p in 0..3, i in 0..249 of (1000p + i) = 1500000 + 124500
    EXPECT_EQ(sum.load(), 1624500);
    EXPECT_EQ(pool.tasksExecuted(), 1000u);
}

} // namespace
