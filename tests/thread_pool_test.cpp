/**
 * @file
 * Tests for the support::ThreadPool that backs the parallel dependence
 * analysis and lowering: job count resolution, FIFO execution, future
 * plumbing (results and exceptions), parallelFor's failure handling,
 * graceful shutdown, the worker-thread deadlock guard, and a concurrent
 * stress case meant to run under the sanitizer CI job.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "support/thread_pool.h"

namespace {

using pom::support::ThreadPool;
using pom::support::parallelFor;

/** RAII guard so job-count tests cannot leak into other tests. */
struct JobsGuard
{
    ~JobsGuard()
    {
        pom::support::setJobs(0);
        unsetenv("POM_JOBS");
    }
};

TEST(Jobs, SetJobsWinsOverEnvironment)
{
    JobsGuard guard;
    setenv("POM_JOBS", "3", 1);
    pom::support::setJobs(7);
    EXPECT_EQ(pom::support::jobs(), 7);
    pom::support::setJobs(0); // reset: fall back to the environment
    EXPECT_EQ(pom::support::jobs(), 3);
}

TEST(Jobs, EnvironmentIsClampedAndValidated)
{
    JobsGuard guard;
    pom::support::setJobs(0);
    setenv("POM_JOBS", "2", 1);
    EXPECT_EQ(pom::support::jobs(), 2);
    setenv("POM_JOBS", "100000", 1);
    EXPECT_EQ(pom::support::jobs(), 256); // clamped
    // Non-positive or garbage values fall back to hardware concurrency.
    for (const char *bad : {"0", "-4", "not-a-number"}) {
        setenv("POM_JOBS", bad, 1);
        EXPECT_GE(pom::support::jobs(), 1) << bad;
    }
    pom::support::setJobs(9999);
    EXPECT_EQ(pom::support::jobs(), 256); // setJobs clamps too
}

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

TEST(ThreadPool, IsWorkerThreadSeesOwnWorkersOnly)
{
    ThreadPool pool(2);
    ThreadPool other(1);
    EXPECT_FALSE(pool.isWorkerThread());
    auto inside = pool.submit([&pool]() { return pool.isWorkerThread(); });
    auto cross = pool.submit(
        [&other]() { return other.isWorkerThread(); });
    EXPECT_TRUE(inside.get());
    EXPECT_FALSE(cross.get());
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce)
{
    ThreadPool pool(4);
    std::vector<int> hits(1000, 0);
    parallelFor(&pool, hits.size(), [&hits](size_t i) { hits[i] += 1; });
    EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 1000);

    // Null pool: inline execution, same contract.
    std::vector<int> inline_hits(10, 0);
    parallelFor(nullptr, inline_hits.size(),
                [&inline_hits](size_t i) { inline_hits[i] += 1; });
    EXPECT_EQ(
        std::accumulate(inline_hits.begin(), inline_hits.end(), 0), 10);
}

TEST(ThreadPool, ParallelForWaitsForAllTasksBeforeRethrowing)
{
    // Declared before the pool, so a task still running when
    // parallelFor returns fails the count instead of outliving them.
    std::atomic<int> finished{0};
    auto body = [&finished](size_t i) {
        if (i == 0)
            throw std::runtime_error("index 0");
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        ++finished;
    };
    ThreadPool pool(4);
    try {
        parallelFor(&pool, 4, body);
        ADD_FAILURE() << "parallelFor swallowed the exception";
    } catch (const std::runtime_error &e) {
        EXPECT_EQ(std::string(e.what()), "index 0");
        EXPECT_EQ(finished.load(), 3) << "a sibling task was still running";
    }

    // Several failures: the lowest failing index wins, as inline.
    auto odd = [](size_t i) {
        if (i % 2 == 1)
            throw std::runtime_error("index " + std::to_string(i));
    };
    for (int round = 0; round < 20; ++round) {
        try {
            parallelFor(&pool, 64, odd);
            ADD_FAILURE() << "parallelFor swallowed the exception";
        } catch (const std::runtime_error &e) {
            EXPECT_EQ(std::string(e.what()), "index 1");
        }
    }
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
