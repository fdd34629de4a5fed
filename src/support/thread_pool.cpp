#include "support/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>

#if defined(__linux__)
#include <pthread.h>
#endif

#include "support/string_util.h"

namespace pom::support {

namespace {

constexpr int kMaxJobs = 256;

int
clampJobs(std::int64_t n)
{
    return static_cast<int>(
        std::clamp<std::int64_t>(n, 1, kMaxJobs));
}

int
environmentJobs()
{
    if (const char *env = std::getenv("POM_JOBS")) {
        std::int64_t v = 0;
        if (parseInt64(env, v) && v > 0)
            return clampJobs(v);
    }
    unsigned hw = std::thread::hardware_concurrency();
    return clampJobs(hw == 0 ? 1 : static_cast<std::int64_t>(hw));
}

std::atomic<int> g_jobs{0}; // 0 = unset, fall back to the environment

/** Name the calling thread at the OS level (15-char pthread limit). */
void
nameCurrentThread(const std::string &name)
{
#if defined(__linux__)
    pthread_setname_np(pthread_self(), name.substr(0, 15).c_str());
#else
    (void)name;
#endif
}

} // namespace

int
jobs()
{
    int v = g_jobs.load(std::memory_order_relaxed);
    return v > 0 ? v : environmentJobs();
}

void
setJobs(int n)
{
    g_jobs.store(n > 0 ? clampJobs(n) : 0, std::memory_order_relaxed);
}

ThreadPool::ThreadPool(int workers, const std::string &name)
{
    int n = clampJobs(workers);
    threads_.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
        std::string threadName = name + "-" + std::to_string(i);
        threads_.emplace_back([this, threadName]() {
            nameCurrentThread(threadName);
            workerLoop();
        });
    }
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    wake_.notify_all();
    for (auto &t : threads_)
        t.join();
}

std::uint64_t
ThreadPool::tasksExecuted() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return executed_;
}

bool
ThreadPool::isWorkerThread() const
{
    std::thread::id self = std::this_thread::get_id();
    for (const auto &t : threads_) {
        if (t.get_id() == self)
            return true;
    }
    return false;
}

void
ThreadPool::post(std::function<void()> task)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        queue_.push_back(std::move(task));
    }
    wake_.notify_one();
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            wake_.wait(lock,
                       [this]() { return stopping_ || !queue_.empty(); });
            if (queue_.empty())
                return; // stopping and drained
            task = std::move(queue_.front());
            queue_.pop_front();
            // Count at dequeue: the packaged_task makes its future
            // ready inside task(), so a caller that reads the count
            // right after future.get() must already see this task.
            ++executed_;
        }
        task(); // packaged_task captures exceptions in its future
    }
}

ThreadPool &
ThreadPool::global()
{
    static ThreadPool *pool = new ThreadPool(jobs());
    return *pool;
}

ThreadPool *
parallelPool()
{
    return jobs() <= 1 ? nullptr : &ThreadPool::global();
}

} // namespace pom::support
