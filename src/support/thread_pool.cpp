#include "support/thread_pool.h"

#include <algorithm>

#if defined(__linux__)
#include <pthread.h>
#endif

namespace pom::support {

namespace {

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

ThreadPool::ThreadPool(int workers, const std::string &name)
{
    int n = std::clamp(workers, 1, 256);
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

} // namespace pom::support
