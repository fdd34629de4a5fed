/**
 * @file
 * A small fixed-size thread pool: `pomd`'s request executors
 * (`--workers`). There is deliberately no work stealing and no task
 * priorities: submitters enqueue closures and workers drain them FIFO.
 *
 * A compile itself runs on its calling thread; nothing inside the
 * compiler fans out (DESIGN.md §9 gives the measurements).
 */

#ifndef POM_SUPPORT_THREAD_POOL_H
#define POM_SUPPORT_THREAD_POOL_H

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

namespace pom::support {

/** Fixed-count FIFO worker pool. */
class ThreadPool
{
  public:
    /**
     * Spawn @p workers threads (clamped to [1, 256]). Each worker gets
     * the OS-level thread name "<name>-<i>" (Linux; truncated to the
     * 15-char pthread limit) so debuggers, /proc and Chrome traces can
     * attribute work to its pool.
     */
    explicit ThreadPool(int workers, const std::string &name = "pom-wkr");

    /** Drains already-queued tasks, then joins all workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    int workerCount() const { return static_cast<int>(threads_.size()); }

    /**
     * Tasks taken for execution so far (tests / observability). A task
     * counts once a worker dequeues it, before its future can become
     * ready, so the count read after future.get() includes that task.
     */
    std::uint64_t tasksExecuted() const;

    /**
     * Enqueue a callable; the returned future carries its result (or
     * exception). Never call get()/wait() on it from a worker of the
     * same pool.
     */
    template <typename Fn>
    auto
    submit(Fn &&fn) -> std::future<std::invoke_result_t<Fn>>
    {
        using R = std::invoke_result_t<Fn>;
        auto task = std::make_shared<std::packaged_task<R()>>(
            std::forward<Fn>(fn));
        std::future<R> result = task->get_future();
        post([task]() { (*task)(); });
        return result;
    }

  private:
    void post(std::function<void()> task);
    void workerLoop();

    mutable std::mutex mutex_;
    std::condition_variable wake_;
    std::deque<std::function<void()>> queue_;
    std::vector<std::thread> threads_;
    std::uint64_t executed_ = 0;
    bool stopping_ = false;
};

} // namespace pom::support

#endif // POM_SUPPORT_THREAD_POOL_H
