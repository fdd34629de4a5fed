/**
 * @file
 * A small fixed-size thread pool for the compiler's parallel hot paths
 * (the polytopes of one dependence analysis, the statements of one
 * lowering, and the per-workload bench sweeps). There is deliberately
 * no work stealing and no task priorities: submitters enqueue
 * closures, workers drain them FIFO, and determinism is the caller's
 * job -- results must be merged in submission order, never in
 * completion order.
 *
 * The process-wide worker count is resolved once from (in priority
 * order) setJobs(), the POM_JOBS environment variable, and
 * std::thread::hardware_concurrency(); `pomc --jobs N` feeds setJobs().
 * A value of 1 means "no worker threads": parallelPool() returns null
 * and every parallelFor() runs inline, so single-job runs stay
 * synchronous and easy to debug.
 *
 * Deadlock rule: a pool worker must never block on a future produced by
 * its own pool. parallelFor() checks isWorkerThread() and falls back to
 * inline execution, so nested parallel phases are always safe.
 */

#ifndef POM_SUPPORT_THREAD_POOL_H
#define POM_SUPPORT_THREAD_POOL_H

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

namespace pom::support {

/**
 * Effective worker count for parallel phases: the last setJobs() value
 * if any, else the POM_JOBS environment variable (clamped to [1, 256]),
 * else std::thread::hardware_concurrency() (at least 1).
 */
int jobs();

/** Override the worker count (0 resets to the environment default). */
void setJobs(int n);

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

    /** True when called from one of this pool's worker threads. */
    bool isWorkerThread() const;

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

    /**
     * The process-wide pool, lazily constructed with jobs() workers on
     * first use. Call setJobs() (or export POM_JOBS) before the first
     * parallel phase; later changes do not resize the live pool.
     */
    static ThreadPool &global();

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

/**
 * The pool parallel phases fan out on: ThreadPool::global(), or null
 * (run inline) when jobs() <= 1.
 */
ThreadPool *parallelPool();

/**
 * Run fn(0..n-1) across @p pool and wait for all of them; results are
 * deterministic because the caller indexes its own output storage. The
 * calling thread and up to workerCount() pool tasks take indices from
 * one shared counter. With a null pool, a single worker, n < 2, or a
 * caller that is itself one of the pool's workers, the loop runs
 * inline. Every task has finished before parallelFor returns or throws;
 * a failure rethrows the exception of the lowest failing index, as the
 * inline loop would.
 */
template <typename Fn>
void
parallelFor(ThreadPool *pool, std::size_t n, Fn &&fn)
{
    if (n < 2 || pool == nullptr || pool->workerCount() <= 1 ||
        pool->isWorkerThread()) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }
    std::atomic<std::size_t> next{0};
    std::vector<std::exception_ptr> errors(n);
    auto drain = [&]() {
        for (std::size_t i = next++; i < n; i = next++) {
            try {
                fn(i);
            } catch (...) {
                errors[i] = std::current_exception();
            }
        }
    };
    std::size_t helpers =
        std::min<std::size_t>(pool->workerCount(), n - 1);
    std::vector<std::future<void>> done;
    done.reserve(helpers);
    for (std::size_t h = 0; h < helpers; ++h)
        done.push_back(pool->submit(drain));
    drain();
    for (auto &f : done)
        f.wait();
    for (auto &e : errors) {
        if (e)
            std::rethrow_exception(e);
    }
}

} // namespace pom::support

#endif // POM_SUPPORT_THREAD_POOL_H
