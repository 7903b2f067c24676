/**
 * @file
 * A small fixed-size worker pool for host-side parallelism: the bench
 * harness uses it to simulate independent workloads concurrently
 * (bench::runEntriesParallel, PGSS_JOBS). Deliberately minimal — no
 * futures, no work stealing: submit closures, then wait() for the
 * queue to drain. Determinism is the caller's job; the idiom is to
 * compute into pre-sized, index-addressed slots and emit serially
 * after wait() so output is identical to a serial run.
 *
 * A pool of size 1 runs tasks on the single worker thread in
 * submission order, which is the PGSS_JOBS=1 default; parallelism is
 * opt-in.
 */

#ifndef PGSS_UTIL_THREAD_POOL_HH
#define PGSS_UTIL_THREAD_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace pgss::util
{

/**
 * Name the calling thread for diagnostics (span profiler tracks,
 * log prefixes). ThreadPool names its workers "<prefix>-<i>"; the
 * initial thread defaults to "main". Names are thread-local and
 * carry no synchronization cost for readers on the same thread.
 */
void setCurrentThreadName(const std::string &name);

/** The calling thread's name ("main" when never set). */
const std::string &currentThreadName();

/** Fixed set of workers draining one task queue. */
class ThreadPool
{
  public:
    /**
     * Start @p workers threads (clamped to at least 1), named
     * "<name_prefix>-<i>" so distinct pools show as distinct tracks
     * in a profile.
     */
    explicit ThreadPool(std::size_t workers,
                        const std::string &name_prefix = "pool");

    /** Waits for all submitted tasks, then joins the workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Queue @p task; it runs on some worker, FIFO dispatch. */
    void submit(std::function<void()> task);

    /** Block until every submitted task has finished. */
    void wait();

    std::size_t workerCount() const { return workers_.size(); }

  private:
    void workerLoop();

    std::mutex mutex_;
    std::condition_variable work_ready_;
    std::condition_variable all_done_;
    std::deque<std::function<void()>> queue_;
    std::size_t in_flight_ = 0; ///< queued + currently running
    bool stopping_ = false;
    std::vector<std::thread> workers_;
};

/**
 * Run @p body(i) for every i in [0, n), spread over @p jobs workers
 * (at most n) named "<name_prefix>-<i>". jobs <= 1 runs inline on the
 * calling thread, in order, with no pool at all. @p body must be safe
 * to call concurrently for distinct i when jobs > 1.
 */
void parallelFor(std::size_t n, std::size_t jobs,
                 const std::function<void(std::size_t)> &body,
                 const std::string &name_prefix = "pool");

} // namespace pgss::util

#endif // PGSS_UTIL_THREAD_POOL_HH
