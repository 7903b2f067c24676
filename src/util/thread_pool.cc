#include "util/thread_pool.hh"

#include <atomic>
#include <utility>

namespace pgss::util
{

namespace
{

thread_local std::string t_thread_name = "main";

} // anonymous namespace

void
setCurrentThreadName(const std::string &name)
{
    t_thread_name = name;
}

const std::string &
currentThreadName()
{
    return t_thread_name;
}

ThreadPool::ThreadPool(std::size_t workers,
                       const std::string &name_prefix)
{
    if (workers == 0)
        workers = 1;
    workers_.reserve(workers);
    for (std::size_t i = 0; i < workers; ++i)
        workers_.emplace_back([this, name = name_prefix + "-" +
                                            std::to_string(i)] {
            setCurrentThreadName(name);
            workerLoop();
        });
}

ThreadPool::~ThreadPool()
{
    wait();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    work_ready_.notify_all();
    for (std::thread &t : workers_)
        t.join();
}

void
ThreadPool::submit(std::function<void()> task)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        queue_.push_back(std::move(task));
        ++in_flight_;
    }
    work_ready_.notify_one();
}

void
ThreadPool::wait()
{
    std::unique_lock<std::mutex> lock(mutex_);
    all_done_.wait(lock, [this] { return in_flight_ == 0; });
}

void
ThreadPool::workerLoop()
{
    while (true) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            work_ready_.wait(lock, [this] {
                return stopping_ || !queue_.empty();
            });
            if (queue_.empty())
                return; // stopping_ with a drained queue
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        task();
        {
            std::lock_guard<std::mutex> lock(mutex_);
            --in_flight_;
        }
        all_done_.notify_all();
    }
}

void
parallelFor(std::size_t n, std::size_t jobs,
            const std::function<void(std::size_t)> &body,
            const std::string &name_prefix)
{
    if (n == 0)
        return;
    if (jobs > n)
        jobs = n;
    if (jobs <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            body(i);
        return;
    }
    // One shared index rather than static chunks: items have wildly
    // uneven cost (workload lengths differ by orders of magnitude),
    // so dynamic dispatch keeps all workers busy until the tail.
    std::atomic<std::size_t> next{0};
    ThreadPool pool(jobs, name_prefix);
    for (std::size_t w = 0; w < jobs; ++w) {
        pool.submit([&] {
            while (true) {
                const std::size_t i =
                    next.fetch_add(1, std::memory_order_relaxed);
                if (i >= n)
                    return;
                body(i);
            }
        });
    }
    pool.wait();
}

} // namespace pgss::util
