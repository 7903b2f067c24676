/** @file Tests for the worker pool behind the parallel bench harness. */

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdlib>
#include <mutex>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/env.hh"
#include "util/thread_pool.hh"

using namespace pgss;

TEST(ThreadPool, RunsEverySubmittedTask)
{
    util::ThreadPool pool(4);
    EXPECT_EQ(pool.workerCount(), 4u);
    std::atomic<int> count{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&count] { count.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, WaitIsReusable)
{
    util::ThreadPool pool(2);
    std::atomic<int> count{0};
    pool.submit([&count] { count.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(count.load(), 1);
    pool.submit([&count] { count.fetch_add(1); });
    pool.submit([&count] { count.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(count.load(), 3);
}

TEST(ThreadPool, DestructorDrainsQueue)
{
    std::atomic<int> count{0};
    {
        util::ThreadPool pool(3);
        for (int i = 0; i < 50; ++i)
            pool.submit([&count] { count.fetch_add(1); });
        // no wait(): the destructor must finish the queue first
    }
    EXPECT_EQ(count.load(), 50);
}

namespace
{

/**
 * Names of the threads that ran @p workers tasks submitted through
 * @p submit, each task held until all have started so every worker
 * takes exactly one.
 */
template <typename Submit>
std::set<std::string>
workerNames(std::size_t workers, Submit submit)
{
    std::atomic<std::size_t> started{0};
    std::mutex mtx;
    std::set<std::string> names;
    submit([&](std::size_t) {
        started.fetch_add(1);
        const auto give_up =
            std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (started.load() < workers &&
               std::chrono::steady_clock::now() < give_up)
            std::this_thread::yield();
        std::lock_guard<std::mutex> lock(mtx);
        names.insert(util::currentThreadName());
    });
    return names;
}

} // namespace

TEST(ThreadPool, WorkersCarryTheirPoolsPrefix)
{
    const auto via_pool = [](const char *prefix) {
        return workerNames(2, [prefix](auto task) {
            util::ThreadPool pool(2, prefix);
            pool.submit([task] { task(0); });
            pool.submit([task] { task(1); });
            pool.wait();
        });
    };
    EXPECT_EQ(via_pool("load"),
              (std::set<std::string>{"load-0", "load-1"}));
    EXPECT_EQ(via_pool("entry"),
              (std::set<std::string>{"entry-0", "entry-1"}));

    // The default keeps the historical name.
    const auto plain = workerNames(1, [](auto task) {
        util::ThreadPool pool(1);
        pool.submit([task] { task(0); });
        pool.wait();
    });
    EXPECT_EQ(plain, (std::set<std::string>{"pool-0"}));
}

TEST(ParallelFor, WorkersCarryTheGivenPrefix)
{
    const auto names = workerNames(3, [](auto task) {
        util::parallelFor(3, 3, task, "load");
    });
    EXPECT_EQ(names,
              (std::set<std::string>{"load-0", "load-1", "load-2"}));
}

TEST(ThreadPool, ZeroWorkersClampsToOne)
{
    util::ThreadPool pool(0);
    EXPECT_EQ(pool.workerCount(), 1u);
    std::atomic<int> count{0};
    pool.submit([&count] { count.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(count.load(), 1);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce)
{
    for (const std::size_t jobs : {std::size_t{1}, std::size_t{2},
                                   std::size_t{4}, std::size_t{16}}) {
        const std::size_t n = 257;
        std::vector<std::atomic<int>> hits(n);
        util::parallelFor(n, jobs, [&hits](std::size_t i) {
            hits[i].fetch_add(1);
        });
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_EQ(hits[i].load(), 1)
                << "index " << i << " jobs " << jobs;
    }
}

TEST(ParallelFor, SingleJobRunsInOrderInline)
{
    // jobs <= 1 must run on the calling thread in index order — the
    // serial bench path depends on this.
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<std::size_t> order;
    util::parallelFor(10, 1, [&](std::size_t i) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        order.push_back(i);
    });
    std::vector<std::size_t> expected(10);
    std::iota(expected.begin(), expected.end(), std::size_t{0});
    EXPECT_EQ(order, expected);
}

TEST(ParallelFor, MoreJobsThanItemsIsFine)
{
    std::vector<std::atomic<int>> hits(3);
    util::parallelFor(3, 64, [&hits](std::size_t i) {
        hits[i].fetch_add(1);
    });
    for (std::size_t i = 0; i < 3; ++i)
        EXPECT_EQ(hits[i].load(), 1);
}

TEST(ParallelFor, ZeroItemsIsANoOp)
{
    bool called = false;
    util::parallelFor(0, 8, [&called](std::size_t) { called = true; });
    EXPECT_FALSE(called);
}

TEST(ParallelFor, IndexedSlotsGiveDeterministicResults)
{
    // The harness idiom: workers fill disjoint slots, the caller
    // reduces serially afterwards. Any jobs count must give the same
    // answer as jobs=1.
    const std::size_t n = 100;
    auto run = [n](std::size_t jobs) {
        std::vector<std::uint64_t> slot(n, 0);
        util::parallelFor(n, jobs, [&slot](std::size_t i) {
            slot[i] = i * i + 1;
        });
        std::uint64_t sum = 0;
        for (std::uint64_t v : slot)
            sum += v;
        return sum;
    };
    const std::uint64_t serial = run(1);
    EXPECT_EQ(run(4), serial);
    EXPECT_EQ(run(16), serial);
}

TEST(JobCount, DefaultsToSerial)
{
    // Without PGSS_JOBS the harness must stay serial; the test env
    // does not set it.
    if (std::getenv("PGSS_JOBS") == nullptr)
        EXPECT_EQ(util::jobCount(), 1u);
    else
        EXPECT_GE(util::jobCount(), 1u);
}
