/**
 * @file
 * obs/progress: the run-progress registry the telemetry endpoints
 * read. The registry under test is process-global, so tests index
 * into the snapshot by the handles they created rather than assuming
 * an empty table.
 */

#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/progress.hh"

using namespace pgss::obs;

namespace
{

const JobSnapshot &
row(const ProgressSnapshot &snap, const JobHandle *job)
{
    return snap.jobs.at(job->index());
}

TEST(Progress, BeginUpdateEndLifecycle)
{
    JobHandle *job = progress().begin("unit.lifecycle", 1000);
    job->addOps(250);
    job->addOps(250);
    job->addSample(0.10);
    job->setPhase(3, 7);

    ProgressSnapshot snap = progress().snapshot();
    const JobSnapshot &s = row(snap, job);
    EXPECT_EQ(s.name, "unit.lifecycle");
    EXPECT_EQ(s.state, JobState::Running);
    EXPECT_EQ(s.ops, 500u);
    EXPECT_EQ(s.expected_ops, 1000u);
    EXPECT_EQ(s.samples, 1u);
    EXPECT_EQ(s.phase, 3u);
    EXPECT_EQ(s.phases, 7u);
    EXPECT_DOUBLE_EQ(s.ci_rel, 0.10);
    EXPECT_GE(s.eta_seconds, 0.0); // halfway through, rate known

    progress().end(job);
    snap = progress().snapshot();
    EXPECT_EQ(row(snap, job).state, JobState::Done);
    EXPECT_LT(row(snap, job).eta_seconds, 0.0); // done: no ETA
}

TEST(Progress, ScopedJobBindsCurrentAndRestoresPrevious)
{
    EXPECT_EQ(currentJob(), nullptr);
    {
        ScopedJob outer("unit.outer");
        EXPECT_EQ(currentJob(), outer.handle());
        {
            ScopedJob inner("unit.inner");
            EXPECT_EQ(currentJob(), inner.handle());
        }
        EXPECT_EQ(currentJob(), outer.handle());
    }
    EXPECT_EQ(currentJob(), nullptr);
}

TEST(Progress, WatchdogFlagsSilentRunningJob)
{
    JobHandle *job = progress().begin("unit.watchdog");
    job->addOps(1);
    const double now = wallSeconds();

    // Fresh heartbeat: not stalled.
    ProgressSnapshot snap = progress().snapshot(30.0, now + 1.0);
    EXPECT_FALSE(row(snap, job).stalled);

    // Same job viewed 60 virtual seconds later: stalled.
    snap = progress().snapshot(30.0, now + 60.0);
    EXPECT_TRUE(row(snap, job).stalled);
    EXPECT_GE(snap.stalled, 1u);
    EXPECT_GE(row(snap, job).heartbeat_age, 59.0);

    // A done job is never stalled, no matter how old.
    progress().end(job);
    snap = progress().snapshot(30.0, now + 600.0);
    EXPECT_FALSE(row(snap, job).stalled);
}

TEST(Progress, TotalsAggregateAcrossJobs)
{
    const ProgressSnapshot before = progress().snapshot();
    JobHandle *a = progress().begin("unit.tot_a");
    JobHandle *b = progress().begin("unit.tot_b");
    a->addOps(100);
    a->addSample(0.5);
    b->addOps(50);
    progress().end(a);

    const ProgressSnapshot after = progress().snapshot();
    EXPECT_EQ(after.total_ops - before.total_ops, 150u);
    EXPECT_EQ(after.total_samples - before.total_samples, 1u);
    EXPECT_EQ(after.done, before.done + 1);
    EXPECT_EQ(after.running, before.running + 1);
    progress().end(b);
}

TEST(Progress, ConcurrentUpdatesDontLoseOps)
{
    JobHandle *job = progress().begin("unit.concurrent");
    constexpr int kThreads = 8;
    constexpr std::uint64_t kPer = 10'000;
    std::vector<std::thread> ts;
    for (int i = 0; i < kThreads; ++i)
        ts.emplace_back([job] {
            for (std::uint64_t k = 0; k < kPer; ++k)
                job->addOps(1);
        });
    for (std::thread &t : ts)
        t.join();
    progress().end(job);
    EXPECT_EQ(row(progress().snapshot(), job).ops, kThreads * kPer);
}

TEST(Progress, CurrentJobIsPerThread)
{
    ScopedJob mine("unit.thread_main");
    JobHandle *seen_in_worker = mine.handle();
    std::thread t([&] { seen_in_worker = currentJob(); });
    t.join();
    // A fresh thread starts with no bound job.
    EXPECT_EQ(seen_in_worker, nullptr);
    EXPECT_EQ(currentJob(), mine.handle());
}

} // namespace
