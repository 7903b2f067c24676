/** @file Tests for interval profiles and the profile cache. */

#include <filesystem>

#include <gtest/gtest.h>

#include "analysis/profile_cache.hh"
#include "tests/helpers.hh"

using namespace pgss;
using analysis::IntervalProfile;

namespace
{

IntervalProfile
smallProfile()
{
    static auto built = test::twoPhaseWorkload(200'000.0, 2);
    return analysis::buildIntervalProfile(built.program, {}, 20'000);
}

} // namespace

TEST(Profile, TotalsConsistentWithIntervals)
{
    const IntervalProfile p = smallProfile();
    EXPECT_GT(p.intervals(), 10u);
    EXPECT_EQ(p.intervalOps(), 20'000u);
    // Complete intervals cover at most the program; the tail is in
    // the totals only.
    EXPECT_LE(p.intervals() * p.intervalOps(), p.totalOps());
    std::uint64_t cyc = 0;
    for (std::size_t i = 0; i < p.intervals(); ++i)
        cyc += p.intervalCycles(i);
    EXPECT_LE(cyc, p.totalCycles());
    EXPECT_GT(cyc, 0.9 * p.totalCycles());
}

TEST(Profile, TrueIpcIsOpsOverCycles)
{
    const IntervalProfile p = smallProfile();
    EXPECT_NEAR(p.trueIpc(),
                static_cast<double>(p.totalOps()) / p.totalCycles(),
                1e-12);
    EXPECT_NEAR(p.trueIpc() * p.trueCpi(), 1.0, 1e-9);
}

TEST(Profile, IntervalIpcMatchesCycles)
{
    const IntervalProfile p = smallProfile();
    for (std::size_t i = 0; i < p.intervals(); i += 7)
        EXPECT_NEAR(p.intervalIpc(i),
                    20'000.0 / p.intervalCycles(i), 1e-12);
}

TEST(Profile, BbvUnitNormalised)
{
    const IntervalProfile p = smallProfile();
    const auto v = p.bbvUnit(0);
    double sq = 0;
    for (double x : v)
        sq += x * x;
    EXPECT_NEAR(sq, 1.0, 1e-9);
}

TEST(Profile, TwoPhaseWorkloadShowsTwoIpcLevels)
{
    const IntervalProfile p = smallProfile();
    // The compute and chase phases differ hugely in IPC; the
    // interval series must span that range.
    const auto s = p.ipcStats();
    EXPECT_GT(s.max(), 3.0 * s.min());
}

TEST(Profile, WindowCpiAveragesIntervals)
{
    const IntervalProfile p = smallProfile();
    const double w = p.windowCpi(0, 3);
    const double manual =
        (p.intervalCycles(0) + p.intervalCycles(1) +
         p.intervalCycles(2)) /
        (3.0 * p.intervalOps());
    EXPECT_NEAR(w, manual, 1e-12);
}

TEST(ProfileDeathTest, WindowCpiRangeChecked)
{
    const IntervalProfile p = smallProfile();
    EXPECT_DEATH(p.windowCpi(p.intervals() - 1, 2), "out of range");
}

TEST(Profile, AggregateSumsCyclesAndBbvs)
{
    const IntervalProfile p = smallProfile();
    const IntervalProfile c = p.aggregate(4);
    EXPECT_EQ(c.intervalOps(), 4 * p.intervalOps());
    EXPECT_EQ(c.intervals(), p.intervals() / 4);
    EXPECT_EQ(c.intervalCycles(0),
              p.intervalCycles(0) + p.intervalCycles(1) +
                  p.intervalCycles(2) + p.intervalCycles(3));
    EXPECT_DOUBLE_EQ(c.bbvRaw(0)[0],
                     p.bbvRaw(0)[0] + p.bbvRaw(1)[0] +
                         p.bbvRaw(2)[0] + p.bbvRaw(3)[0]);
    EXPECT_EQ(c.totalOps(), p.totalOps());
}

TEST(Profile, AggregateSmoothsVariation)
{
    // The paper's Figure 2: coarser sampling averages fine-grained
    // IPC variation away, so the interval-IPC sigma shrinks.
    const IntervalProfile p = smallProfile();
    const IntervalProfile c = p.aggregate(8);
    EXPECT_LT(c.ipcStats().stddev(), p.ipcStats().stddev());
}

TEST(Profile, SerializeRoundTrip)
{
    const IntervalProfile p = smallProfile();
    const auto bytes = analysis::serializeProfile(p);
    bool ok = false;
    const IntervalProfile q = analysis::deserializeProfile(bytes, ok);
    ASSERT_TRUE(ok);
    EXPECT_EQ(q.name(), p.name());
    EXPECT_EQ(q.intervalOps(), p.intervalOps());
    EXPECT_EQ(q.intervals(), p.intervals());
    EXPECT_EQ(q.totalOps(), p.totalOps());
    EXPECT_EQ(q.totalCycles(), p.totalCycles());
    for (std::size_t i = 0; i < p.intervals(); i += 5) {
        EXPECT_EQ(q.intervalCycles(i), p.intervalCycles(i));
        EXPECT_EQ(q.bbvRaw(i), p.bbvRaw(i));
    }
}

TEST(Profile, DeserializeRejectsGarbage)
{
    bool ok = true;
    analysis::deserializeProfile({9, 9, 9}, ok);
    EXPECT_FALSE(ok);
}

TEST(ProfileCache, SecondLoadIsCacheHit)
{
    const std::string dir = test::uniqueTempDir("profile_cache");

    auto built = test::twoPhaseWorkload(150'000.0, 2);
    analysis::ProfileCache cache(dir);
    const IntervalProfile first =
        cache.loadOrBuild(built.program, {}, 25'000);
    const std::string path =
        cache.pathFor(built.program, {}, 25'000);
    EXPECT_TRUE(std::filesystem::exists(path));

    const IntervalProfile second =
        cache.loadOrBuild(built.program, {}, 25'000);
    EXPECT_EQ(second.intervals(), first.intervals());
    EXPECT_EQ(second.totalCycles(), first.totalCycles());
    std::filesystem::remove_all(dir);
}

TEST(ProfileCache, DifferentConfigDifferentKey)
{
    auto built = test::twoPhaseWorkload(150'000.0, 2);
    analysis::ProfileCache cache("/tmp/unused_cache_dir");
    sim::EngineConfig small_l2;
    small_l2.hierarchy.l2.size_bytes = 256 * 1024;
    EXPECT_NE(cache.pathFor(built.program, {}, 25'000),
              cache.pathFor(built.program, small_l2, 25'000));
    EXPECT_NE(cache.pathFor(built.program, {}, 25'000),
              cache.pathFor(built.program, {}, 50'000));
}
