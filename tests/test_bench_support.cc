/**
 * @file
 * Tests for the bench harness's worker pools: the suite load and the
 * per-entry runs must show up as distinct thread tracks in a profile.
 */

#include <cstdlib>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench/support.hh"
#include "obs/spans.hh"
#include "tests/helpers.hh"

using namespace pgss;

TEST(BenchSupport, LoadAndEntryPoolsHaveDistinctThreadNames)
{
    const std::string cache = test::uniqueTempDir("bench_pools");
    ASSERT_EQ(::setenv("PGSS_PROFILE_CACHE", cache.c_str(), 1), 0);
    ASSERT_EQ(::setenv("PGSS_SCALE", "0.01", 1), 0);
    ASSERT_EQ(::setenv("PGSS_JOBS", "2", 1), 0);

    obs::SpanProfilerConfig config;
    config.calibrate = false;
    obs::setSpanProfiler(std::make_unique<obs::SpanProfiler>(config));

    const std::vector<bench::Entry> entries = bench::loadSuite();
    bench::runEntriesParallel(entries, [](std::size_t) {});

    std::set<std::string> names;
    for (const obs::SpanBuffer *b : obs::spanProfiler()->buffers())
        names.insert(b->threadName());
    obs::setSpanProfiler(nullptr);

    EXPECT_EQ(names.count("load-0") + names.count("load-1"), 2u);
    EXPECT_TRUE(names.count("entry-0") || names.count("entry-1"));
    for (const std::string &n : names)
        EXPECT_EQ(n.rfind("pool-", 0), std::string::npos) << n;
    std::filesystem::remove_all(cache);
}
