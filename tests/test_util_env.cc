/** @file Tests for environment-variable configuration helpers. */

#include <cstdlib>

#include <gtest/gtest.h>

#include "util/env.hh"

using namespace pgss::util;

namespace
{

/** RAII environment variable override. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        const char *old = std::getenv(name);
        had_old_ = old != nullptr;
        if (had_old_)
            old_ = old;
        if (value)
            ::setenv(name, value, 1);
        else
            ::unsetenv(name);
    }

    ~ScopedEnv()
    {
        if (had_old_)
            ::setenv(name_, old_.c_str(), 1);
        else
            ::unsetenv(name_);
    }

  private:
    const char *name_;
    bool had_old_;
    std::string old_;
};

} // namespace

TEST(Env, StringDefaultWhenUnset)
{
    ScopedEnv guard("PGSS_TEST_VAR", nullptr);
    EXPECT_EQ(envString("PGSS_TEST_VAR", "fallback"), "fallback");
}

TEST(Env, StringReadsValue)
{
    ScopedEnv guard("PGSS_TEST_VAR", "hello");
    EXPECT_EQ(envString("PGSS_TEST_VAR", "fallback"), "hello");
}

TEST(Env, EmptyStringFallsBack)
{
    ScopedEnv guard("PGSS_TEST_VAR", "");
    EXPECT_EQ(envString("PGSS_TEST_VAR", "fallback"), "fallback");
}

TEST(Env, DoubleParses)
{
    ScopedEnv guard("PGSS_TEST_VAR", "2.5");
    EXPECT_DOUBLE_EQ(envDouble("PGSS_TEST_VAR", 1.0), 2.5);
}

TEST(Env, DoubleMalformedFallsBack)
{
    ScopedEnv guard("PGSS_TEST_VAR", "2.5garbage");
    EXPECT_DOUBLE_EQ(envDouble("PGSS_TEST_VAR", 1.0), 1.0);
    ScopedEnv guard2("PGSS_TEST_VAR", "not-a-number");
    EXPECT_DOUBLE_EQ(envDouble("PGSS_TEST_VAR", 3.0), 3.0);
    // strtod parses these, but no knob means them.
    for (const char *v : {"nan", "inf", "-inf", "NAN", "infinity"}) {
        ScopedEnv guard3("PGSS_TEST_VAR", v);
        EXPECT_DOUBLE_EQ(envDouble("PGSS_TEST_VAR", 1.5), 1.5) << v;
    }
}

TEST(Env, WorkloadScaleDefaultsToOne)
{
    ScopedEnv guard("PGSS_SCALE", nullptr);
    EXPECT_DOUBLE_EQ(workloadScale(), 1.0);
}

TEST(Env, WorkloadScaleClamped)
{
    {
        ScopedEnv guard("PGSS_SCALE", "0.0001");
        EXPECT_DOUBLE_EQ(workloadScale(), 0.01);
    }
    {
        ScopedEnv guard("PGSS_SCALE", "1000");
        EXPECT_DOUBLE_EQ(workloadScale(), 100.0);
    }
    {
        ScopedEnv guard("PGSS_SCALE", "0.5");
        EXPECT_DOUBLE_EQ(workloadScale(), 0.5);
    }
    // NaN would pass through std::clamp; non-finite means the default.
    for (const char *v : {"nan", "inf", "-inf"}) {
        ScopedEnv guard("PGSS_SCALE", v);
        EXPECT_DOUBLE_EQ(workloadScale(), 1.0) << v;
    }
}

TEST(Env, JobCountClamped)
{
    // Only the returned count is checked; no pool is built from it.
    // Non-finite values are the default (1), not a NaN -> size_t cast.
    for (const char *v : {"nan", "inf", "-inf"}) {
        ScopedEnv guard("PGSS_JOBS", v);
        EXPECT_EQ(jobCount(), 1u) << v;
    }
    {
        ScopedEnv guard("PGSS_JOBS", "-3");
        EXPECT_EQ(jobCount(), 1u);
    }
    {
        ScopedEnv guard("PGSS_JOBS", "1e9");
        EXPECT_EQ(jobCount(), 256u);
    }
    {
        ScopedEnv guard("PGSS_JOBS", "4");
        EXPECT_EQ(jobCount(), 4u);
    }
}

TEST(Env, ProfileCacheDirOverride)
{
    ScopedEnv guard("PGSS_PROFILE_CACHE", "/tmp/custom_cache");
    EXPECT_EQ(profileCacheDir(), "/tmp/custom_cache");
}

TEST(Env, ProfileCacheDirDefault)
{
    ScopedEnv guard("PGSS_PROFILE_CACHE", nullptr);
    EXPECT_EQ(profileCacheDir(), "pgss_profile_cache");
}
