/**
 * @file
 * Tests for the run report: CLI flag stripping, meta annotations, the
 * pgss-run-report schema, the "perf" section built from the engine's
 * span totals, and finalize() writing the report file.
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/json_read.hh"
#include "obs/report.hh"
#include "obs/spans.hh"
#include "sim/engine.hh"
#include "tests/helpers.hh"

using namespace pgss::obs;

namespace
{

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

} // namespace

TEST(ObsReport, InitFromCliStripsObservabilityFlags)
{
    const std::string report =
        pgss::test::uniqueTempDir("report") + "/strip.json";
    char prog[] = "prog";
    char a1[] = "--stats-json=/dev/null";
    char a2[] = "164.gzip";
    char a3[] = "--timeline-out="; // empty value: no CSV written
    char a4[] = "0.5";
    char *argv[] = {prog, a1, a2, a3, a4, nullptr};
    int argc = 5;

    initFromCli(argc, argv, "test_report");
    EXPECT_EQ(argc, 3);
    EXPECT_STREQ(argv[0], "prog");
    EXPECT_STREQ(argv[1], "164.gzip");
    EXPECT_STREQ(argv[2], "0.5");
    EXPECT_EQ(argv[3], nullptr);
    EXPECT_EQ(statsJsonPath(), "/dev/null");
    EXPECT_EQ(timelineCsvPath(), "");
    (void)report;
}

TEST(ObsReport, ReportCarriesSchemaAndSections)
{
    // Each gtest case runs as its own process under ctest, so the
    // report state must be established here, not by a sibling test.
    char prog[] = "prog";
    char *argv[] = {prog, nullptr};
    int argc = 1;
    initFromCli(argc, argv, "test_report");
    setReportMeta("workload", "164.gzip");
    setReportMeta("workload_scale", 0.25);

    // One real engine chunk with no profiler installed: the span
    // totals behind the "perf" section are always on.
    ASSERT_EQ(spanProfiler(), nullptr);
    const std::vector<PerfRow> before = perfRows();
    const pgss::workload::BuiltWorkload built =
        pgss::test::twoPhaseWorkload();
    pgss::sim::SimulationEngine engine(built.program);
    const std::uint64_t ran =
        engine.run(10'000, pgss::sim::SimMode::FunctionalWarm).ops;
    ASSERT_EQ(ran, 10'000u);

    const std::string doc = reportJsonString();
    EXPECT_EQ(doc.front(), '{');
    EXPECT_EQ(doc.back(), '}');
    EXPECT_NE(doc.find("\"schema\":\"pgss-run-report\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"schema_version\":1"), std::string::npos);
    EXPECT_NE(doc.find("\"program\":\"test_report\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"meta\":{"), std::string::npos);
    EXPECT_NE(doc.find("\"workload\":\"164.gzip\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"workload_scale\":0.25"), std::string::npos);
    EXPECT_NE(doc.find("\"stats\":{"), std::string::npos);

    // "perf": the four engine modes, in SimMode order, each with
    // calls/ops/seconds/mips; the run mode's counts are exact.
    JsonValue parsed;
    std::string err;
    ASSERT_TRUE(parseJson(doc, parsed, &err)) << err;
    const JsonValue *perf = parsed.get("perf");
    ASSERT_NE(perf, nullptr);
    const char *const keys[] = {
        "mode.functional_fast", "mode.functional_warm",
        "mode.detailed_warm", "mode.detailed_measure"};
    ASSERT_EQ(perf->object.size(), 4u);
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(perf->object[i].first, keys[i]);
        const JsonValue &row = perf->object[i].second;
        ASSERT_EQ(row.object.size(), 4u);
        EXPECT_EQ(row.object[0].first, "calls");
        EXPECT_EQ(row.object[1].first, "ops");
        EXPECT_EQ(row.object[2].first, "seconds");
        EXPECT_EQ(row.object[3].first, "mips");
        const bool run_mode = i == 1;
        EXPECT_EQ(row.get("calls")->asUint(),
                  before[i].calls + (run_mode ? 1 : 0));
        EXPECT_EQ(row.get("ops")->asUint(),
                  before[i].ops + (run_mode ? ran : 0));
    }
    EXPECT_GT(perf->get("mode.functional_warm")->get("seconds")->number,
              0.0);
}

TEST(ObsReport, MetaLastWritePerKeyWins)
{
    setReportMeta("workload", "175.vpr");
    const std::string doc = reportJsonString();
    EXPECT_NE(doc.find("\"workload\":\"175.vpr\""), std::string::npos);
    EXPECT_EQ(doc.find("\"workload\":\"164.gzip\""),
              std::string::npos);
}

TEST(ObsReport, FinalizeWritesTheReportFile)
{
    const std::string path =
        pgss::test::uniqueTempDir("report") + "/out.json";
    char prog[] = "prog";
    std::string flag = "--stats-json=" + path;
    std::vector<char> flag_buf(flag.begin(), flag.end());
    flag_buf.push_back('\0');
    char *argv[] = {prog, flag_buf.data(), nullptr};
    int argc = 2;
    initFromCli(argc, argv, "test_report_finalize");

    ASSERT_TRUE(finalize());
    const std::string doc = readFile(path);
    EXPECT_NE(doc.find("\"schema\":\"pgss-run-report\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"program\":\"test_report_finalize\""),
              std::string::npos);
    std::remove(path.c_str());
}

TEST(ObsReport, EnvFallbackSuppliesPaths)
{
    const std::string path =
        pgss::test::uniqueTempDir("report") + "/env.json";
    ASSERT_EQ(setenv("PGSS_STATS_JSON", path.c_str(), 1), 0);
    char prog[] = "prog";
    char *argv[] = {prog, nullptr};
    int argc = 1;
    initFromCli(argc, argv, "test_report_env");
    EXPECT_EQ(statsJsonPath(), path);
    ASSERT_EQ(unsetenv("PGSS_STATS_JSON"), 0);

    // An explicit flag overrides the environment.
    char flag[] = "--stats-json=/dev/null";
    char *argv2[] = {prog, flag, nullptr};
    int argc2 = 2;
    initFromCli(argc2, argv2, "test_report_env");
    EXPECT_EQ(statsJsonPath(), "/dev/null");
}

TEST(ObsReport, TimelineIntervalEnvRejectsOutOfRange)
{
    const auto parsed = [](const char *value) {
        EXPECT_EQ(setenv("PGSS_TIMELINE_INTERVAL", value, 1), 0);
        char prog[] = "prog";
        char *argv[] = {prog, nullptr};
        int argc = 1;
        const ObsFlags flags = parseObsFlags(argc, argv);
        EXPECT_EQ(unsetenv("PGSS_TIMELINE_INTERVAL"), 0);
        return flags.timeline_interval;
    };
    EXPECT_EQ(parsed("5000"), 5000u);
    // Negative and unrepresentable strides fall back to the default
    // (0) instead of an undefined double -> uint64_t conversion.
    EXPECT_EQ(parsed("-1"), 0u);
    EXPECT_EQ(parsed("1e30"), 0u);
    EXPECT_EQ(parsed("nan"), 0u);
}
