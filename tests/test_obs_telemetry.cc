/**
 * @file
 * obs/telemetry end-to-end: start the live server on an ephemeral
 * port, scrape /metrics, /healthz, and /status over real sockets, and
 * validate the payloads with the in-repo Prometheus parser and JSON
 * reader. The graceful-shutdown test forks a child that serves while
 * simulating, SIGTERMs it mid-flight, and asserts the partial report
 * is valid and the port is immediately rebindable.
 */

#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "core/pgss_controller.hh"
#include "obs/json_read.hh"
#include "obs/progress.hh"
#include "obs/prometheus.hh"
#include "obs/report.hh"
#include "obs/telemetry.hh"
#include "sim/engine.hh"
#include "tests/helpers.hh"
#include "util/net/http.hh"

using namespace pgss;
using pgss::util::net::HttpResponse;
using pgss::util::net::HttpServer;
using pgss::util::net::httpGet;

namespace
{

/** RAII: serve for the duration of one test. */
struct ServeGuard
{
    ServeGuard()
    {
        obs::TelemetryConfig cfg;
        cfg.port = 0; // ephemeral
        std::string err;
        ok = obs::startTelemetry(cfg, &err);
        error = err;
    }
    ~ServeGuard() { obs::stopTelemetry(); }
    bool ok = false;
    std::string error;
};

TEST(Telemetry, MetricsEndpointServesValidPrometheus)
{
    ServeGuard serve;
    ASSERT_TRUE(serve.ok) << serve.error;
    ASSERT_GT(obs::telemetryPort(), 0);

    HttpResponse resp;
    std::string err;
    ASSERT_TRUE(httpGet("127.0.0.1", obs::telemetryPort(),
                        "/metrics", &resp, &err))
        << err;
    EXPECT_EQ(resp.status, 200);
    EXPECT_NE(resp.content_type.find("text/plain"),
              std::string::npos);

    obs::ParsedFamilies parsed;
    ASSERT_TRUE(obs::parsePrometheusText(resp.body, &parsed, &err))
        << err << "\npayload:\n"
        << resp.body;
    EXPECT_TRUE(parsed.has("pgss_up"));
    EXPECT_DOUBLE_EQ(parsed.value("pgss_up"), 1.0);
    EXPECT_TRUE(parsed.has("pgss_uptime_seconds"));
    EXPECT_TRUE(parsed.has("pgss_jobs_running"));
    EXPECT_TRUE(parsed.has("pgss_progress_ops_total"));
}

TEST(Telemetry, HealthzReportsOkWhileFresh)
{
    ServeGuard serve;
    ASSERT_TRUE(serve.ok) << serve.error;

    HttpResponse resp;
    std::string err;
    ASSERT_TRUE(httpGet("127.0.0.1", obs::telemetryPort(),
                        "/healthz", &resp, &err))
        << err;
    EXPECT_EQ(resp.status, 200);

    obs::JsonValue doc;
    ASSERT_TRUE(obs::parseJson(resp.body, doc, &err)) << err;
    ASSERT_NE(doc.get("status"), nullptr);
    EXPECT_EQ(doc.get("status")->string, "ok");
    ASSERT_NE(doc.get("uptime_seconds"), nullptr);
    EXPECT_GE(doc.get("uptime_seconds")->asNumber(), 0.0);
}

/**
 * The acceptance check: job counters visible over /status must equal
 * the totals the controller reports for the same run — ops retired
 * and detailed samples taken agree exactly, not approximately.
 */
TEST(Telemetry, StatusJobCountersMatchControllerTotalsExactly)
{
    ServeGuard serve;
    ASSERT_TRUE(serve.ok) << serve.error;

    core::PgssConfig config;
    core::PgssController controller(config);
    workload::BuiltWorkload built = test::twoPhaseWorkload();
    sim::SimulationEngine engine(built.program,
                                 sim::EngineConfig{});

    core::PgssResult res;
    {
        obs::ScopedJob job("e2e.two-phase");
        res = controller.run(engine);
    }

    HttpResponse resp;
    std::string err;
    ASSERT_TRUE(httpGet("127.0.0.1", obs::telemetryPort(),
                        "/status", &resp, &err))
        << err;
    ASSERT_EQ(resp.status, 200);
    obs::JsonValue doc;
    ASSERT_TRUE(obs::parseJson(resp.body, doc, &err)) << err;

    const obs::JsonValue *jobs = doc.get("jobs");
    ASSERT_NE(jobs, nullptr);
    const obs::JsonValue *mine = nullptr;
    for (const obs::JsonValue &j : jobs->array)
        if (j.get("entry") && j.get("entry")->string ==
                                  "e2e.two-phase")
            mine = &j;
    ASSERT_NE(mine, nullptr) << resp.body;

    EXPECT_EQ(mine->get("state")->string, "done");
    EXPECT_EQ(mine->get("ops")->asUint(), res.total_ops);
    EXPECT_EQ(mine->get("samples")->asUint(), res.n_samples);
    EXPECT_EQ(mine->get("phases")->asUint(), res.n_phases);

    // The same job over /metrics, by label.
    ASSERT_TRUE(httpGet("127.0.0.1", obs::telemetryPort(),
                        "/metrics", &resp, &err))
        << err;
    obs::ParsedFamilies parsed;
    ASSERT_TRUE(obs::parsePrometheusText(resp.body, &parsed, &err))
        << err;
    bool found = false;
    for (const obs::ParsedMetric &m : parsed.samples) {
        if (m.name != "pgss_job_ops")
            continue;
        for (const auto &[k, v] : m.labels)
            if (k == "entry" && v == "e2e.two-phase") {
                EXPECT_DOUBLE_EQ(
                    m.value, static_cast<double>(res.total_ops));
                found = true;
            }
    }
    EXPECT_TRUE(found);
}

TEST(Telemetry, StopReleasesPortImmediately)
{
    obs::TelemetryConfig cfg;
    cfg.port = 0;
    std::string err;
    ASSERT_TRUE(obs::startTelemetry(cfg, &err)) << err;
    const std::uint16_t port = obs::telemetryPort();
    obs::stopTelemetry();
    EXPECT_FALSE(obs::telemetryActive());

    HttpServer reuse;
    ASSERT_TRUE(reuse.start(port, &err))
        << "port " << port << " still held: " << err;
    reuse.stop();
}

TEST(Telemetry, DoubleStartRefusedDoubleStopHarmless)
{
    obs::TelemetryConfig cfg;
    cfg.port = 0;
    std::string err;
    ASSERT_TRUE(obs::startTelemetry(cfg, &err)) << err;
    EXPECT_FALSE(obs::startTelemetry(cfg, &err));
    obs::stopTelemetry();
    obs::stopTelemetry(); // idempotent
    EXPECT_FALSE(obs::telemetryActive());
}

/**
 * Graceful shutdown, the real path: a forked child initialises the
 * obs layer exactly like a bench binary (signal handlers, --serve,
 * --stats-json), starts simulated work, and is killed mid-flight.
 * The child's SIGTERM handler must stop the server and flush a
 * partial-but-valid report; the port must be free the instant the
 * child is gone.
 */
TEST(TelemetryShutdown, SigtermFlushesPartialReportAndFreesPort)
{
    const std::string report_path =
        "/tmp/pgss_test_shutdown_" + std::to_string(::getpid()) +
        ".json";
    std::remove(report_path.c_str());

    int port_pipe[2];
    ASSERT_EQ(::pipe(port_pipe), 0);

    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        // ---- child: a miniature bench binary.
        ::close(port_pipe[0]);
        std::string arg0 = "shutdown_child";
        std::string arg1 = "--stats-json=" + report_path;
        std::string arg2 = "--serve=0";
        char *argv_c[] = {arg0.data(), arg1.data(), arg2.data(),
                          nullptr};
        int argc_c = 3;
        obs::initFromCli(argc_c, argv_c, "shutdown_child");
        if (!obs::telemetryActive())
            ::_exit(125);
        const std::uint16_t port = obs::telemetryPort();
        if (::write(port_pipe[1], &port, sizeof(port)) !=
            sizeof(port))
            ::_exit(126);
        ::close(port_pipe[1]);

        // Simulate until killed; the report then records real work.
        obs::ScopedJob job("shutdown.child");
        workload::BuiltWorkload built = test::twoPhaseWorkload();
        for (;;) {
            sim::SimulationEngine engine(built.program,
                                         sim::EngineConfig{});
            engine.run(1'000'000, sim::SimMode::FunctionalFast);
        }
    }

    // ---- parent.
    ::close(port_pipe[1]);
    std::uint16_t port = 0;
    ASSERT_EQ(::read(port_pipe[0], &port, sizeof(port)),
              static_cast<ssize_t>(sizeof(port)));
    ::close(port_pipe[0]);
    ASSERT_GT(port, 0);

    // The child is alive and serving.
    HttpResponse resp;
    std::string err;
    ASSERT_TRUE(httpGet("127.0.0.1", port, "/healthz", &resp, &err))
        << err;
    EXPECT_EQ(resp.status, 200);

    // Kill it mid-flight. A flush that deadlocks must fail the test,
    // not hang the suite: the wait has a deadline.
    ASSERT_EQ(::kill(pid, SIGTERM), 0);
    int wstatus = 0;
    pid_t waited = 0;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while ((waited = ::waitpid(pid, &wstatus, WNOHANG)) == 0 &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    if (waited == 0) {
        ::kill(pid, SIGKILL);
        ::waitpid(pid, &wstatus, 0);
        FAIL() << "child still running 60 s after SIGTERM";
    }
    ASSERT_EQ(waited, pid);
    // The handler re-raises with default disposition after flushing.
    ASSERT_TRUE(WIFSIGNALED(wstatus));
    EXPECT_EQ(WTERMSIG(wstatus), SIGTERM);

    // The partial report exists and is valid JSON with partial=true.
    std::ifstream in(report_path);
    ASSERT_TRUE(in) << "no partial report at " << report_path;
    std::stringstream ss;
    ss << in.rdbuf();
    obs::JsonValue doc;
    ASSERT_TRUE(obs::parseJson(ss.str(), doc, &err)) << err;
    ASSERT_NE(doc.get("partial"), nullptr);
    EXPECT_TRUE(doc.get("partial")->boolean);
    ASSERT_NE(doc.get("program"), nullptr);
    EXPECT_EQ(doc.get("program")->string, "shutdown_child");

    // The port is free right now: bind it ourselves.
    HttpServer reuse;
    ASSERT_TRUE(reuse.start(port, &err))
        << "port " << port << " not released by dead child: " << err;
    reuse.stop();
    std::remove(report_path.c_str());
}

} // namespace
