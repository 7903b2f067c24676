/**
 * @file
 * End-to-end observability tests over a real PGSS run: the stats
 * registry's per-mode op counters must equal the engine's ModeOps
 * accounting exactly, controller counters must match the PgssResult,
 * and the engine's span records plus the timeline recorder must tell
 * a consistent story (ordering, warm-up/measure pairing, one phase
 * point per period and one convergence point per credited sample).
 */

#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/pgss_controller.hh"
#include "helpers.hh"
#include "obs/spans.hh"
#include "obs/stats.hh"
#include "obs/timeline.hh"
#include "sim/engine.hh"

using namespace pgss;

namespace
{

/** Deterministic profiler clock: every read advances 1 us. */
std::uint64_t
tickNs()
{
    static std::uint64_t now = 0;
    return now += 1'000;
}

/** The engine mode a span record belongs to, or -1 for other spans. */
int
engineMode(const obs::SpanRecord &r)
{
    for (int m = 0; m < 4; ++m)
        if (std::strcmp(r.name, obs::engineModeSite(m).name()) == 0)
            return m;
    return -1;
}

} // anonymous namespace

TEST(ObsIntegration, PerModeCountersMatchModeOpsExactly)
{
    const workload::BuiltWorkload built = test::twoPhaseWorkload();
    sim::SimulationEngine engine(built.program);
    obs::StatsRegistry reg;
    engine.registerStats(reg.root());

    core::PgssConfig config;
    config.bbv_period = 100'000;
    const core::PgssResult result =
        core::PgssController(config).run(engine);
    const sim::ModeOps &ops = engine.modeOps();

    // The report contract: registry counters equal ModeOps to the op.
    EXPECT_EQ(*reg.counterValue("engine.ops_functional_fast"),
              ops.functional_fast);
    EXPECT_EQ(*reg.counterValue("engine.ops_functional_warm"),
              ops.functional_warm);
    EXPECT_EQ(*reg.counterValue("engine.ops_detailed_warm"),
              ops.detailed_warm);
    EXPECT_EQ(*reg.counterValue("engine.ops_detailed_measure"),
              ops.detailed_measure);

    const std::uint64_t sum =
        *reg.counterValue("engine.ops_functional_fast") +
        *reg.counterValue("engine.ops_functional_warm") +
        *reg.counterValue("engine.ops_detailed_warm") +
        *reg.counterValue("engine.ops_detailed_measure");
    EXPECT_EQ(sum, ops.total());
    EXPECT_EQ(sum, result.mode_ops.total());
    EXPECT_EQ(*reg.counterValue("engine.total_ops"),
              engine.totalOps());
    EXPECT_EQ(sum, engine.totalOps());

    // The vector view agrees with the exact counters.
    EXPECT_DOUBLE_EQ(*reg.value("engine.mode_ops.functional_warm"),
                     static_cast<double>(ops.functional_warm));
    EXPECT_DOUBLE_EQ(*reg.value("engine.mode_ops.detailed_measure"),
                     static_cast<double>(ops.detailed_measure));
}

TEST(ObsIntegration, HierarchyBranchPipelineAndControllerStats)
{
    const workload::BuiltWorkload built = test::twoPhaseWorkload();
    sim::SimulationEngine engine(built.program);
    obs::StatsRegistry reg;
    core::PgssConfig config;
    config.bbv_period = 100'000;
    core::PgssController controller(config);
    engine.registerStats(reg.root());
    controller.registerStats(reg.root());
    const core::PgssResult result = controller.run(engine);

    // Caches warmed and exercised by functional warming + samples.
    EXPECT_GT(*reg.counterValue("engine.l1d.misses"), 0u);
    EXPECT_GT(*reg.value("engine.l1d.miss_ratio"), 0.0);
    EXPECT_GT(*reg.counterValue("engine.branch.lookups"), 0u);
    EXPECT_GT(*reg.counterValue("engine.branch.btb.lookups"), 0u);
    EXPECT_GT(*reg.counterValue("engine.pipeline.instructions"), 0u);
    EXPECT_GT(*reg.value("engine.pipeline.ipc"), 0.0);
    EXPECT_LE(*reg.value("engine.pipeline.issue_occupancy"), 1.0);

    // Detailed instructions == detailed-mode ops (pipeline only ever
    // consumes in the two detailed modes).
    EXPECT_EQ(*reg.counterValue("engine.pipeline.instructions"),
              engine.modeOps().detailed());

    // Controller counters mirror the result.
    EXPECT_EQ(*reg.counterValue("pgss.samples"), result.n_samples);
    EXPECT_EQ(*reg.counterValue("pgss.phases"), result.n_phases);
    EXPECT_GT(*reg.counterValue("pgss.periods"), 0u);
    EXPECT_DOUBLE_EQ(*reg.value("pgss.threshold"),
                     result.final_threshold);
}

TEST(ObsIntegration, TraceStreamIsOrderedAndPaired)
{
    obs::SpanProfilerConfig pc;
    pc.now_ns = tickNs;
    pc.calibrate = false;
    obs::setSpanProfiler(std::make_unique<obs::SpanProfiler>(pc));
    obs::setTimelineRecorder(
        std::make_unique<obs::TimelineRecorder>(obs::TimelineConfig{}));

    const workload::BuiltWorkload built = test::twoPhaseWorkload();
    sim::SimulationEngine engine(built.program);
    obs::StatsRegistry reg;
    core::PgssConfig config;
    config.bbv_period = 100'000;
    core::PgssController controller(config);
    controller.registerStats(reg.root());
    const core::PgssResult result = controller.run(engine);

    std::vector<obs::SpanRecord> spans;
    for (const obs::SpanBuffer *b : obs::spanProfiler()->buffers())
        for (const obs::SpanRecord &r : b->records())
            if (engineMode(r) >= 0)
                spans.push_back(r);
    ASSERT_EQ(obs::spanProfiler()->totalDropped(), 0u);
    ASSERT_EQ(obs::spanProfiler()->buffers().size(), 1u);
    const obs::TimelineRecorder *tl = obs::timelines();
    ASSERT_NE(tl, nullptr);
    ASSERT_EQ(tl->runs().size(), 1u);
    const obs::TimelineRun &run = tl->runs()[0];
    std::uint64_t convergence_points = 0;
    for (const obs::TimelineRun::Curve &c : run.curves)
        convergence_points += c.series.recorded();
    const std::uint64_t phase_points = run.phase_timeline.recorded();
    obs::setSpanProfiler(nullptr);
    obs::setTimelineRecorder(nullptr);
    ASSERT_FALSE(spans.empty());

    // The run opens in functional warming.
    const int warm = static_cast<int>(sim::SimMode::FunctionalWarm);
    const int dwarm = static_cast<int>(sim::SimMode::DetailedWarm);
    const int dmeas = static_cast<int>(sim::SimMode::DetailedMeasure);
    EXPECT_EQ(engineMode(spans[0]), warm);

    std::uint64_t measured = 0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        // Chunks start in order on the thread's track.
        if (i > 0) {
            EXPECT_GE(spans[i].start_ns, spans[i - 1].start_ns);
        }
        const int mode = engineMode(spans[i]);
        // Every detailed warm-up is followed by its measured window,
        // and every measured window follows a warm-up.
        if (mode == dwarm) {
            ASSERT_LT(i + 1, spans.size());
            EXPECT_EQ(engineMode(spans[i + 1]), dmeas);
        }
        if (mode == dmeas) {
            ASSERT_GT(i, 0u);
            EXPECT_EQ(engineMode(spans[i - 1]), dwarm);
            if (spans[i].ops > 0) {
                EXPECT_GT(spans[i - 1].ops, 0u);
                ++measured;
            }
        }
    }
    EXPECT_EQ(measured, result.n_samples);
    EXPECT_GT(result.n_samples, 0u);

    // One phase point per classified period, one convergence point
    // per credited sample.
    EXPECT_EQ(phase_points, *reg.counterValue("pgss.periods"));
    EXPECT_GT(phase_points, 0u);
    EXPECT_EQ(convergence_points, result.n_samples);
}
