/** @file Tests for the checkpoint library and seek acceleration. */

#include <filesystem>

#include <gtest/gtest.h>

#include "sampling/checkpointed.hh"
#include "sim/checkpoint_library.hh"
#include "tests/helpers.hh"

using namespace pgss;

namespace
{

struct LibFixture
{
    std::string dir;
    workload::BuiltWorkload built;
    sim::CheckpointLibrary library;

    LibFixture()
        : dir(test::uniqueTempDir("ckpt_lib")),
          built(test::twoPhaseWorkload(150'000.0, 3)), library(dir)
    {
        std::filesystem::remove_all(dir);
        library.record(built.program, {}, 200'000);
    }

    ~LibFixture() { std::filesystem::remove_all(dir); }
};

} // namespace

TEST(CheckpointLibrary, RecordsExpectedPositions)
{
    LibFixture f;
    ASSERT_FALSE(f.library.positions().empty());
    EXPECT_EQ(f.library.stride(), 200'000u);
    std::uint64_t expected = 0;
    for (std::uint64_t p : f.library.positions()) {
        EXPECT_EQ(p, expected);
        expected += 200'000;
    }
}

TEST(CheckpointLibrary, SeekMatchesSequentialExecution)
{
    LibFixture f;
    // Sequential reference.
    sim::SimulationEngine seq(f.built.program);
    seq.run(450'000, sim::SimMode::FunctionalWarm);
    seq.run(3'000, sim::SimMode::DetailedWarm);
    const sim::RunResult ref =
        seq.run(1'000, sim::SimMode::DetailedMeasure);

    // Seek via the library.
    sim::SimulationEngine eng(f.built.program);
    const sim::SeekResult seek = f.library.seekTo(eng, 450'000);
    EXPECT_TRUE(seek.from_checkpoint);
    EXPECT_EQ(seek.restored_at, 400'000u);
    EXPECT_EQ(seek.warmed_ops, 50'000u);
    EXPECT_EQ(eng.totalOps(), 450'000u);
    eng.run(3'000, sim::SimMode::DetailedWarm);
    const sim::RunResult got =
        eng.run(1'000, sim::SimMode::DetailedMeasure);

    EXPECT_EQ(got.ops, ref.ops);
    EXPECT_EQ(got.cycles, ref.cycles);
}

TEST(CheckpointLibrary, BackwardSeeksWork)
{
    LibFixture f;
    sim::SimulationEngine eng(f.built.program);
    f.library.seekTo(eng, 620'000);
    // Going backwards restores an earlier checkpoint.
    const sim::SeekResult back = f.library.seekTo(eng, 250'000);
    EXPECT_TRUE(back.from_checkpoint);
    EXPECT_EQ(back.restored_at, 200'000u);
    EXPECT_EQ(eng.totalOps(), 250'000u);
}

TEST(CheckpointLibrary, ForwardSeekNearbySkipsRestore)
{
    LibFixture f;
    sim::SimulationEngine eng(f.built.program);
    f.library.seekTo(eng, 410'000);
    // 20k further: warming on is cheaper than restoring 400k + 30k.
    const sim::SeekResult hop = f.library.seekTo(eng, 430'000);
    EXPECT_FALSE(hop.from_checkpoint);
    EXPECT_EQ(hop.warmed_ops, 20'000u);
}

TEST(CheckpointLibrary, OpenLoadsRecordedMetadata)
{
    LibFixture f;
    sim::CheckpointLibrary other(f.dir);
    ASSERT_TRUE(other.open(f.built.program, {}));
    EXPECT_EQ(other.positions(), f.library.positions());
    EXPECT_EQ(other.stride(), 200'000u);

    sim::SimulationEngine eng(f.built.program);
    const sim::SeekResult seek = other.seekTo(eng, 300'000);
    EXPECT_TRUE(seek.from_checkpoint);
}

TEST(CheckpointLibrary, OpenFailsForUnknownProgram)
{
    LibFixture f;
    const isa::Program other = test::sumProgram(100);
    sim::CheckpointLibrary lib(f.dir);
    EXPECT_FALSE(lib.open(other, {}));
}

TEST(CheckpointedSampling, RandomOrderMatchesInOrder)
{
    LibFixture f;
    const std::vector<std::uint64_t> in_order = {
        250'000, 480'000, 700'000, 910'000};
    const std::vector<std::uint64_t> shuffled = {
        910'000, 250'000, 700'000, 480'000};

    const sampling::CheckpointedMeasurement a =
        sampling::measureWindowsViaLibrary(f.built.program, {},
                                           f.library, in_order);
    const sampling::CheckpointedMeasurement b =
        sampling::measureWindowsViaLibrary(f.built.program, {},
                                           f.library, shuffled);
    ASSERT_EQ(a.cpis.size(), 4u);
    ASSERT_EQ(b.cpis.size(), 4u);
    // Same windows measured, independent of processing order.
    EXPECT_DOUBLE_EQ(a.cpis[0], b.cpis[1]); // 250k
    EXPECT_DOUBLE_EQ(a.cpis[1], b.cpis[3]); // 480k
    EXPECT_DOUBLE_EQ(a.cpis[2], b.cpis[2]); // 700k
    EXPECT_DOUBLE_EQ(a.cpis[3], b.cpis[0]); // 910k
}

TEST(CheckpointedSampling, WarmingBoundedByStride)
{
    LibFixture f;
    const std::vector<std::uint64_t> positions = {
        800'000, 150'000, 550'000};
    const sampling::CheckpointedMeasurement m =
        sampling::measureWindowsViaLibrary(f.built.program, {},
                                           f.library, positions);
    // Without checkpoints this costs 950k + 150k + 550k of
    // fast-forwarding (or is impossible out of order); with them,
    // at most one stride each.
    EXPECT_LE(m.warmed_ops, 3u * 200'000u);
    EXPECT_GE(m.restores, 2u);
    EXPECT_EQ(m.detailed_ops, 3u * 4'000u);
}

TEST(CheckpointLibrary, DeltaLayoutFollowsFullInterval)
{
    LibFixture f;
    EXPECT_EQ(f.library.fullInterval(), 8u);
    for (std::size_t i = 0; i < f.library.positions().size(); ++i)
        EXPECT_EQ(f.library.isDeltaAt(i), i % 8 != 0) << "index " << i;

    // open() reads the recorded layout even if the caller configured
    // a different interval beforehand.
    sim::CheckpointLibrary other(f.dir);
    other.setFullInterval(3);
    ASSERT_TRUE(other.open(f.built.program, {}));
    EXPECT_EQ(other.fullInterval(), 8u);
    for (std::size_t i = 0; i < other.positions().size(); ++i)
        EXPECT_EQ(other.isDeltaAt(i), f.library.isDeltaAt(i));
}

TEST(CheckpointLibrary, SeekThroughDeltaChainMatchesFullImages)
{
    // Record the same workload twice: once with the delta layout,
    // once with full images only. Seeking either library to the same
    // position must produce identical measurements. The workload
    // writes memory, so the deltas carry real pages.
    auto built = test::storingWorkload(150'000.0, 3);

    const std::string root = test::uniqueTempDir("lib_delta_full");
    const std::string dir_d = root + "/delta";
    const std::string dir_f = root + "/full";

    sim::CheckpointLibrary deltas(dir_d);
    deltas.setFullInterval(4);
    deltas.record(built.program, {}, 150'000);
    sim::CheckpointLibrary fulls(dir_f);
    fulls.setFullInterval(1);
    fulls.record(built.program, {}, 150'000);
    ASSERT_EQ(deltas.positions(), fulls.positions());
    EXPECT_FALSE(fulls.isDeltaAt(1));
    EXPECT_TRUE(deltas.isDeltaAt(3)); // end of a 3-delta chain

    for (const std::uint64_t target : {470'000ull, 760'000ull}) {
        sim::SimulationEngine a(built.program);
        sim::SimulationEngine b(built.program);
        deltas.seekTo(a, target);
        fulls.seekTo(b, target);
        EXPECT_EQ(a.totalOps(), target);
        EXPECT_EQ(a.checkpoint().serialize(),
                  b.checkpoint().serialize())
            << "target " << target;
    }

    std::filesystem::remove_all(dir_d);
    std::filesystem::remove_all(dir_f);
}

TEST(CheckpointLibrary, OpenFailsForDifferentConfig)
{
    LibFixture f;
    // The identity covers the machine configuration, not just the
    // program: a resized L1D must not open a stale library.
    sim::EngineConfig other;
    other.hierarchy.l1d.size_bytes *= 2;
    sim::CheckpointLibrary lib(f.dir);
    EXPECT_FALSE(lib.open(f.built.program, other));

    sim::EngineConfig same;
    EXPECT_TRUE(lib.open(f.built.program, same));
}

TEST(CheckpointLibraryDeathTest, ZeroStridePanics)
{
    sim::CheckpointLibrary lib("/tmp/unused");
    auto built = test::twoPhaseWorkload(50'000.0, 1);
    EXPECT_DEATH(lib.record(built.program, {}, 0), "stride");
}
