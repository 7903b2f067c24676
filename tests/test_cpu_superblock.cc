/**
 * @file
 * Differential tests for the superblock threaded-code backend: with
 * PGSS_BACKEND=superblock the engine must retire exactly the
 * architectural state, BBV stream, and dirty-page sets the step()
 * interpreter produces — over every suite workload, every input
 * variant, and across arbitrary chunk boundaries — plus the trace
 * cache's persistence contract (warm hit, corrupt quarantine, stale
 * reform).
 */

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cpu/superblock.hh"
#include "cpu/trace_cache.hh"
#include "sim/checkpoint.hh"
#include "sim/engine.hh"
#include "tests/helpers.hh"
#include "workload/suite.hh"

using namespace pgss;
using sim::SimMode;

namespace
{

/** Deliberately awkward chunk sizes to stress carry-over state. */
const std::uint64_t chunks[] = {1, 7, 12'345, 99'991, 250'000};

sim::EngineConfig
superblockConfig()
{
    sim::EngineConfig config;
    config.backend = sim::ExecBackend::Superblock;
    return config;
}

/** Serialized full checkpoint = regs, pc, retired, memory, caches. */
std::vector<std::uint8_t>
stateBytes(sim::SimulationEngine &e)
{
    return e.checkpoint().serialize();
}

/**
 * Serialized delta checkpoint: the dirty-page list and page payloads
 * since the last capture, plus the architectural state — the most
 * sensitive equality there is for the page-dirty epilogues.
 */
std::vector<std::uint8_t>
deltaBytes(sim::SimulationEngine &e)
{
    return e.checkpointDelta().serialize();
}

std::string
freshDir(const std::string &tag)
{
    return test::uniqueTempDir("trace_cache_" + tag);
}

} // namespace

TEST(CpuSuperblock, MatchesStepAcrossSuiteWorkloadsAndInputs)
{
    for (const std::string &name : workload::suiteNames()) {
        for (std::uint32_t input = 0; input < 3; ++input) {
            auto built = workload::buildWorkload(name, 0.01, input);

            sim::SimulationEngine sb(built.program,
                                     superblockConfig());
            sim::SimulationEngine slow(built.program);
            slow.setFastPathEnabled(false);
            sb.setHashedBbvEnabled(true);
            slow.setHashedBbvEnabled(true);

            ASSERT_EQ(sb.backend(), sim::ExecBackend::Superblock);
            ASSERT_EQ(slow.backend(), sim::ExecBackend::Interp);

            for (const std::uint64_t n : chunks) {
                sb.run(n, SimMode::FunctionalFast);
                slow.run(n, SimMode::FunctionalFast);
                // BBV stream: the pending ops-since-taken carry and
                // every (branch, count) pair must line up exactly.
                EXPECT_EQ(sb.harvestHashedBbv(),
                          slow.harvestHashedBbv())
                    << name << " input " << input << " chunk " << n;
                // Dirty-page sets + full architectural state at the
                // boundary (checkpointDelta also resets the page
                // baseline identically on both engines).
                EXPECT_EQ(deltaBytes(sb), deltaBytes(slow))
                    << name << " input " << input << " chunk " << n;
            }

            EXPECT_EQ(sb.totalOps(), slow.totalOps()) << name;
            EXPECT_EQ(sb.halted(), slow.halted()) << name;
            EXPECT_EQ(sb.core().pc(), slow.core().pc()) << name;
            EXPECT_EQ(stateBytes(sb), stateBytes(slow)) << name;
        }
    }
}

TEST(CpuSuperblock, MatchesFastOpBackendBitForBit)
{
    // The two fast backends must agree with each other as well (not
    // just each against step()), including per-mode op accounting.
    for (const std::string &name : workload::suiteNames()) {
        auto built = workload::buildWorkload(name, 0.01);

        sim::SimulationEngine sb(built.program, superblockConfig());
        sim::SimulationEngine fast(built.program);
        sb.setHashedBbvEnabled(true);
        fast.setHashedBbvEnabled(true);

        for (const std::uint64_t n : chunks) {
            sb.run(n, SimMode::FunctionalFast);
            fast.run(n, SimMode::FunctionalFast);
            EXPECT_EQ(sb.harvestHashedBbv(), fast.harvestHashedBbv())
                << name << " after chunk " << n;
        }
        EXPECT_EQ(sb.modeOps().functional_fast,
                  fast.modeOps().functional_fast)
            << name;
        EXPECT_EQ(stateBytes(sb), stateBytes(fast)) << name;
    }
}

TEST(CpuSuperblock, FullBbvHarvestsMatchStep)
{
    auto built = test::twoPhaseWorkload(60'000.0, 2);

    sim::SimulationEngine sb(built.program, superblockConfig());
    sim::SimulationEngine slow(built.program);
    slow.setFastPathEnabled(false);
    sb.setFullBbvEnabled(true);
    slow.setFullBbvEnabled(true);

    for (const std::uint64_t n : chunks) {
        sb.run(n, SimMode::FunctionalFast);
        slow.run(n, SimMode::FunctionalFast);
        EXPECT_EQ(sb.harvestFullBbv(), slow.harvestFullBbv())
            << "after chunk " << n;
    }
}

TEST(CpuSuperblock, RunsToHaltExactlyLikeStep)
{
    const isa::Program program = test::sumProgram(1000);

    sim::SimulationEngine sb(program, superblockConfig());
    sim::SimulationEngine slow(program);
    slow.setFastPathEnabled(false);

    sb.run(1'000'000, SimMode::FunctionalFast);
    slow.run(1'000'000, SimMode::FunctionalFast);

    EXPECT_TRUE(sb.halted());
    EXPECT_TRUE(slow.halted());
    EXPECT_EQ(sb.totalOps(), slow.totalOps());
    EXPECT_EQ(sb.core().reg(3), 1000ull * 1001 / 2);
    EXPECT_EQ(stateBytes(sb), stateBytes(slow));

    EXPECT_EQ(sb.run(100, SimMode::FunctionalFast).ops, 0u);
}

TEST(CpuSuperblock, ResumesMidBlockAfterRestore)
{
    // A checkpoint taken at an arbitrary chunk boundary can land the
    // PC in the middle of a basic block (no trace head): the runner
    // must bridge to the next leader through the interpreter without
    // disturbing equivalence.
    auto built = workload::buildWorkload("164.gzip", 0.01);

    sim::SimulationEngine base(built.program);
    base.run(12'345, SimMode::FunctionalFast);
    const sim::Checkpoint ckpt = base.checkpoint();

    sim::SimulationEngine sb(built.program, superblockConfig());
    sim::SimulationEngine slow(built.program);
    slow.setFastPathEnabled(false);
    sb.restore(ckpt);
    slow.restore(ckpt);

    for (const std::uint64_t n : chunks) {
        sb.run(n, SimMode::FunctionalFast);
        slow.run(n, SimMode::FunctionalFast);
    }
    EXPECT_EQ(stateBytes(sb), stateBytes(slow));
}

TEST(CpuSuperblock, FormationRoundTripsThroughSerialization)
{
    auto built = workload::buildWorkload("181.mcf", 0.01);
    const cpu::SuperblockSet formed =
        cpu::formSuperblocks(built.program);
    const std::uint64_t identity =
        cpu::superblockIdentity(built.program, {});

    const auto bytes = cpu::serializeSuperblocks(formed, identity);
    util::ReadError err = util::ReadError::Corrupt;
    const cpu::SuperblockSet loaded =
        cpu::deserializeSuperblocks(bytes, identity, err);

    ASSERT_EQ(err, util::ReadError::None);
    ASSERT_EQ(loaded.traces.size(), formed.traces.size());
    ASSERT_EQ(loaded.pool.size(), formed.pool.size());
    EXPECT_EQ(loaded.trace_head, formed.trace_head);
    EXPECT_EQ(loaded.block_last, formed.block_last);
    for (std::size_t i = 0; i < formed.pool.size(); ++i) {
        EXPECT_EQ(loaded.pool[i].imm, formed.pool[i].imm) << i;
        EXPECT_EQ(loaded.pool[i].pc, formed.pool[i].pc) << i;
        EXPECT_EQ(loaded.pool[i].cum, formed.pool[i].cum) << i;
        EXPECT_EQ(loaded.pool[i].aux, formed.pool[i].aux) << i;
        EXPECT_EQ(loaded.pool[i].target, formed.pool[i].target) << i;
        EXPECT_EQ(loaded.pool[i].kind, formed.pool[i].kind) << i;
    }

    // A different identity behind the same bytes is staleness (hash
    // collision), not damage: reform silently, never quarantine.
    err = util::ReadError::None;
    cpu::deserializeSuperblocks(bytes, identity ^ 1, err);
    EXPECT_EQ(err, util::ReadError::Stale);
}

TEST(CpuSuperblock, TraceCacheWarmRunSkipsFormation)
{
    const std::string dir = freshDir("warm");
    auto built = workload::buildWorkload("164.gzip", 0.01);

    cpu::TraceCache cold(dir);
    auto first = cold.loadOrForm(built.program);
    ASSERT_NE(first, nullptr);
    EXPECT_EQ(cold.stats().misses, 1u);
    EXPECT_EQ(cold.stats().disk_hits, 0u);

    // Same process, same cache: served from memory.
    cold.loadOrForm(built.program);
    EXPECT_EQ(cold.stats().mem_hits, 1u);
    EXPECT_EQ(cold.stats().misses, 1u);

    // "Fresh process" (a new cache over the same directory): the
    // stored artifact must satisfy the load with no formation.
    cpu::TraceCache warm(dir);
    auto second = warm.loadOrForm(built.program);
    ASSERT_NE(second, nullptr);
    EXPECT_EQ(warm.stats().disk_hits, 1u);
    EXPECT_EQ(warm.stats().misses, 0u);
    EXPECT_EQ(second->pool.size(), first->pool.size());
    EXPECT_EQ(second->trace_head, first->trace_head);
}

TEST(CpuSuperblock, TraceCacheQuarantinesCorruptFileAndReforms)
{
    const std::string dir = freshDir("corrupt");
    auto built = workload::buildWorkload("164.gzip", 0.01);

    cpu::TraceCache cold(dir);
    cold.loadOrForm(built.program);
    const std::string path = cold.pathFor(built.program, {});
    ASSERT_TRUE(std::filesystem::exists(path));

    // Flip one byte mid-file: the section CRCs must catch it.
    {
        std::fstream f(path, std::ios::in | std::ios::out |
                                 std::ios::binary);
        f.seekp(static_cast<std::streamoff>(
            std::filesystem::file_size(path) / 2));
        char byte = 0;
        f.read(&byte, 1);
        f.seekp(-1, std::ios::cur);
        byte = static_cast<char>(byte ^ 0x40);
        f.write(&byte, 1);
    }

    cpu::TraceCache damaged(dir);
    auto set = damaged.loadOrForm(built.program);
    ASSERT_NE(set, nullptr);
    EXPECT_EQ(damaged.stats().quarantined, 1u);
    EXPECT_EQ(damaged.stats().misses, 1u);
    EXPECT_TRUE(std::filesystem::exists(path + ".corrupt"));
    // The rebuild also re-persisted a healthy artifact.
    ASSERT_TRUE(std::filesystem::exists(path));
    cpu::TraceCache again(dir);
    again.loadOrForm(built.program);
    EXPECT_EQ(again.stats().disk_hits, 1u);
    EXPECT_EQ(again.stats().quarantined, 0u);
}

TEST(CpuSuperblock, ParallelEnginesShareOneFormedSet)
{
    // Engines on worker threads bind the same program concurrently;
    // the cache must hand every one the same immutable set, and the
    // runs must not interfere (TSan covers the synchronisation).
    auto built = workload::buildWorkload("164.gzip", 0.01);

    sim::SimulationEngine reference(built.program);
    reference.setFastPathEnabled(false);
    reference.run(50'000, SimMode::FunctionalFast);
    const auto expect = stateBytes(reference);

    std::vector<std::thread> threads;
    std::vector<int> ok(4, 0);
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&built, &ok, t, &expect] {
            sim::SimulationEngine e(built.program,
                                    superblockConfig());
            e.run(50'000, SimMode::FunctionalFast);
            ok[t] = stateBytes(e) == expect ? 1 : 0;
        });
    }
    for (std::thread &t : threads)
        t.join();
    for (int t = 0; t < 4; ++t)
        EXPECT_EQ(ok[t], 1) << "thread " << t;
}
