/**
 * @file
 * Differential tests for the batched fast-forward fast path: runFast()
 * must retire exactly the architectural state and BBV harvests the
 * step() interpreter produces, over every suite workload and across
 * arbitrary chunk boundaries. The FunctionalWarm half additionally
 * pins cache, predictor and RAS state to the step() warm loop.
 */

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cpu/functional_core.hh"
#include "progcheck/cfg.hh"
#include "sim/checkpoint.hh"
#include "sim/engine.hh"
#include "tests/helpers.hh"
#include "workload/program_builder.hh"
#include "workload/suite.hh"

using namespace pgss;
using sim::SimMode;

namespace
{

/** Deliberately awkward chunk sizes to stress carry-over state. */
const std::uint64_t chunks[] = {1, 7, 12'345, 99'991, 250'000};

/** Serialized full checkpoint = regs, pc, retired, memory, caches. */
std::vector<std::uint8_t>
stateBytes(sim::SimulationEngine &e)
{
    return e.checkpoint().serialize();
}

/** Which BBV trackers a warm differential run enables. */
enum class Bbv
{
    Off,
    Hashed,
    Full,
};

/** Every CacheStats and BranchStats counter, flattened. */
std::vector<std::uint64_t>
warmStats(sim::SimulationEngine &e)
{
    std::vector<std::uint64_t> v;
    const mem::CacheHierarchy &h = e.hierarchy();
    for (const mem::Cache *c : {&h.l1i(), &h.l1d(), &h.l2()}) {
        v.push_back(c->stats().hits);
        v.push_back(c->stats().misses);
        v.push_back(c->stats().writebacks);
    }
    const timing::BranchStats &b = e.branchUnit().stats();
    v.insert(v.end(), {b.branches, b.jumps, b.mispredicts, b.taken,
                       b.ras_mispredicts});
    return v;
}

/**
 * Run a fast and a step() engine side by side in FunctionalWarm over
 * the awkward chunk sizes; after every chunk compare serialized
 * checkpoints (arch, memory, caches, predictor, BTB, warming dedup
 * line), every cache/branch counter and both BBV harvests. Then a
 * DetailedMeasure window must take the same cycles: the RAS is not
 * in checkpoints, so this is where a call/return misclassification
 * would show.
 */
void
expectWarmMatchesStep(const isa::Program &program, Bbv bbv,
                      const std::string &label,
                      const sim::EngineConfig &config = {})
{
    sim::SimulationEngine fast(program, config);
    sim::SimulationEngine slow(program, config);
    slow.setFastPathEnabled(false);
    for (sim::SimulationEngine *e : {&fast, &slow}) {
        e->setHashedBbvEnabled(bbv == Bbv::Hashed);
        e->setFullBbvEnabled(bbv == Bbv::Full);
    }

    for (const std::uint64_t n : chunks) {
        const sim::RunResult rf = fast.run(n, SimMode::FunctionalWarm);
        const sim::RunResult rs = slow.run(n, SimMode::FunctionalWarm);
        ASSERT_EQ(rf.ops, rs.ops) << label << " chunk " << n;
        ASSERT_EQ(stateBytes(fast), stateBytes(slow))
            << label << " after chunk " << n;
        EXPECT_EQ(warmStats(fast), warmStats(slow))
            << label << " after chunk " << n;
        EXPECT_EQ(fast.harvestHashedBbvRaw(), slow.harvestHashedBbvRaw())
            << label << " after chunk " << n;
        EXPECT_EQ(fast.harvestFullBbv(), slow.harvestFullBbv())
            << label << " after chunk " << n;
    }

    const sim::RunResult mf = fast.run(20'000, SimMode::DetailedMeasure);
    const sim::RunResult ms = slow.run(20'000, SimMode::DetailedMeasure);
    EXPECT_EQ(mf.ops, ms.ops) << label;
    EXPECT_EQ(mf.cycles, ms.cycles) << label;
    EXPECT_EQ(warmStats(fast), warmStats(slow)) << label;
}

void
expectSuiteWarmMatchesStep(Bbv bbv)
{
    for (const std::string &name : workload::suiteNames()) {
        auto built = workload::buildWorkload(name, 0.01);
        expectWarmMatchesStep(built.program, bbv, name);
    }
}

} // namespace

TEST(CpuFastPath, MatchesStepAcrossSuiteWorkloads)
{
    for (const std::string &name : workload::suiteNames()) {
        auto built = workload::buildWorkload(name, 0.01);

        sim::SimulationEngine fast(built.program);
        sim::SimulationEngine slow(built.program);
        slow.setFastPathEnabled(false);

        for (const std::uint64_t n : chunks) {
            fast.run(n, SimMode::FunctionalFast);
            slow.run(n, SimMode::FunctionalFast);
        }

        EXPECT_EQ(fast.totalOps(), slow.totalOps()) << name;
        EXPECT_EQ(fast.halted(), slow.halted()) << name;
        EXPECT_EQ(fast.core().pc(), slow.core().pc()) << name;
        EXPECT_EQ(stateBytes(fast), stateBytes(slow)) << name;
    }
}

TEST(CpuFastPath, HashedBbvHarvestsMatchStep)
{
    for (const std::string &name : workload::suiteNames()) {
        auto built = workload::buildWorkload(name, 0.01);

        sim::SimulationEngine fast(built.program);
        sim::SimulationEngine slow(built.program);
        slow.setFastPathEnabled(false);
        fast.setHashedBbvEnabled(true);
        slow.setHashedBbvEnabled(true);

        // Harvest after every chunk: the pending taken-branch op
        // count must carry across runFast() calls exactly as the
        // step() path carries it.
        for (const std::uint64_t n : chunks) {
            fast.run(n, SimMode::FunctionalFast);
            slow.run(n, SimMode::FunctionalFast);
            EXPECT_EQ(fast.harvestHashedBbv(),
                      slow.harvestHashedBbv())
                << name << " after chunk " << n;
        }
        EXPECT_EQ(fast.totalOps(), slow.totalOps()) << name;
    }
}

TEST(CpuFastPath, FullBbvHarvestsMatchStep)
{
    auto built = test::twoPhaseWorkload(60'000.0, 2);

    sim::SimulationEngine fast(built.program);
    sim::SimulationEngine slow(built.program);
    slow.setFastPathEnabled(false);
    fast.setFullBbvEnabled(true);
    slow.setFullBbvEnabled(true);

    for (const std::uint64_t n : chunks) {
        fast.run(n, SimMode::FunctionalFast);
        slow.run(n, SimMode::FunctionalFast);
        EXPECT_EQ(fast.harvestFullBbv(), slow.harvestFullBbv())
            << "after chunk " << n;
    }
}

TEST(CpuFastPath, RunsToHaltExactlyLikeStep)
{
    const isa::Program program = test::sumProgram(1000);

    sim::SimulationEngine fast(program);
    sim::SimulationEngine slow(program);
    slow.setFastPathEnabled(false);

    // Ask for far more ops than the program has: both paths must
    // stop at Halt with identical retired counts and register state.
    fast.run(1'000'000, SimMode::FunctionalFast);
    slow.run(1'000'000, SimMode::FunctionalFast);

    EXPECT_TRUE(fast.halted());
    EXPECT_TRUE(slow.halted());
    EXPECT_EQ(fast.totalOps(), slow.totalOps());
    EXPECT_EQ(fast.core().reg(3), slow.core().reg(3));
    EXPECT_EQ(fast.core().reg(3), 1000ull * 1001 / 2);
    EXPECT_EQ(stateBytes(fast), stateBytes(slow));

    // Further runs on a halted engine retire nothing on either path.
    EXPECT_EQ(fast.run(100, SimMode::FunctionalFast).ops, 0u);
    EXPECT_EQ(slow.run(100, SimMode::FunctionalFast).ops, 0u);
}

TEST(CpuFastPath, CoreLevelRunFastMatchesStep)
{
    auto built = test::twoPhaseWorkload(50'000.0, 1);

    mem::MainMemory mem_a(built.program.data_bytes);
    mem::MainMemory mem_b(built.program.data_bytes);
    for (mem::MainMemory *m : {&mem_a, &mem_b}) {
        auto image = built.program.data_words;
        image.resize(m->words().size(), 0);
        m->setWords(std::move(image));
    }
    cpu::FunctionalCore a(built.program, mem_a);
    cpu::FunctionalCore b(built.program, mem_b);

    const std::uint64_t done = a.runFast(30'000, nullptr);
    cpu::DynInst rec;
    std::uint64_t stepped = 0;
    while (stepped < 30'000 && b.step(rec))
        ++stepped;

    EXPECT_EQ(done, stepped);
    EXPECT_EQ(a.pc(), b.pc());
    EXPECT_EQ(a.retired(), b.retired());
    for (int r = 0; r < isa::num_regs; ++r)
        EXPECT_EQ(a.reg(r), b.reg(r)) << "reg " << r;
    EXPECT_EQ(mem_a.words(), mem_b.words());
}

TEST(CpuFastPathWarm, MatchesStepAcrossSuiteWithBbvOff)
{
    expectSuiteWarmMatchesStep(Bbv::Off);
}

TEST(CpuFastPathWarm, MatchesStepAcrossSuiteWithHashedBbv)
{
    expectSuiteWarmMatchesStep(Bbv::Hashed);
}

TEST(CpuFastPathWarm, MatchesStepAcrossSuiteWithFullBbv)
{
    expectSuiteWarmMatchesStep(Bbv::Full);
}

TEST(CpuFastPathWarm, MatchesStepWithLinkRegisterZero)
{
    // With r0 as the link register every Jal to r0 is a call and every
    // Jalr through r0 a return. The fast table remaps rd == r0, so
    // the warm path must classify from the original instruction. The
    // suite links through r1, so this loop makes r0-linked calls that
    // the RAS predicts only when they are classified as calls.
    using isa::Opcode;
    workload::ProgramBuilder b("r0-calls");
    b.setVerifyOnFinalize(false); // r0 linkage is off-convention
    b.emit(Opcode::Addi, 2, 0, 0, 20'000);               // r2 = count
    const std::uint32_t loop = b.here();
    const std::uint32_t call = b.emit(Opcode::Jal, 0, 0, 0, 0);
    const std::uint32_t after = b.emit(Opcode::Jal, 0, 0, 0, 0);
    const std::uint32_t callee = b.here();
    b.emit(Opcode::Addi, 3, 3, 0, 1);
    b.emit(Opcode::Jalr, 0, 0, 0, after);                // "return"
    const std::uint32_t tail = b.here();
    b.emit(Opcode::Addi, 2, 2, 0, -1);
    const std::uint32_t back = b.emitBranch(Opcode::Bne, 2, 0);
    b.emit(Opcode::Halt, 0, 0, 0, 0);
    b.patchTarget(call, callee);
    b.patchTarget(after, tail);
    b.patchTarget(back, loop);
    const isa::Program program = b.finalize(0);

    sim::EngineConfig config;
    config.branch.link_reg = 0;
    expectWarmMatchesStep(program, Bbv::Hashed, "r0-calls", config);

    // The calls really were predicted through the RAS.
    sim::SimulationEngine e(program, config);
    e.run(1'000'000, SimMode::FunctionalWarm);
    EXPECT_TRUE(e.halted());
    EXPECT_LT(e.branchUnit().stats().ras_mispredicts, 100u);
}

TEST(CpuFastPathWarm, CheckpointRestoreReplaysIdentically)
{
    auto built = test::storingWorkload(60'000.0, 3);
    const progcheck::Cfg cfg = progcheck::buildCfg(built.program);
    const auto leader = [&cfg](std::uint64_t pc) {
        return cfg.blocks[cfg.block_of[pc]].first == pc;
    };

    // Both fast-forward modes run the FastOp loop (with and without
    // warm hooks); each must resume from a restore exactly like step().
    for (const SimMode mode :
         {SimMode::FunctionalWarm, SimMode::FunctionalFast}) {
        SCOPED_TRACE(sim::modeName(mode));
        sim::SimulationEngine first(built.program);
        first.setHashedBbvEnabled(true);
        first.run(123'457, mode);
        // Step on to the first pc inside a basic block (not a
        // leader), so the restored runs start mid-block with a
        // nonzero ops-since-taken carry.
        for (int i = 0; i < 64 && leader(first.core().pc()); ++i)
            first.run(1, mode);
        const sim::Checkpoint mid = first.checkpoint();
        first.harvestHashedBbvRaw(); // a restore starts a fresh period
        first.run(99'991, mode);
        const std::vector<double> bbv_first = first.harvestHashedBbvRaw();
        const std::vector<std::uint8_t> bytes_first = stateBytes(first);

        // A fast and a step() engine restored from the same
        // checkpoint replay the continuous run's state bit for bit,
        // and agree with each other on the detailed window that
        // follows (both start with the empty RAS a restore leaves).
        sim::SimulationEngine fast(built.program);
        sim::SimulationEngine slow(built.program);
        slow.setFastPathEnabled(false);
        for (sim::SimulationEngine *e : {&fast, &slow}) {
            e->setHashedBbvEnabled(true);
            e->restore(mid);
            ASSERT_FALSE(leader(e->core().pc()));
            e->run(99'991, mode);
            EXPECT_EQ(e->harvestHashedBbvRaw(), bbv_first);
            EXPECT_EQ(stateBytes(*e), bytes_first);
        }
        const sim::RunResult mf =
            fast.run(20'000, SimMode::DetailedMeasure);
        const sim::RunResult ms =
            slow.run(20'000, SimMode::DetailedMeasure);
        EXPECT_EQ(mf.cycles, ms.cycles);
        EXPECT_EQ(warmStats(fast), warmStats(slow));
        EXPECT_EQ(stateBytes(fast), stateBytes(slow));
    }
}
