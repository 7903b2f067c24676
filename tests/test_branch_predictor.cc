/**
 * @file
 * Tests for the direction predictors and the branch unit's training
 * entry points.
 */

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "branch/btb.hh"
#include "branch/predictor.hh"
#include "cpu/dyn_inst.hh"
#include "isa/program.hh"
#include "timing/branch_unit.hh"
#include "util/random.hh"

using namespace pgss::branch;

namespace
{

/** Train/measure accuracy of @p pred on a generated outcome stream. */
template <typename NextOutcome>
double
accuracy(DirectionPredictor &pred, std::uint64_t pc, int n,
         NextOutcome next)
{
    int correct = 0;
    for (int i = 0; i < n; ++i) {
        const bool outcome = next(i);
        correct += pred.predict(pc) == outcome;
        pred.update(pc, outcome);
    }
    return static_cast<double>(correct) / n;
}

/**
 * The branch unit's training algorithm as a single function over
 * DynInst records, rebuilt from the public components with separate
 * predict()/update() calls: the oracle for both BranchUnit entry
 * points and the fused TournamentPredictor::train().
 */
struct ReferenceBranchUnit
{
    explicit ReferenceBranchUnit(const pgss::timing::BranchUnitConfig &c)
        : config(c), predictor(c.predictor_entries, c.history_bits),
          btb(c.btb_entries), ras(c.ras_depth)
    {
    }

    bool
    predictAndTrain(const pgss::cpu::DynInst &rec)
    {
        using pgss::isa::instAddr;
        const std::uint64_t pc_addr = instAddr(rec.pc);
        const std::uint64_t target_addr = instAddr(rec.next_pc);
        bool mispredict = false;
        if (rec.is_branch) {
            ++stats.branches;
            if (predictor.predict(pc_addr) != rec.taken) {
                mispredict = true;
            } else if (rec.taken) {
                std::uint64_t pred = 0;
                mispredict =
                    !btb.lookup(pc_addr, pred) || pred != target_addr;
            }
            predictor.update(pc_addr, rec.taken);
            if (rec.taken)
                btb.update(pc_addr, target_addr);
        } else {
            ++stats.jumps;
            const bool is_call = rec.op == pgss::isa::Opcode::Jal &&
                                 rec.rd == config.link_reg;
            const bool is_return = rec.op == pgss::isa::Opcode::Jalr &&
                                   rec.rs1 == config.link_reg;
            if (is_return) {
                mispredict = ras.pop() != target_addr;
                stats.ras_mispredicts += mispredict;
            } else {
                std::uint64_t pred = 0;
                mispredict =
                    !btb.lookup(pc_addr, pred) || pred != target_addr;
                btb.update(pc_addr, target_addr);
            }
            if (is_call)
                ras.push(instAddr(rec.pc + 1));
        }
        stats.taken += rec.taken;
        stats.mispredicts += mispredict;
        return mispredict;
    }

    pgss::timing::BranchUnitConfig config;
    TournamentPredictor predictor;
    Btb btb;
    ReturnAddressStack ras;
    pgss::timing::BranchStats stats;
};

/**
 * A random control stream over a small code region, shaped so every
 * path matters: biased and random branches, BTB hits and aliasing,
 * calls and returns through r0, r1 and r2 (so a link register of 0
 * or 1 sees both classes), and returns that mostly match the calls.
 */
std::vector<pgss::cpu::DynInst>
randomControlStream(std::uint64_t seed, int n)
{
    using pgss::isa::Opcode;
    pgss::util::Rng rng(seed);
    std::vector<std::uint64_t> calls;
    std::vector<pgss::cpu::DynInst> out;
    for (int i = 0; i < n; ++i) {
        pgss::cpu::DynInst rec;
        rec.pc = rng.nextBounded(600);
        const std::uint64_t kind = rng.nextBounded(4);
        if (kind < 2) {
            rec.op = kind == 0 ? Opcode::Beq : Opcode::Bne;
            rec.is_branch = true;
            rec.taken = rng.nextBool(rec.pc % 3 == 0 ? 0.5 : 0.85);
            rec.next_pc = rec.taken ? (rec.pc * 7 + rng.nextBounded(2)) % 600
                                    : rec.pc + 1;
        } else if (kind == 2) {
            rec.op = Opcode::Jal;
            rec.is_jump = true;
            rec.taken = true;
            rec.rd = static_cast<std::uint8_t>(rng.nextBounded(3));
            rec.next_pc = (rec.pc * 13) % 600;
            calls.push_back(rec.pc + 1);
        } else {
            rec.op = Opcode::Jalr;
            rec.is_jump = true;
            rec.taken = true;
            rec.rs1 = static_cast<std::uint8_t>(rng.nextBounded(3));
            if (!calls.empty() && rng.nextBool(0.8)) {
                rec.next_pc = calls.back();
                calls.pop_back();
            } else {
                rec.next_pc = rng.nextBounded(600);
            }
        }
        out.push_back(rec);
    }
    return out;
}

} // namespace

TEST(Counter2Bit, SaturatesBothEnds)
{
    using namespace counter;
    std::uint8_t c = 0;
    c = update(c, false);
    EXPECT_EQ(c, 0);
    c = update(update(update(update(c, true), true), true), true);
    EXPECT_EQ(c, 3);
    EXPECT_TRUE(taken(2));
    EXPECT_TRUE(taken(3));
    EXPECT_FALSE(taken(1));
    EXPECT_FALSE(taken(0));
}

TEST(Bimodal, LearnsStrongBias)
{
    BimodalPredictor p(1024);
    const double acc =
        accuracy(p, 0x40, 1000, [](int) { return true; });
    EXPECT_GT(acc, 0.99);
}

TEST(Bimodal, ResistsSingleFlip)
{
    BimodalPredictor p(1024);
    for (int i = 0; i < 10; ++i)
        p.update(0x40, true);
    p.update(0x40, false); // one anomaly
    EXPECT_TRUE(p.predict(0x40)); // still predicts taken
}

TEST(Bimodal, IndependentPcsIndependentState)
{
    BimodalPredictor p(1024);
    for (int i = 0; i < 10; ++i) {
        p.update(0x40, true);
        p.update(0x44, false);
    }
    EXPECT_TRUE(p.predict(0x40));
    EXPECT_FALSE(p.predict(0x44));
}

TEST(Gshare, LearnsAlternatingPattern)
{
    // Bimodal cannot beat 50% on strict alternation; gshare can use
    // history to get nearly everything right.
    GsharePredictor g(4096, 8);
    const double acc =
        accuracy(g, 0x80, 2000, [](int i) { return i % 2 == 0; });
    EXPECT_GT(acc, 0.95);

    BimodalPredictor b(4096);
    const double bacc =
        accuracy(b, 0x80, 2000, [](int i) { return i % 2 == 0; });
    EXPECT_LT(bacc, 0.6);
}

TEST(Gshare, LearnsPeriodFourPattern)
{
    GsharePredictor g(4096, 8);
    const double acc = accuracy(g, 0x80, 4000,
                                [](int i) { return i % 4 != 3; });
    EXPECT_GT(acc, 0.95);
}

TEST(Gshare, NearRandomOnRandomStream)
{
    GsharePredictor g(4096, 12);
    pgss::util::Rng rng(5);
    const double acc = accuracy(
        g, 0x80, 4000, [&rng](int) { return rng.nextBool(0.5); });
    EXPECT_GT(acc, 0.35);
    EXPECT_LT(acc, 0.65);
}

TEST(Tournament, TracksBestComponentOnMixedWorkload)
{
    // Branch A is strongly biased (bimodal's strength); branch B
    // alternates (gshare's strength). The tournament should do well
    // on both simultaneously.
    TournamentPredictor t(4096, 10);
    int correct_a = 0, correct_b = 0;
    const int n = 4000;
    for (int i = 0; i < n; ++i) {
        const bool out_a = true;
        const bool out_b = i % 2 == 0;
        correct_a += t.predict(0x100) == out_a;
        t.update(0x100, out_a);
        correct_b += t.predict(0x204) == out_b;
        t.update(0x204, out_b);
    }
    EXPECT_GT(correct_a / static_cast<double>(n), 0.97);
    EXPECT_GT(correct_b / static_cast<double>(n), 0.90);
}

TEST(Predictors, ResetRestoresWeaklyNotTaken)
{
    GsharePredictor g(256, 6);
    for (int i = 0; i < 100; ++i)
        g.update(0x40, true);
    g.reset();
    EXPECT_FALSE(g.predict(0x40));
}

class PredictorStateSweep : public ::testing::TestWithParam<int>
{
  protected:
    std::unique_ptr<DirectionPredictor>
    make() const
    {
        switch (GetParam()) {
          case 0:
            return std::make_unique<BimodalPredictor>(512);
          case 1:
            return std::make_unique<GsharePredictor>(512, 8);
          default:
            return std::make_unique<TournamentPredictor>(512, 8);
        }
    }
};

TEST_P(PredictorStateSweep, StateRoundTripPreservesPredictions)
{
    auto p = make();
    pgss::util::Rng rng(11);
    for (int i = 0; i < 500; ++i)
        p->update(rng.nextBounded(4096) * 4, rng.nextBool(0.6));
    const auto st = p->state();

    auto q = make();
    q->setState(st);
    for (std::uint64_t pc = 0; pc < 512 * 4; pc += 4)
        EXPECT_EQ(p->predict(pc), q->predict(pc)) << "pc " << pc;
}

INSTANTIATE_TEST_SUITE_P(AllPredictors, PredictorStateSweep,
                         ::testing::Values(0, 1, 2));

TEST(PredictorsDeathTest, NonPowerOfTwoTablePanics)
{
    EXPECT_DEATH(BimodalPredictor p(1000), "power of two");
    EXPECT_DEATH(GsharePredictor g(1000, 8), "power of two");
}

TEST(Tournament, FusedTrainMatchesPredictThenUpdate)
{
    TournamentPredictor fused(256, 8);
    TournamentPredictor split(256, 8);
    pgss::util::Rng rng(7);
    for (int i = 0; i < 50'000; ++i) {
        const std::uint64_t pc = rng.nextBounded(1024) * 4;
        const bool taken = rng.nextBool(pc % 12 == 0 ? 0.5 : 0.8);
        const bool predicted = split.predict(pc);
        split.update(pc, taken);
        ASSERT_EQ(fused.train(pc, taken), predicted) << "event " << i;
    }
    EXPECT_EQ(fused.state(), split.state());
}

TEST(BranchUnit, EntryPointsMatchReferenceOnRandomControlStream)
{
    for (const std::uint8_t link : {std::uint8_t{1}, std::uint8_t{0}}) {
        pgss::timing::BranchUnitConfig config;
        config.predictor_entries = 256;
        config.history_bits = 8;
        config.btb_entries = 128;
        config.ras_depth = 8;
        config.link_reg = link;

        ReferenceBranchUnit ref(config);
        pgss::timing::BranchUnit via_rec(config);
        pgss::timing::BranchUnit narrow(config);
        const auto stream = randomControlStream(100 + link, 60'000);
        for (std::size_t i = 0; i < stream.size(); ++i) {
            const pgss::cpu::DynInst &rec = stream[i];
            const bool expect = ref.predictAndTrain(rec);
            ASSERT_EQ(via_rec.predictAndTrain(rec), expect)
                << "link " << int(link) << " event " << i;
            const bool got =
                rec.is_branch
                    ? narrow.trainBranch(rec.pc, rec.taken, rec.next_pc)
                    : narrow.trainJump(rec.pc, rec.next_pc,
                                       narrow.isCall(rec.op, rec.rd),
                                       narrow.isReturn(rec.op, rec.rs1));
            ASSERT_EQ(got, expect) << "link " << int(link) << " event "
                                   << i;
        }

        for (const pgss::timing::BranchUnit *u : {&via_rec, &narrow}) {
            const pgss::timing::BranchStats &s = u->stats();
            EXPECT_EQ(s.branches, ref.stats.branches);
            EXPECT_EQ(s.jumps, ref.stats.jumps);
            EXPECT_EQ(s.mispredicts, ref.stats.mispredicts);
            EXPECT_EQ(s.taken, ref.stats.taken);
            EXPECT_EQ(s.ras_mispredicts, ref.stats.ras_mispredicts);
            EXPECT_EQ(u->state().predictor, ref.predictor.state());
            EXPECT_EQ(u->state().btb.tags, ref.btb.state().tags);
            EXPECT_EQ(u->state().btb.targets, ref.btb.state().targets);
            EXPECT_EQ(u->state().btb.valid, ref.btb.state().valid);
        }
        // The stream must exercise every path the oracle has.
        EXPECT_GT(ref.stats.ras_mispredicts, 0u);
        EXPECT_GT(ref.ras.stats().pops, ref.stats.ras_mispredicts);
        EXPECT_GT(ref.btb.stats().hits, 0u);
    }
}
