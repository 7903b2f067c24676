#include "timing/branch_unit.hh"

#include "isa/program.hh"
#include "obs/stats.hh"

namespace pgss::timing
{

BranchUnit::BranchUnit(const BranchUnitConfig &config)
    : config_(config),
      predictor_(config.predictor_entries, config.history_bits),
      btb_(config.btb_entries), ras_(config.ras_depth)
{
}

bool
BranchUnit::predictAndTrain(const cpu::DynInst &rec)
{
    if (rec.is_branch)
        return trainBranch(rec.pc, rec.taken, rec.next_pc);
    if (rec.is_jump)
        return trainJump(rec.pc, rec.next_pc, isCall(rec.op, rec.rd),
                         isReturn(rec.op, rec.rs1));
    return false;
}

bool
BranchUnit::trainBranch(std::uint64_t pc, bool taken,
                        std::uint64_t next_pc)
{
    const std::uint64_t pc_addr = isa::instAddr(pc);
    ++stats_.branches;
    bool mispredict = predictor_.train(pc_addr, taken) != taken;
    if (taken) {
        const std::uint64_t target_addr = isa::instAddr(next_pc);
        // The BTB is looked up only when the direction was right.
        std::uint64_t pred_target = 0;
        if (!mispredict && (!btb_.lookup(pc_addr, pred_target) ||
                            pred_target != target_addr))
            mispredict = true;
        btb_.update(pc_addr, target_addr);
        ++stats_.taken;
    }
    if (mispredict)
        ++stats_.mispredicts;
    return mispredict;
}

bool
BranchUnit::trainJump(std::uint64_t pc, std::uint64_t next_pc,
                      bool is_call, bool is_return)
{
    const std::uint64_t pc_addr = isa::instAddr(pc);
    const std::uint64_t target_addr = isa::instAddr(next_pc);
    ++stats_.jumps;

    bool mispredict = false;
    if (is_return) {
        // Returns are predicted through the RAS.
        const std::uint64_t pred = ras_.pop();
        mispredict = pred != target_addr;
        if (mispredict)
            ++stats_.ras_mispredicts;
    } else {
        std::uint64_t pred_target = 0;
        if (!btb_.lookup(pc_addr, pred_target) ||
            pred_target != target_addr) {
            mispredict = true;
        }
        btb_.update(pc_addr, target_addr);
    }
    if (is_call)
        ras_.push(isa::instAddr(pc + 1));

    ++stats_.taken;
    if (mispredict)
        ++stats_.mispredicts;
    return mispredict;
}

void
BranchUnit::registerStats(obs::Group &group) const
{
    group.addCounter("lookups", "conditional branches predicted",
                     [this] { return stats_.branches; });
    group.addCounter("jumps", "unconditional transfers predicted",
                     [this] { return stats_.jumps; });
    group.addCounter("mispredicts",
                     "wrong direction or wrong/missing target",
                     [this] { return stats_.mispredicts; });
    group.addCounter("taken", "taken control transfers",
                     [this] { return stats_.taken; });
    group.addFormula("mispredict_ratio",
                     "mispredicts / conditional branches",
                     [this] { return stats_.mispredictRatio(); });

    obs::Group &btb = group.child("btb", "branch target buffer");
    btb.addCounter("lookups", "BTB lookups",
                   [this] { return btb_.stats().lookups; });
    btb.addCounter("hits", "BTB tag hits",
                   [this] { return btb_.stats().hits; });
    btb.addFormula("hit_ratio", "hits / lookups",
                   [this] { return btb_.stats().hitRatio(); });

    obs::Group &ras = group.child("ras", "return address stack");
    ras.addCounter("pushes", "calls pushed",
                   [this] { return ras_.stats().pushes; });
    ras.addCounter("pops", "returns predicted",
                   [this] { return ras_.stats().pops; });
    ras.addCounter("overflows", "pushes that wrapped a full stack",
                   [this] { return ras_.stats().overflows; });
    ras.addCounter("underflows", "pops of an empty stack",
                   [this] { return ras_.stats().underflows; });
    ras.addCounter("mispredicts", "returns the RAS got wrong",
                   [this] { return stats_.ras_mispredicts; });
}

void
BranchUnit::reset()
{
    predictor_.reset();
    btb_.reset();
    ras_.reset();
}

BranchUnit::State
BranchUnit::state() const
{
    return {predictor_.state(), btb_.state()};
}

void
BranchUnit::setState(const State &st)
{
    predictor_.setState(st.predictor);
    btb_.setState(st.btb);
    ras_.reset(); // transient; not part of checkpoints
}

} // namespace pgss::timing
