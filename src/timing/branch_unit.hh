/**
 * @file
 * Front-end branch machinery shared by functional fast-forwarding and
 * detailed simulation: tournament direction predictor, BTB, and a
 * return-address stack. Keeping one instance for both modes is what
 * makes SMARTS/PGSS functional warming meaningful — predictor state
 * evolves identically whether or not timing is being modelled.
 */

#ifndef PGSS_TIMING_BRANCH_UNIT_HH
#define PGSS_TIMING_BRANCH_UNIT_HH

#include <cstdint>

#include "branch/btb.hh"
#include "branch/predictor.hh"
#include "cpu/dyn_inst.hh"

namespace pgss::obs
{
class Group;
}

namespace pgss::timing
{

/** Branch-unit sizing. */
struct BranchUnitConfig
{
    std::uint32_t predictor_entries = 4096;
    std::uint32_t history_bits = 12;
    std::uint32_t btb_entries = 2048;
    std::uint32_t ras_depth = 16;
    /** Link register: Jal rd==link is a call, Jalr rs1==link a return. */
    std::uint8_t link_reg = 1;
};

/** Aggregate branch statistics. */
struct BranchStats
{
    std::uint64_t branches = 0;      ///< conditional branches seen
    std::uint64_t jumps = 0;         ///< unconditional transfers seen
    std::uint64_t mispredicts = 0;   ///< direction or target wrong
    std::uint64_t taken = 0;         ///< taken control transfers
    std::uint64_t ras_mispredicts = 0; ///< returns the RAS got wrong

    /** Misprediction ratio over conditional branches. */
    double
    mispredictRatio() const
    {
        return branches ? static_cast<double>(mispredicts) / branches
                        : 0.0;
    }
};

/**
 * Owns all branch-prediction state and exposes the one operation both
 * simulation modes need: predict this control instruction and train
 * on its outcome. trainBranch()/trainJump() are the implementation;
 * predictAndTrain() unpacks a DynInst into them, and the warm fast
 * path calls them directly without building one.
 */
class BranchUnit
{
  public:
    explicit BranchUnit(const BranchUnitConfig &config);

    /**
     * Predict and train on one retired control-flow instruction.
     * @param rec the retired instruction (branch or jump).
     * @return true when the front end would have misfetched: wrong
     *         direction, or taken with a wrong/missing target.
     */
    bool predictAndTrain(const cpu::DynInst &rec);

    /**
     * Predict and train on one retired conditional branch.
     * @param pc instruction index of the branch.
     * @param taken resolved direction.
     * @param next_pc index of the next instruction (the target when
     *        taken).
     * @return true when the front end would have misfetched.
     */
    bool trainBranch(std::uint64_t pc, bool taken,
                     std::uint64_t next_pc);

    /**
     * Predict and train on one retired unconditional jump (always
     * taken). Classify it with isCall()/isReturn().
     * @return true when the front end would have misfetched.
     */
    bool trainJump(std::uint64_t pc, std::uint64_t next_pc,
                   bool is_call, bool is_return);

    /** Jal writing the link register: a call (pushes the RAS). */
    bool
    isCall(isa::Opcode op, std::uint8_t rd) const
    {
        return op == isa::Opcode::Jal && rd == config_.link_reg;
    }

    /** Jalr through the link register: a return (pops the RAS). */
    bool
    isReturn(isa::Opcode op, std::uint8_t rs1) const
    {
        return op == isa::Opcode::Jalr && rs1 == config_.link_reg;
    }

    /** Accumulated statistics. */
    const BranchStats &stats() const { return stats_; }

    /** Reset statistics (tables retained). */
    void clearStats() { stats_ = BranchStats(); }

    /**
     * Register predictor counters into @p group plus "btb"/"ras"
     * child groups. The unit must outlive dumps of the enclosing
     * registry.
     */
    void registerStats(obs::Group &group) const;

    /** Reset all tables to power-on state. */
    void reset();

    /** Serialized predictor+BTB state for checkpointing. */
    struct State
    {
        std::vector<std::uint8_t> predictor;
        branch::Btb::State btb;
    };

    State state() const;
    void setState(const State &st);

    const BranchUnitConfig &config() const { return config_; }

  private:
    BranchUnitConfig config_;
    branch::TournamentPredictor predictor_;
    branch::Btb btb_;
    branch::ReturnAddressStack ras_;
    BranchStats stats_;
};

} // namespace pgss::timing

#endif // PGSS_TIMING_BRANCH_UNIT_HH
