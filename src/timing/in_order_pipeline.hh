/**
 * @file
 * Detailed timing model: a 4-wide-issue, superscalar, in-order core —
 * the configuration the paper simulates. The model is execute-first: it
 * consumes retired-instruction records and advances a cycle clock
 * respecting fetch bandwidth, I-cache misses, in-order issue, operand
 * readiness (scoreboard), functional-unit latencies and structural
 * hazards, D-cache latency for loads, a store buffer, and branch
 * misprediction bubbles. For an in-order machine this reproduces the
 * issue schedule a cycle-by-cycle model would produce, at the speed a
 * full-program ground-truth run needs.
 */

#ifndef PGSS_TIMING_IN_ORDER_PIPELINE_HH
#define PGSS_TIMING_IN_ORDER_PIPELINE_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "cpu/dyn_inst.hh"
#include "isa/instruction.hh"
#include "isa/program.hh"
#include "mem/hierarchy.hh"
#include "timing/branch_unit.hh"

namespace pgss::obs
{
class Group;
}

namespace pgss::timing
{

/** Core width, penalties, and functional-unit latencies (cycles). */
struct PipelineConfig
{
    std::uint32_t width = 4;             ///< issue width
    std::uint32_t mispredict_penalty = 8; ///< front-end refill bubbles
    std::uint32_t taken_branch_bubble = 1; ///< redirect on taken branch

    std::uint32_t int_alu_latency = 1;
    std::uint32_t int_mul_latency = 3;   ///< pipelined
    std::uint32_t int_div_latency = 20;  ///< unpipelined
    std::uint32_t fp_add_latency = 3;    ///< pipelined
    std::uint32_t fp_mul_latency = 4;    ///< pipelined
    std::uint32_t fp_div_latency = 24;   ///< unpipelined
    std::uint32_t store_latency = 1;     ///< issue occupancy of a store

    std::uint32_t store_buffer_entries = 8;
    std::uint32_t bytes_per_inst = 4;    ///< for I-cache line mapping
};

/**
 * Counters the detailed model accumulates. The stall counters
 * attribute each instruction whose issue slipped past the current
 * cycle to the binding constraint (checked in the order fetch,
 * operands, divider, store buffer, width), so they sum to the number
 * of issue-delayed instructions.
 */
struct PipelineStats
{
    std::uint64_t instructions = 0;
    std::uint64_t mispredicts = 0;
    std::uint64_t icache_line_fetches = 0;
    std::uint64_t store_buffer_stalls = 0;

    std::uint64_t fetch_stalls = 0;   ///< I-cache miss gated issue
    std::uint64_t operand_stalls = 0; ///< source register not ready
    std::uint64_t div_stalls = 0;     ///< unpipelined divider busy
    std::uint64_t width_stalls = 0;   ///< issue width exhausted
};

/**
 * The timing facts of one static instruction, decoded once per
 * program (InOrderPipeline::decodeProgram), or taken per record from
 * the DynInst by consume().
 */
struct OpTiming
{
    /** Unpipelined unit the instruction occupies, if any. */
    enum class Divider : std::uint8_t
    {
        None,
        Int,
        Fp
    };

    std::uint32_t latency = 1; ///< result latency (loads: resolved per access)
    std::uint8_t rd = 0;
    std::uint8_t rs1 = 0;
    std::uint8_t rs2 = 0;
    bool reads_rs1 = false;
    bool reads_rs2 = false;
    bool writes_rd = false; ///< false when rd is r0
    bool is_store = false;
    Divider divider = Divider::None;
};

/**
 * The timing model. Owns nothing: caches and the branch unit are
 * shared with the functional-warming path and passed in by reference.
 *
 * One instruction is timed in four stages, called in this order:
 * beginOp() (I-line fetch, then issue), memOp() for a load or store,
 * controlOp() for a branch or jump, and endOp(). The order is the
 * order of cache and predictor accesses, which matters because the
 * L1I and L1D share the L2. consume() is these stages applied to one
 * DynInst; the engine's detailed hooks call them from the FastOp loop
 * with no DynInst at all.
 */
class InOrderPipeline
{
  public:
    /**
     * @param config core parameters.
     * @param hierarchy shared cache hierarchy (timed accesses).
     * @param branch_unit shared branch prediction state.
     */
    InOrderPipeline(const PipelineConfig &config,
                    mem::CacheHierarchy &hierarchy,
                    BranchUnit &branch_unit);

    /** Advance the clock over one retired instruction. */
    void consume(const cpu::DynInst &rec);

    /**
     * The timing facts of every static instruction of @p program under
     * this configuration, by instruction index.
     */
    std::vector<OpTiming> decodeProgram(const isa::Program &program) const;

    /**
     * Stage 1: fetch the I-line of the instruction at index @p pc
     * when it starts a new line, then issue it in order, width-limited
     * and with its operands ready, attributing any delay to the
     * binding constraint. @p t must stay valid until endOp().
     */
    void beginOp(std::uint64_t pc, const OpTiming &t);

    /** Stage 2: the load's latency, or the store's buffer drain. */
    void memOp(std::uint64_t addr, bool is_store);

    /** Stage 3: the redirect and bubbles of a resolved transfer. */
    void controlOp(bool mispredict, bool taken);

    /** Stage 4: divider occupancy, result readiness, retirement. */
    void endOp();

    /** Current cycle count (monotonic across the whole run). */
    std::uint64_t cycles() const { return cur_cycle_; }

    /**
     * Re-synchronise transient state after a functional fast-forward
     * gap: operands become ready "now", in-flight unit/store-buffer
     * occupancy clears, and the fetch stream restarts. The subsequent
     * detailed warm-up window (SMARTS-style) re-fills realistic
     * transient state before measurement begins.
     */
    void resync();

    /** Accumulated statistics. */
    const PipelineStats &stats() const { return stats_; }

    /** Reset statistics (timing state retained). */
    void clearStats() { stats_ = PipelineStats(); }

    /**
     * Register instruction/cycle counters, the stall-cause breakdown,
     * and ipc/issue-occupancy formulas into @p group. The pipeline
     * must outlive dumps of the enclosing registry.
     */
    void registerStats(obs::Group &group) const;

    const PipelineConfig &config() const { return config_; }

  private:
    PipelineConfig config_;
    mem::CacheHierarchy &hierarchy_;
    BranchUnit &branch_unit_;
    std::uint32_t line_shift_; ///< log2(L1I line bytes)

    std::uint64_t cur_cycle_ = 0;
    std::uint32_t issued_this_cycle_ = 0;
    std::uint64_t fetch_ready_ = 0;
    std::uint64_t cur_fetch_line_ = ~0ull;
    std::array<std::uint64_t, isa::num_regs> reg_ready_{};
    std::uint64_t int_div_busy_until_ = 0;
    std::uint64_t fp_div_busy_until_ = 0;
    std::vector<std::uint64_t> store_buffer_; ///< completion times ring
    std::uint32_t store_buffer_head_ = 0;

    // The instruction between beginOp() and endOp().
    const OpTiming *op_ = nullptr;
    std::uint64_t op_issue_ = 0;
    std::uint32_t op_latency_ = 0;

    PipelineStats stats_;
};

inline void
InOrderPipeline::beginOp(std::uint64_t pc, const OpTiming &t)
{
    // ---- Fetch: I-cache access on each new line.
    const std::uint64_t inst_addr = pc * config_.bytes_per_inst;
    const std::uint64_t line = inst_addr >> line_shift_;
    if (line != cur_fetch_line_) {
        cur_fetch_line_ = line;
        ++stats_.icache_line_fetches;
        const std::uint32_t fetch_lat = hierarchy_.instFetch(inst_addr);
        if (fetch_lat > 0)
            fetch_ready_ = std::max(fetch_ready_, cur_cycle_) + fetch_lat;
    }

    // ---- Issue: in-order, width-limited, operands ready. Track
    // which constraint last raised the issue cycle so stalls can be
    // attributed to their binding cause.
    enum class Stall : std::uint8_t
    {
        None,
        Fetch,
        Operand,
        Div,
        StoreBuffer,
        Width
    };
    Stall cause = Stall::None;
    std::uint64_t issue = cur_cycle_;
    if (fetch_ready_ > issue) {
        issue = fetch_ready_;
        cause = Stall::Fetch;
    }
    if (t.reads_rs1 && reg_ready_[t.rs1] > issue) {
        issue = reg_ready_[t.rs1];
        cause = Stall::Operand;
    }
    if (t.reads_rs2 && reg_ready_[t.rs2] > issue) {
        issue = reg_ready_[t.rs2];
        cause = Stall::Operand;
    }

    // Structural hazard: unpipelined divide units.
    if (t.divider == OpTiming::Divider::Int &&
        int_div_busy_until_ > issue) {
        issue = int_div_busy_until_;
        cause = Stall::Div;
    } else if (t.divider == OpTiming::Divider::Fp &&
               fp_div_busy_until_ > issue) {
        issue = fp_div_busy_until_;
        cause = Stall::Div;
    }

    // Structural hazard: full store buffer.
    if (t.is_store) {
        const std::uint64_t oldest = store_buffer_[store_buffer_head_];
        if (oldest > issue) {
            issue = oldest;
            cause = Stall::StoreBuffer;
            ++stats_.store_buffer_stalls;
        }
    }

    if (issue == cur_cycle_ && issued_this_cycle_ >= config_.width) {
        issue = cur_cycle_ + 1;
        cause = Stall::Width;
    }
    if (issue > cur_cycle_) {
        switch (cause) {
          case Stall::Fetch:
            ++stats_.fetch_stalls;
            break;
          case Stall::Operand:
            ++stats_.operand_stalls;
            break;
          case Stall::Div:
            ++stats_.div_stalls;
            break;
          case Stall::Width:
            ++stats_.width_stalls;
            break;
          case Stall::StoreBuffer: // counted above
          case Stall::None:
            break;
        }
        cur_cycle_ = issue;
        issued_this_cycle_ = 0;
    }
    ++issued_this_cycle_;

    op_ = &t;
    op_issue_ = issue;
    op_latency_ = t.latency;
}

inline void
InOrderPipeline::memOp(std::uint64_t addr, bool is_store)
{
    if (!is_store) {
        op_latency_ = hierarchy_.dataAccess(addr, false);
        return;
    }
    // The store drains through the store buffer; the D-cache tags are
    // updated and the buffer entry is busy for the miss time.
    const std::uint32_t drain = hierarchy_.dataAccess(addr, true);
    store_buffer_[store_buffer_head_] = op_issue_ + drain;
    if (++store_buffer_head_ == store_buffer_.size())
        store_buffer_head_ = 0;
}

inline void
InOrderPipeline::controlOp(bool mispredict, bool taken)
{
    if (mispredict) {
        ++stats_.mispredicts;
        fetch_ready_ = op_issue_ + 1 + config_.mispredict_penalty;
    } else if (taken) {
        fetch_ready_ = std::max(fetch_ready_, op_issue_) +
                       config_.taken_branch_bubble;
    }
    if (taken)
        cur_fetch_line_ = ~0ull; // next fetch starts a new group
}

inline void
InOrderPipeline::endOp()
{
    const OpTiming &t = *op_;
    if (t.divider == OpTiming::Divider::Int)
        int_div_busy_until_ = op_issue_ + op_latency_;
    else if (t.divider == OpTiming::Divider::Fp)
        fp_div_busy_until_ = op_issue_ + op_latency_;

    if (t.writes_rd)
        reg_ready_[t.rd] = op_issue_ + op_latency_;

    ++stats_.instructions;
}

} // namespace pgss::timing

#endif // PGSS_TIMING_IN_ORDER_PIPELINE_HH
