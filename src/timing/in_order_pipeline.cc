#include "timing/in_order_pipeline.hh"

#include <algorithm>
#include <bit>

#include "isa/program.hh"
#include "obs/stats.hh"

namespace pgss::timing
{

InOrderPipeline::InOrderPipeline(const PipelineConfig &config,
                                 mem::CacheHierarchy &hierarchy,
                                 BranchUnit &branch_unit)
    : config_(config), hierarchy_(hierarchy), branch_unit_(branch_unit),
      line_shift_(static_cast<std::uint32_t>(
          std::countr_zero(hierarchy.config().l1i.line_bytes))),
      store_buffer_(config.store_buffer_entries, 0)
{
}

void
InOrderPipeline::resync()
{
    reg_ready_.fill(cur_cycle_);
    std::fill(store_buffer_.begin(), store_buffer_.end(), cur_cycle_);
    int_div_busy_until_ = cur_cycle_;
    fp_div_busy_until_ = cur_cycle_;
    fetch_ready_ = cur_cycle_;
    cur_fetch_line_ = ~0ull;
    issued_this_cycle_ = config_.width; // force a fresh issue cycle
}

namespace
{

/** Set @p t's latency and divider from its functional class. */
void
setClassTiming(OpTiming &t, isa::OpClass op_class,
               const PipelineConfig &config)
{
    using isa::OpClass;
    switch (op_class) {
      case OpClass::IntAlu:
        t.latency = config.int_alu_latency;
        break;
      case OpClass::IntMul:
        t.latency = config.int_mul_latency;
        break;
      case OpClass::IntDiv:
        t.latency = config.int_div_latency;
        t.divider = OpTiming::Divider::Int;
        break;
      case OpClass::FpAdd:
        t.latency = config.fp_add_latency;
        break;
      case OpClass::FpMul:
        t.latency = config.fp_mul_latency;
        break;
      case OpClass::FpDiv:
        t.latency = config.fp_div_latency;
        t.divider = OpTiming::Divider::Fp;
        break;
      case OpClass::MemWrite:
        t.latency = config.store_latency;
        break;
      case OpClass::MemRead:
      case OpClass::Control:
      case OpClass::NoOp:
        t.latency = 1;
        break;
    }
}

} // anonymous namespace

std::vector<OpTiming>
InOrderPipeline::decodeProgram(const isa::Program &program) const
{
    std::vector<OpTiming> table;
    table.reserve(program.code.size());
    for (const isa::Instruction &inst : program.code) {
        const isa::OpInfo &info = inst.info();
        OpTiming t;
        t.rd = inst.rd;
        t.rs1 = inst.rs1;
        t.rs2 = inst.rs2;
        t.reads_rs1 = info.reads_rs1;
        t.reads_rs2 = info.reads_rs2;
        t.writes_rd = info.writes_rd && inst.rd != isa::reg_zero;
        t.is_store = info.op_class == isa::OpClass::MemWrite;
        setClassTiming(t, info.op_class, config_);
        table.push_back(t);
    }
    return table;
}

void
InOrderPipeline::consume(const cpu::DynInst &rec)
{
    // Timing facts from the record's own decode in step(), not from
    // decodeProgram(): the differential tests then also pin the table
    // to it.
    OpTiming t;
    t.rd = rec.rd;
    t.rs1 = rec.rs1;
    t.rs2 = rec.rs2;
    t.reads_rs1 = rec.reads_rs1;
    t.reads_rs2 = rec.reads_rs2;
    t.writes_rd = rec.writes_rd;
    t.is_store = rec.is_store;
    setClassTiming(t, rec.op_class, config_);
    beginOp(rec.pc, t);
    if (rec.is_load || rec.is_store)
        memOp(rec.mem_addr, rec.is_store);
    if (rec.is_branch || rec.is_jump)
        controlOp(branch_unit_.predictAndTrain(rec), rec.taken);
    endOp();
}

void
InOrderPipeline::registerStats(obs::Group &group) const
{
    group.addCounter("instructions", "instructions timed",
                     [this] { return stats_.instructions; });
    group.addCounter("cycles", "cycles advanced",
                     [this] { return cur_cycle_; });
    group.addCounter("mispredicts", "mispredict bubbles charged",
                     [this] { return stats_.mispredicts; });
    group.addCounter("icache_line_fetches", "new I-cache lines fetched",
                     [this] { return stats_.icache_line_fetches; });
    group.addFormula("ipc", "instructions per cycle",
                     [this] {
                         return cur_cycle_
                                    ? static_cast<double>(
                                          stats_.instructions) /
                                          static_cast<double>(
                                              cur_cycle_)
                                    : 0.0;
                     });
    group.addFormula("issue_occupancy",
                     "fraction of issue slots filled",
                     [this] {
                         const double slots =
                             static_cast<double>(cur_cycle_) *
                             config_.width;
                         return slots > 0.0
                                    ? static_cast<double>(
                                          stats_.instructions) /
                                          slots
                                    : 0.0;
                     });

    obs::Group &stalls =
        group.child("stalls", "issue-delay attribution (binding "
                              "constraint per delayed instruction)");
    stalls.addCounter("fetch", "I-cache miss gated issue",
                      [this] { return stats_.fetch_stalls; });
    stalls.addCounter("operand", "source register not ready",
                      [this] { return stats_.operand_stalls; });
    stalls.addCounter("div", "unpipelined divider busy",
                      [this] { return stats_.div_stalls; });
    stalls.addCounter("store_buffer", "store buffer full",
                      [this] { return stats_.store_buffer_stalls; });
    stalls.addCounter("width", "issue width exhausted",
                      [this] { return stats_.width_stalls; });
}

} // namespace pgss::timing
