#include "sim/engine.hh"

#include <bit>

#include "obs/progress.hh"
#include "obs/spans.hh"
#include "obs/stats.hh"
#include "obs/timeline.hh"
#include "sim/checkpoint.hh"
#include "util/logging.hh"

namespace pgss::sim
{

const char *
modeName(SimMode mode)
{
    switch (mode) {
      case SimMode::FunctionalFast:
        return "functional-fast";
      case SimMode::FunctionalWarm:
        return "functional-warm";
      case SimMode::DetailedWarm:
        return "detailed-warm";
      case SimMode::DetailedMeasure:
        return "detailed-measure";
    }
    return "unknown";
}

const char *
modeStatName(SimMode mode)
{
    switch (mode) {
      case SimMode::FunctionalFast:
        return "functional_fast";
      case SimMode::FunctionalWarm:
        return "functional_warm";
      case SimMode::DetailedWarm:
        return "detailed_warm";
      case SimMode::DetailedMeasure:
        return "detailed_measure";
    }
    return "unknown";
}

SimulationEngine::SimulationEngine(const isa::Program &program,
                                   const EngineConfig &config)
    : program_(program), config_(config),
      hashed_bbv_(config.hashed_bbv)
{
    memory_ = std::make_unique<mem::MainMemory>(program.data_bytes);
    if (!program.data_words.empty()) {
        std::vector<std::uint64_t> image = program.data_words;
        image.resize(memory_->words().size(), 0);
        memory_->setWords(std::move(image));
    }
    core_ = std::make_unique<cpu::FunctionalCore>(program_, *memory_);
    hierarchy_ = std::make_unique<mem::CacheHierarchy>(config.hierarchy);
    branch_unit_ = std::make_unique<timing::BranchUnit>(config.branch);
    pipeline_ = std::make_unique<timing::InOrderPipeline>(
        config.pipeline, *hierarchy_, *branch_unit_);
    op_timing_ = pipeline_->decodeProgram(program_);
}

void
SimulationEngine::reset()
{
    PGSS_SPAN("engine.reset", Checkpoint);
    memory_ = std::make_unique<mem::MainMemory>(program_.data_bytes);
    if (!program_.data_words.empty()) {
        std::vector<std::uint64_t> image = program_.data_words;
        image.resize(memory_->words().size(), 0);
        memory_->setWords(std::move(image));
    }
    core_ = std::make_unique<cpu::FunctionalCore>(program_, *memory_);
    hierarchy_ =
        std::make_unique<mem::CacheHierarchy>(config_.hierarchy);
    branch_unit_ =
        std::make_unique<timing::BranchUnit>(config_.branch);
    pipeline_ = std::make_unique<timing::InOrderPipeline>(
        config_.pipeline, *hierarchy_, *branch_unit_);
    ops_since_taken_ = 0;
    warm_fetch_line_ = ~0ull;
    last_was_detailed_ = false;
    hashed_bbv_.reset();
    full_bbv_.reset();
}

void
SimulationEngine::trackBbv(const cpu::DynInst &rec)
{
    ++ops_since_taken_;
    if (!rec.taken)
        return;
    const std::uint64_t addr = isa::instAddr(rec.pc);
    if (hashed_bbv_enabled_)
        hashed_bbv_.onTakenBranch(addr, ops_since_taken_);
    if (full_bbv_enabled_)
        full_bbv_.onTakenBranch(addr, ops_since_taken_);
    ops_since_taken_ = 0;
}

template <bool with_bbv, typename Hooks>
std::uint64_t
SimulationEngine::runFastLoop(std::uint64_t n, Hooks &&hooks)
{
    // One callback shape per BBV configuration, shared by every
    // instantiation of the FastOp loop. With BBV off the carried
    // ops_since_taken_ is left untouched, exactly as the step() loop
    // leaves it; otherwise it carries across chunks (by reference) so
    // harvests match the step() path bit for bit. In the dominant
    // configuration — hashed BBV only — the callback is a single
    // inlined LUT-hash accumulate, with no virtual dispatch anywhere
    // on the path.
    if constexpr (with_bbv) {
        if (hashed_bbv_enabled_ && !full_bbv_enabled_) {
            bbv::HashedBbv &hashed = hashed_bbv_;
            return core_->runFastWith(
                n, ops_since_taken_,
                [&hashed](std::uint64_t addr, std::uint64_t ops) {
                    hashed.onTakenBranch(addr, ops);
                },
                hooks);
        }
        bbv::HashedBbv *hashed =
            hashed_bbv_enabled_ ? &hashed_bbv_ : nullptr;
        bbv::FullBbvCollector *full =
            full_bbv_enabled_ ? &full_bbv_ : nullptr;
        return core_->runFastWith(
            n, ops_since_taken_,
            [hashed, full](std::uint64_t addr, std::uint64_t ops) {
                if (hashed)
                    hashed->onTakenBranch(addr, ops);
                if (full)
                    full->onTakenBranch(addr, ops);
            },
            hooks);
    } else {
        std::uint64_t since = 0;
        return core_->runFastWith(
            n, since, [](std::uint64_t, std::uint64_t) {}, hooks);
    }
}

namespace
{

/** Predict and train the Jal/Jalr at @p pc, classified from @p code. */
bool
trainJump(timing::BranchUnit &branch_unit, const isa::Instruction *code,
          std::uint64_t pc, std::uint64_t next_pc)
{
    // Classified from the original instruction: the FastOp's rd is
    // remapped when it names r0.
    const isa::Instruction &inst = code[pc];
    return branch_unit.trainJump(pc, next_pc,
                                 branch_unit.isCall(inst.op, inst.rd),
                                 branch_unit.isReturn(inst.op, inst.rs1));
}

/**
 * Functional-warming hooks for FunctionalCore::runFastWith (see
 * cpu::NoWarm for the contract): the I-line dedup, untimed cache
 * accesses and predictor training the step() warm loop performs, in
 * the same order and on the same carried state.
 */
struct WarmHooks
{
    mem::CacheHierarchy &hierarchy;
    timing::BranchUnit &branch_unit;
    const isa::Instruction *code;
    std::uint64_t &fetch_line; ///< the engine's warm_fetch_line_
    std::uint32_t bytes_per_inst;
    std::uint32_t line_shift; ///< log2(L1I line bytes)

    void
    fetch(std::uint64_t pc)
    {
        const std::uint64_t addr = pc * bytes_per_inst;
        const std::uint64_t line = addr >> line_shift;
        if (line != fetch_line) {
            fetch_line = line;
            hierarchy.warmInst(addr);
        }
    }

    void
    data(std::uint64_t addr, bool is_store)
    {
        hierarchy.warmData(addr, is_store);
    }

    void
    branch(std::uint64_t pc, bool taken, std::uint64_t next_pc)
    {
        branch_unit.trainBranch(pc, taken, next_pc);
    }

    void
    jump(std::uint64_t pc, std::uint64_t next_pc)
    {
        trainJump(branch_unit, code, pc, next_pc);
    }

    void retire() {}
};

/**
 * Detailed-mode hooks for FunctionalCore::runFastWith: each hook is
 * one stage of the timing pipeline, fed from the per-static-op timing
 * table instead of a DynInst. The stages run in consume()'s order, so
 * cycles, stall attribution and every cache and predictor access
 * match the step() oracle.
 */
struct DetailedHooks
{
    timing::InOrderPipeline &pipeline;
    timing::BranchUnit &branch_unit;
    const isa::Instruction *code;
    const timing::OpTiming *timing; ///< by instruction index

    void
    fetch(std::uint64_t pc)
    {
        pipeline.beginOp(pc, timing[pc]);
    }

    void
    data(std::uint64_t addr, bool is_store)
    {
        pipeline.memOp(addr, is_store);
    }

    void
    branch(std::uint64_t pc, bool taken, std::uint64_t next_pc)
    {
        pipeline.controlOp(branch_unit.trainBranch(pc, taken, next_pc),
                           taken);
    }

    void
    jump(std::uint64_t pc, std::uint64_t next_pc)
    {
        pipeline.controlOp(trainJump(branch_unit, code, pc, next_pc),
                           true);
    }

    void
    retire()
    {
        pipeline.endOp();
    }
};

} // anonymous namespace

template <bool with_bbv>
std::uint64_t
SimulationEngine::runMode(std::uint64_t n, SimMode mode)
{
    if (!fast_path_enabled_)
        return runStep<with_bbv>(n, mode);
    switch (mode) {
      case SimMode::FunctionalFast:
        return runFastLoop<with_bbv>(n, cpu::NoWarm{});
      case SimMode::FunctionalWarm:
        // PGSS/SMARTS fast-forward.
        return runFastLoop<with_bbv>(
            n, WarmHooks{*hierarchy_, *branch_unit_,
                         program_.code.data(), warm_fetch_line_,
                         config_.pipeline.bytes_per_inst,
                         static_cast<std::uint32_t>(std::countr_zero(
                             config_.hierarchy.l1i.line_bytes))});
      case SimMode::DetailedWarm:
      case SimMode::DetailedMeasure:
        return runFastLoop<with_bbv>(
            n, DetailedHooks{*pipeline_, *branch_unit_,
                             program_.code.data(), op_timing_.data()});
    }
    return 0;
}

template <bool with_bbv>
std::uint64_t
SimulationEngine::runStep(std::uint64_t n, SimMode mode)
{
    // The step() interpreter: the differential-testing oracle for
    // every mode (setFastPathEnabled(false)), never a production path.
    const bool warm = mode == SimMode::FunctionalWarm;
    const bool detailed = mode == SimMode::DetailedWarm ||
                          mode == SimMode::DetailedMeasure;
    cpu::DynInst rec;
    const std::uint32_t line_bytes = config_.hierarchy.l1i.line_bytes;
    const std::uint32_t bytes_per_inst = config_.pipeline.bytes_per_inst;
    std::uint64_t done = 0;

    while (done < n && core_->step(rec)) {
        ++done;
        if (detailed) {
            pipeline_->consume(rec);
        } else if (warm) {
            const std::uint64_t line =
                rec.pc * bytes_per_inst / line_bytes;
            if (line != warm_fetch_line_) {
                warm_fetch_line_ = line;
                hierarchy_->warmInst(rec.pc * bytes_per_inst);
            }
            if (rec.is_load || rec.is_store)
                hierarchy_->warmData(rec.mem_addr, rec.is_store);
            if (rec.is_branch || rec.is_jump)
                branch_unit_->predictAndTrain(rec);
        }
        if constexpr (with_bbv)
            trackBbv(rec);
    }
    return done;
}

RunResult
SimulationEngine::run(std::uint64_t n, SimMode mode)
{
    const bool detailed = mode == SimMode::DetailedWarm ||
                          mode == SimMode::DetailedMeasure;
    if (detailed && !last_was_detailed_)
        pipeline_->resync();
    last_was_detailed_ = detailed;

    const bool bbv = hashed_bbv_enabled_ || full_bbv_enabled_;
    const std::uint64_t cycles_before = pipeline_->cycles();

    // One span per run() chunk (>= a sample window of work, never
    // per instruction). Its process-global per-mode site totals are
    // the report's "perf" section; under --profile it is also the
    // causal per-thread record the Perfetto export is built from.
    obs::ScopedSpan span(obs::engineModeSite(static_cast<int>(mode)));

    const std::uint64_t done =
        bbv ? runMode<true>(n, mode) : runMode<false>(n, mode);
    switch (mode) {
      case SimMode::FunctionalFast:
        mode_ops_.functional_fast += done;
        break;
      case SimMode::FunctionalWarm:
        mode_ops_.functional_warm += done;
        break;
      case SimMode::DetailedWarm:
        mode_ops_.detailed_warm += done;
        break;
      case SimMode::DetailedMeasure:
        mode_ops_.detailed_measure += done;
        break;
    }

    span.addOps(done);

    // Time-series observability: one predictable null check per run()
    // chunk (per period, never per instruction) when timelines are
    // off; a counter snapshot every interval_ops committed ops when
    // on.
    if (obs::TimelineRecorder *tl = obs::timelines())
        tl->advance(done);

    // Live run-progress: relaxed adds on the thread's current job
    // (telemetry /status and /metrics); nullptr outside harness work.
    if (obs::JobHandle *job = obs::currentJob())
        job->addOps(done);

    return {done, pipeline_->cycles() - cycles_before};
}

RunResult
SimulationEngine::runToCompletion(SimMode mode)
{
    RunResult total;
    while (!halted()) {
        const RunResult r =
            run(std::uint64_t{1} << 24, mode);
        total.ops += r.ops;
        total.cycles += r.cycles;
        if (r.ops == 0)
            break;
    }
    return total;
}

void
SimulationEngine::setHashedBbvEnabled(bool enabled)
{
    hashed_bbv_enabled_ = enabled;
}

std::vector<double>
SimulationEngine::harvestHashedBbv()
{
    return hashed_bbv_.harvest();
}

std::vector<double>
SimulationEngine::harvestHashedBbvRaw()
{
    return hashed_bbv_.harvestRaw();
}

void
SimulationEngine::setFullBbvEnabled(bool enabled)
{
    full_bbv_enabled_ = enabled;
}

bbv::SparseBbv
SimulationEngine::harvestFullBbv()
{
    return full_bbv_.harvest();
}

void
SimulationEngine::registerStats(obs::Group &parent) const
{
    obs::Group &g =
        parent.child("engine", "mode-switching simulation engine");
    g.addCounter("total_ops", "instructions retired, all modes",
                 [this] { return core_->retired(); });
    g.addCounter("cycles", "detailed-mode cycles",
                 [this] { return pipeline_->cycles(); });
    g.addVector(
        "mode_ops", "instructions executed per mode",
        {modeStatName(SimMode::FunctionalFast),
         modeStatName(SimMode::FunctionalWarm),
         modeStatName(SimMode::DetailedWarm),
         modeStatName(SimMode::DetailedMeasure)},
        [this] {
            return std::vector<double>{
                static_cast<double>(mode_ops_.functional_fast),
                static_cast<double>(mode_ops_.functional_warm),
                static_cast<double>(mode_ops_.detailed_warm),
                static_cast<double>(mode_ops_.detailed_measure)};
        });
    // Exact per-mode counters alongside the vector view: the report
    // contract is that these match ModeOps to the op.
    g.addCounter("ops_functional_fast", "ops in functional-fast",
                 [this] { return mode_ops_.functional_fast; });
    g.addCounter("ops_functional_warm", "ops in functional-warm",
                 [this] { return mode_ops_.functional_warm; });
    g.addCounter("ops_detailed_warm", "ops in detailed-warm",
                 [this] { return mode_ops_.detailed_warm; });
    g.addCounter("ops_detailed_measure", "ops in detailed-measure",
                 [this] { return mode_ops_.detailed_measure; });
    g.addFormula("detailed_fraction",
                 "share of ops simulated with full timing",
                 [this] {
                     const std::uint64_t total = mode_ops_.total();
                     return total ? static_cast<double>(
                                        mode_ops_.detailed()) /
                                        static_cast<double>(total)
                                  : 0.0;
                 });

    hierarchy_->registerStats(g);
    branch_unit_->registerStats(
        g.child("branch", "front-end branch machinery"));
    pipeline_->registerStats(
        g.child("pipeline", "in-order timing model"));
}

Checkpoint
SimulationEngine::checkpoint() const
{
    PGSS_SPAN("checkpoint.save_full", Checkpoint);
    Checkpoint c;
    c.regs_ = core_->regs();
    c.pc_ = core_->pc();
    c.halted_ = core_->halted();
    c.retired_ = core_->retired();
    c.ops_since_taken_ = ops_since_taken_;
    c.warm_fetch_line_ = warm_fetch_line_;
    c.memory_words_ = memory_->words();
    c.mem_total_words_ = memory_->words().size();
    c.hierarchy_ = hierarchy_->state();
    c.branch_ = branch_unit_->state();
    memory_->clearPageDirty();
    return c;
}

Checkpoint
SimulationEngine::checkpointDelta() const
{
    PGSS_SPAN("checkpoint.save_delta", Checkpoint);
    Checkpoint c;
    c.regs_ = core_->regs();
    c.pc_ = core_->pc();
    c.halted_ = core_->halted();
    c.retired_ = core_->retired();
    c.ops_since_taken_ = ops_since_taken_;
    c.warm_fetch_line_ = warm_fetch_line_;
    c.mem_delta_ = true;
    c.mem_total_words_ = memory_->words().size();
    c.delta_pages_ = memory_->dirtyPageList();
    const std::vector<std::uint64_t> &words = memory_->words();
    for (std::uint32_t page : c.delta_pages_) {
        const std::uint64_t first =
            std::uint64_t{page} * mem::MainMemory::page_words;
        const std::uint64_t count = memory_->pageWordCount(page);
        c.memory_words_.insert(c.memory_words_.end(),
                               words.begin() + first,
                               words.begin() + first + count);
    }
    c.hierarchy_ = hierarchy_->state();
    c.branch_ = branch_unit_->state();
    memory_->clearPageDirty();
    return c;
}

void
SimulationEngine::restore(const Checkpoint &ckpt)
{
    PGSS_SPAN("checkpoint.restore", Checkpoint);
    util::panicIf(ckpt.mem_delta_,
                  "cannot restore a delta checkpoint directly; "
                  "resolve it with Checkpoint::applyDelta first");
    util::panicIf(ckpt.memory_words_.size() != memory_->words().size(),
                  "checkpoint from a different program");
    core_->setRegs(ckpt.regs_);
    core_->setPc(ckpt.pc_);
    core_->setHalted(ckpt.halted_);
    core_->setRetired(ckpt.retired_);
    ops_since_taken_ = ckpt.ops_since_taken_;
    memory_->setWords(ckpt.memory_words_);
    hierarchy_->setState(ckpt.hierarchy_);
    branch_unit_->setState(ckpt.branch_);
    // Restoring the warming dedup line keeps the post-restore cache
    // access stream identical to the continuous run; the remaining
    // transient timing state is rebuilt by the next detailed warm-up.
    warm_fetch_line_ = ckpt.warm_fetch_line_;
    last_was_detailed_ = false;
    hashed_bbv_.reset();
    full_bbv_.reset();
}

} // namespace pgss::sim
