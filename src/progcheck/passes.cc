#include "progcheck/passes.hh"

#include <algorithm>

#include "isa/instruction.hh"

namespace pgss::progcheck
{

namespace
{

using isa::CtrlKind;
using isa::Instruction;
using isa::OpClass;

void
add(Report &report, Check check, Severity severity, std::uint64_t pc,
    std::string message)
{
    if (report.findings.size() >= 100000)
        return; // hard backstop; Options::max_findings trims later
    report.findings.push_back({check, severity, pc, std::move(message)});
}

/** True for plain value-producing ops (dead-store candidates). */
bool
isPureValueOp(const Instruction &inst)
{
    switch (inst.info().op_class) {
      case OpClass::IntAlu:
      case OpClass::IntMul:
      case OpClass::IntDiv:
      case OpClass::FpAdd:
      case OpClass::FpMul:
      case OpClass::FpDiv:
        return true;
      default:
        return false;
    }
}

/** Register slot @p inst defines, or -1 (r0 writes are no-ops). */
int
regDef(const Instruction &inst)
{
    return inst.info().writes_rd && inst.rd != isa::reg_zero ? inst.rd
                                                             : -1;
}

} // anonymous namespace

void
checkStructure(const Cfg &cfg, Report &report)
{
    const isa::Program &prog = *cfg.prog;
    const std::size_t n = prog.code.size();

    for (std::size_t pc = 0; pc < n; ++pc) {
        const Instruction &inst = prog.code[pc];
        if (isa::hasStaticTarget(inst) &&
            (inst.imm < 0 ||
             static_cast<std::uint64_t>(inst.imm) >= n)) {
            add(report, Check::BadTarget, Severity::Error, pc,
                "control-transfer target " + std::to_string(inst.imm) +
                    " is outside the program (size " +
                    std::to_string(n) + ")");
        }
        if (isa::ctrlKind(inst) == CtrlKind::IndirectJump &&
            cfg.indirectTargets(static_cast<std::uint32_t>(pc)) ==
                nullptr) {
            add(report, Check::IndirectNoTargets, Severity::Warning, pc,
                std::string("indirect jump has no declared target "
                            "set; ") +
                    (isa::isReturn(inst, cfg.link_reg)
                         ? "treated as an opaque subroutine return"
                         : "its successors are unknown to every "
                           "analysis"));
        }
    }
    if (isa::fallsThrough(prog.code[n - 1])) {
        add(report, Check::FallsOffEnd, Severity::Error, n - 1,
            "execution can fall through the last instruction ('" +
                isa::disassemble(prog.code[n - 1], n - 1) +
                "') and run off the end of the program");
    }
}

void
checkReachability(const Cfg &cfg, Report &report)
{
    const isa::Program &prog = *cfg.prog;
    for (std::size_t b = 0; b < cfg.blocks.size(); ++b) {
        if (cfg.reachable[b])
            continue;
        const Block &block = cfg.blocks[b];
        std::size_t stores = 0;
        for (std::uint32_t pc = block.first; pc <= block.last; ++pc)
            stores += isa::writesMemory(prog.code[pc]) ? 1 : 0;
        std::string msg = "block [" + std::to_string(block.first) +
                          ".." + std::to_string(block.last) + "] (" +
                          std::to_string(block.size()) +
                          " instruction(s)) can never execute";
        if (stores > 0) {
            msg += "; it contains " + std::to_string(stores) +
                   " dead store(s), first: '" +
                   isa::disassemble(prog.code[block.first],
                                    block.first) +
                   "'";
        }
        add(report, Check::UnreachableCode, Severity::Error,
            block.first, std::move(msg));
    }
}

void
checkDefUse(const Cfg &cfg, const ConstProp &cp, const Liveness &lv,
            const MayUninit &mu, const Options &opt, Report &report)
{
    const isa::Program &prog = *cfg.prog;
    const std::size_t ns = lv.slots.numSlots();

    for (std::size_t b = 0; b < cfg.blocks.size(); ++b) {
        if (!cfg.reachable[b])
            continue;
        const Block &block = cfg.blocks[b];

        if (opt.check_uninit) {
            BitSet uninit = mu.in[b];
            for (std::uint32_t pc = block.first; pc <= block.last;
                 ++pc) {
                const Instruction &inst = prog.code[pc];
                const isa::OpInfo &info = inst.info();
                const auto flag = [&](std::uint8_t r) {
                    if (r != isa::reg_zero && uninit.test(r)) {
                        std::string msg = "r";
                        msg += std::to_string(r);
                        msg += " may be read before any write "
                               "reaches it (architecturally zero)";
                        add(report, Check::ReadBeforeWrite,
                            Severity::Warning, pc, std::move(msg));
                    }
                };
                if (info.reads_rs1)
                    flag(inst.rs1);
                if (info.reads_rs2)
                    flag(inst.rs2);
                const int d = regDef(inst);
                if (d >= 0)
                    uninit.clear(static_cast<std::size_t>(d));
            }
        }

        if (opt.check_dead_stores) {
            BitSet live = lv.live_out[b];
            for (std::uint32_t pc = block.last + 1; pc-- > block.first;) {
                const Instruction &inst = prog.code[pc];
                const isa::OpInfo &info = inst.info();
                const int d = regDef(inst);
                if (d >= 0) {
                    if (!live.test(static_cast<std::size_t>(d)) &&
                        isPureValueOp(inst)) {
                        add(report, Check::DeadStoreReg,
                            Severity::Warning, pc,
                            "value written to r" + std::to_string(d) +
                                " is never read before being "
                                "overwritten or dropped");
                    }
                    live.clear(static_cast<std::size_t>(d));
                }
                if (info.reads_rs1 && inst.rs1 != isa::reg_zero)
                    live.set(inst.rs1);
                if (info.reads_rs2 && inst.rs2 != isa::reg_zero)
                    live.set(inst.rs2);
                if (isa::readsMemory(inst)) {
                    const StaticAccess *acc = cp.accessAt(pc);
                    const int slot =
                        acc ? lv.slots.slotOf(acc->addr & ~7ull) : -1;
                    if (slot >= 0) {
                        live.set(static_cast<std::size_t>(slot));
                    } else {
                        for (std::size_t s = 32; s < ns; ++s)
                            live.set(s);
                    }
                }
                if (isa::writesMemory(inst)) {
                    const StaticAccess *acc = cp.accessAt(pc);
                    const int slot =
                        acc ? lv.slots.slotOf(acc->addr & ~7ull) : -1;
                    if (slot >= 0)
                        live.clear(static_cast<std::size_t>(slot));
                }
            }
        }
    }
}

void
checkConvention(const Cfg &cfg, const Options &opt, Report &report)
{
    const isa::Program &prog = *cfg.prog;

    for (const Procedure &proc : cfg.procs) {
        if (proc.is_program_entry)
            continue;
        for (std::uint32_t b : proc.blocks) {
            const Block &block = cfg.blocks[b];
            for (std::uint32_t pc = block.first; pc <= block.last;
                 ++pc) {
                const Instruction &inst = prog.code[pc];
                const int d = regDef(inst);
                if (d < 0)
                    continue;
                if (d >= opt.reserved_first && d <= opt.reserved_last) {
                    add(report, Check::CalleeWritesReserved,
                        Severity::Error, pc,
                        "subroutine entered at " +
                            std::to_string(proc.entry_pc) +
                            " writes driver-reserved r" +
                            std::to_string(d));
                }
                if (d == opt.link_reg &&
                    static_cast<std::uint32_t>(pc) != proc.entry_pc) {
                    add(report, Check::CalleeClobbersLink,
                        Severity::Error, pc,
                        isa::isCall(inst)
                            ? "nested call clobbers the link register "
                              "(no save/restore convention exists)"
                            : "subroutine overwrites the link "
                              "register; its return address is lost");
                }
            }
        }
    }

    // Calls into the middle of another subroutine: walk each entry
    // without stopping at other entries and look for containment.
    const std::size_t n = prog.code.size();
    for (const Procedure &proc : cfg.procs) {
        // Unrestricted intraprocedural reach of this procedure.
        std::vector<bool> seen(cfg.blocks.size(), false);
        std::vector<std::uint32_t> stack = {proc.entry_block};
        while (!stack.empty()) {
            const std::uint32_t b = stack.back();
            stack.pop_back();
            if (seen[b])
                continue;
            seen[b] = true;
            const Block &block = cfg.blocks[b];
            const Instruction &tail = prog.code[block.last];
            if (isa::isReturn(tail, cfg.link_reg))
                continue;
            if (isa::isCall(tail)) {
                if (block.last + 1 < n)
                    stack.push_back(cfg.block_of[block.last + 1]);
                continue;
            }
            for (std::uint32_t s : block.succs)
                stack.push_back(s);
        }
        // A call target that lands strictly inside this procedure's
        // body (reachable from its entry, not the entry itself).
        for (std::size_t pc = 0; pc < n; ++pc) {
            const Instruction &inst = prog.code[pc];
            if (!isa::isCall(inst) || inst.imm < 0 ||
                static_cast<std::uint64_t>(inst.imm) >= n)
                continue;
            const auto target = static_cast<std::uint32_t>(inst.imm);
            if (target == proc.entry_pc)
                continue;
            const std::uint32_t tb = cfg.block_of[target];
            if (seen[tb] && target != cfg.blocks[tb].first) {
                add(report, Check::CallIntoMidProc, Severity::Error, pc,
                    "call target " + std::to_string(target) +
                        " lands inside the body of the subroutine "
                        "entered at " +
                        std::to_string(proc.entry_pc));
            }
        }
    }
}

void
checkMemory(const Cfg &cfg, const ConstProp &cp, const Liveness &lv,
            const Options &opt, Report &report)
{
    const isa::Program &prog = *cfg.prog;

    for (const StaticAccess &acc : cp.accesses) {
        if ((acc.addr & 7) != 0) {
            add(report, Check::MisalignedAccess, Severity::Error,
                acc.pc,
                "static address " + std::to_string(acc.addr) +
                    " is not 8-byte aligned");
        }
        bool inside = false;
        if (prog.segments.empty()) {
            inside = acc.addr + 8 <= prog.data_bytes;
        } else {
            for (const isa::DataSegment &seg : prog.segments) {
                if (acc.addr >= seg.base &&
                    acc.addr + 8 <= seg.base + seg.bytes) {
                    inside = true;
                    break;
                }
            }
        }
        if (!inside) {
            add(report, Check::OutOfSegment, Severity::Error, acc.pc,
                "static address " + std::to_string(acc.addr) +
                    (prog.segments.empty()
                         ? " is outside the data footprint (" +
                               std::to_string(prog.data_bytes) +
                               " bytes)"
                         : " is outside every declared data segment"));
        }
    }

    if (!opt.check_dead_stores)
        return;

    // Memory dead stores: a statically-addressed store whose word is
    // never observed again on any path. (The register walk in
    // checkDefUse already maintains the same bits; this re-walk keeps
    // the memory findings independent of the def-use toggles.)
    for (std::size_t b = 0; b < cfg.blocks.size(); ++b) {
        if (!cfg.reachable[b])
            continue;
        const Block &block = cfg.blocks[b];
        BitSet live = lv.live_out[b];
        const std::size_t ns = lv.slots.numSlots();
        for (std::uint32_t pc = block.last + 1; pc-- > block.first;) {
            const Instruction &inst = prog.code[pc];
            if (isa::writesMemory(inst)) {
                const StaticAccess *acc = cp.accessAt(pc);
                const int slot =
                    acc ? lv.slots.slotOf(acc->addr & ~7ull) : -1;
                if (slot >= 0) {
                    if (!live.test(static_cast<std::size_t>(slot))) {
                        add(report, Check::DeadStoreMem,
                            Severity::Warning, pc,
                            "store to static address " +
                                std::to_string(acc->addr) +
                                " is never observed by any load");
                    }
                    live.clear(static_cast<std::size_t>(slot));
                }
            }
            if (isa::readsMemory(inst)) {
                const StaticAccess *acc = cp.accessAt(pc);
                const int slot =
                    acc ? lv.slots.slotOf(acc->addr & ~7ull) : -1;
                if (slot >= 0) {
                    live.set(static_cast<std::size_t>(slot));
                } else {
                    for (std::size_t s = 32; s < ns; ++s)
                        live.set(s);
                }
            }
        }
    }
}

void
checkRas(const Cfg &cfg, Report &report)
{
    for (const Procedure &proc : cfg.procs) {
        for (std::uint32_t pc : proc.escapes) {
            add(report, Check::FallIntoProc, Severity::Error, pc,
                "control flows from the " +
                    std::string(proc.is_program_entry
                                    ? "program entry"
                                    : "subroutine entered at " +
                                          std::to_string(
                                              proc.entry_pc)) +
                    " into another subroutine without a call");
        }
        if (proc.is_program_entry) {
            for (std::uint32_t pc : proc.returns) {
                add(report, Check::RasUnderflow, Severity::Error, pc,
                    "return executes with an empty return-address "
                    "stack (no call on any path from the entry)");
            }
        } else {
            for (std::uint32_t pc : proc.halts) {
                add(report, Check::RasLeak, Severity::Warning, pc,
                    "halt inside the subroutine entered at " +
                        std::to_string(proc.entry_pc) +
                        " leaves the return-address stack non-empty");
            }
        }
    }

    // Call-graph cycles: RAS balance is proven procedure-by-procedure
    // assuming callees balance, which needs an acyclic call graph.
    const std::size_t np = cfg.procs.size();
    std::vector<std::vector<std::size_t>> callees(np);
    for (std::size_t p = 0; p < np; ++p) {
        for (std::uint32_t call_pc : cfg.procs[p].calls) {
            const Instruction &inst = cfg.prog->code[call_pc];
            for (std::size_t q = 0; q < np; ++q) {
                if (static_cast<std::int64_t>(cfg.procs[q].entry_pc) ==
                    inst.imm)
                    callees[p].push_back(q);
            }
        }
    }
    std::vector<std::uint8_t> state(np, 0); // 0 new, 1 open, 2 done
    std::vector<std::size_t> in_cycle;
    for (std::size_t root = 0; root < np; ++root) {
        if (state[root] != 0)
            continue;
        std::vector<std::pair<std::size_t, std::size_t>> stack;
        stack.emplace_back(root, 0);
        state[root] = 1;
        while (!stack.empty()) {
            auto &[p, next] = stack.back();
            if (next < callees[p].size()) {
                const std::size_t q = callees[p][next++];
                if (state[q] == 1) {
                    in_cycle.push_back(q);
                } else if (state[q] == 0) {
                    state[q] = 1;
                    stack.emplace_back(q, 0);
                }
            } else {
                state[p] = 2;
                stack.pop_back();
            }
        }
    }
    std::sort(in_cycle.begin(), in_cycle.end());
    in_cycle.erase(std::unique(in_cycle.begin(), in_cycle.end()),
                   in_cycle.end());
    for (std::size_t p : in_cycle) {
        add(report, Check::RecursionUnverified, Severity::Warning,
            cfg.procs[p].entry_pc,
            "subroutine participates in a call-graph cycle; RAS "
            "balance cannot be verified statically");
    }
}

} // namespace pgss::progcheck
