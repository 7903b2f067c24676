#include "sim/checkpoint.hh"

#include <algorithm>
#include <utility>

#include "mem/main_memory.hh"
#include "obs/spans.hh"
#include "util/logging.hh"
#include "util/serialize.hh"

namespace pgss::sim
{

namespace
{

constexpr std::uint32_t ckpt_magic = 0x5047434b; // "PGCK"
// v2: delta memory images (mem_delta_/mem_total_words_/delta_pages_).
// v3: CRC-32 seal after each of the four sections (arch, memory,
//     caches, branch) so corruption is detected before restore.
constexpr std::uint32_t ckpt_version = 3;

void
putCacheState(util::BinaryWriter &w, const mem::Cache::State &st)
{
    w.putU64Vec(st.tags);
    w.putU8Vec(st.valid);
    w.putU8Vec(st.dirty);
    w.putU64Vec(st.stamp);
    w.putU64(st.tick);
}

mem::Cache::State
getCacheState(util::BinaryReader &r)
{
    mem::Cache::State st;
    st.tags = r.getU64Vec();
    st.valid = r.getU8Vec();
    st.dirty = r.getU8Vec();
    st.stamp = r.getU64Vec();
    st.tick = r.getU64();
    return st;
}

} // anonymous namespace

void
Checkpoint::applyDelta(Checkpoint &base, const Checkpoint &delta)
{
    PGSS_SPAN("checkpoint.apply_delta", Checkpoint);
    util::panicIf(base.mem_delta_,
                  "applyDelta: base must be a full checkpoint");
    util::panicIf(!delta.mem_delta_,
                  "applyDelta: delta must be a delta checkpoint");
    util::panicIf(base.mem_total_words_ != delta.mem_total_words_,
                  "applyDelta: memory sizes differ");

    // The delta carries complete non-memory state; only the memory
    // image needs patching.
    base.regs_ = delta.regs_;
    base.pc_ = delta.pc_;
    base.halted_ = delta.halted_;
    base.retired_ = delta.retired_;
    base.ops_since_taken_ = delta.ops_since_taken_;
    base.warm_fetch_line_ = delta.warm_fetch_line_;
    base.hierarchy_ = delta.hierarchy_;
    base.branch_ = delta.branch_;

    const std::uint64_t total = base.mem_total_words_;
    std::size_t src = 0;
    for (std::uint32_t page : delta.delta_pages_) {
        const std::uint64_t first = std::uint64_t{page}
                                    << mem::MainMemory::page_shift;
        util::panicIf(first >= total, "applyDelta: page out of range");
        const std::uint64_t count =
            std::min(mem::MainMemory::page_words, total - first);
        util::panicIf(src + count > delta.memory_words_.size(),
                      "applyDelta: truncated delta payload");
        std::copy_n(delta.memory_words_.begin() +
                        static_cast<std::ptrdiff_t>(src),
                    count,
                    base.memory_words_.begin() +
                        static_cast<std::ptrdiff_t>(first));
        src += count;
    }
}

std::vector<std::uint8_t>
Checkpoint::serialize() const
{
    util::BinaryWriter w(ckpt_magic, ckpt_version);
    for (std::uint64_t reg : regs_)
        w.putU64(reg);
    w.putU64(pc_);
    w.putU8(halted_ ? 1 : 0);
    w.putU64(retired_);
    w.putU64(ops_since_taken_);
    w.putU64(warm_fetch_line_);
    w.putSectionCrc(); // arch
    w.putU8(mem_delta_ ? 1 : 0);
    w.putU64(mem_total_words_);
    std::vector<std::uint64_t> pages(delta_pages_.begin(),
                                     delta_pages_.end());
    w.putU64Vec(pages);
    w.putU64Vec(memory_words_);
    w.putSectionCrc(); // memory
    putCacheState(w, hierarchy_.l1i);
    putCacheState(w, hierarchy_.l1d);
    putCacheState(w, hierarchy_.l2);
    w.putSectionCrc(); // caches
    w.putU8Vec(branch_.predictor);
    w.putU64Vec(branch_.btb.tags);
    w.putU64Vec(branch_.btb.targets);
    w.putU8Vec(branch_.btb.valid);
    w.putSectionCrc(); // branch
    return std::move(w).bytes();
}

Checkpoint
Checkpoint::deserialize(std::vector<std::uint8_t> data, bool &ok)
{
    util::ReadError err;
    Checkpoint c = deserialize(std::move(data), err);
    ok = err == util::ReadError::None;
    return c;
}

Checkpoint
Checkpoint::deserialize(std::vector<std::uint8_t> data,
                        util::ReadError &err)
{
    Checkpoint c;
    util::BinaryReader r(std::move(data), ckpt_magic, ckpt_version);
    if (!r.ok()) {
        err = r.error();
        return c;
    }
    for (std::uint64_t &reg : c.regs_)
        reg = r.getU64();
    c.pc_ = r.getU64();
    c.halted_ = r.getU8() != 0;
    c.retired_ = r.getU64();
    c.ops_since_taken_ = r.getU64();
    c.warm_fetch_line_ = r.getU64();
    r.checkSectionCrc(); // arch
    c.mem_delta_ = r.getU8() != 0;
    c.mem_total_words_ = r.getU64();
    const std::vector<std::uint64_t> pages = r.getU64Vec();
    c.delta_pages_.assign(pages.begin(), pages.end());
    c.memory_words_ = r.getU64Vec();
    r.checkSectionCrc(); // memory
    c.hierarchy_.l1i = getCacheState(r);
    c.hierarchy_.l1d = getCacheState(r);
    c.hierarchy_.l2 = getCacheState(r);
    r.checkSectionCrc(); // caches
    c.branch_.predictor = r.getU8Vec();
    c.branch_.btb.tags = r.getU64Vec();
    c.branch_.btb.targets = r.getU64Vec();
    c.branch_.btb.valid = r.getU8Vec();
    r.checkSectionCrc(); // branch
    err = r.ok() ? util::ReadError::None : util::ReadError::Corrupt;
    return c;
}

} // namespace pgss::sim
