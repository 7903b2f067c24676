#include "sim/checkpoint_library.hh"

#include <cstdio>
#include <filesystem>
#include <utility>

#include "obs/spans.hh"
#include "util/atomic_file.hh"
#include "util/fi.hh"
#include "util/logging.hh"
#include "util/serialize.hh"

namespace pgss::sim
{

namespace
{

constexpr std::uint32_t meta_magic = 0x50474c42; // "PGLB"
// v2: full EngineConfig mixed into the identity; per-position
// checkpoint kinds (full/delta) appended to the metadata.
// v3: CRC-32 seal over the metadata body (paired with checkpoint v3).
constexpr std::uint32_t meta_version = 3;

// All checkpoint-library file traffic shares the "ckpt.*" fault
// sites; ckpt.read corrupts loaded bytes (CRC validation must catch
// it), ckpt.alloc models allocation failure of the serialized image.
util::FileSites ckpt_sites("ckpt");
util::fi::Site ckpt_read("ckpt.read");
util::fi::Site ckpt_alloc("ckpt.alloc");

/** FNV-1a over program identity (code + data + entry + config). */
std::uint64_t
programIdentity(const isa::Program &program, const EngineConfig &config)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    };
    for (const isa::Instruction &inst : program.code) {
        mix(static_cast<std::uint64_t>(inst.op) |
            (std::uint64_t{inst.rd} << 8) |
            (std::uint64_t{inst.rs1} << 16) |
            (std::uint64_t{inst.rs2} << 24));
        mix(static_cast<std::uint64_t>(inst.imm));
    }
    mix(program.data_bytes);
    mix(program.entry);
    // The full machine configuration: any field that shapes the
    // checkpointed state (cache/predictor geometry) or the measured
    // timing must distinguish libraries, else a stale library would
    // be restored onto a differently-shaped machine.
    for (const mem::CacheConfig *c :
         {&config.hierarchy.l1i, &config.hierarchy.l1d,
          &config.hierarchy.l2}) {
        mix(c->size_bytes);
        mix(c->assoc);
        mix(c->line_bytes);
    }
    mix(config.hierarchy.l1_latency);
    mix(config.hierarchy.l2_latency);
    mix(config.hierarchy.mem_latency);
    mix(config.branch.predictor_entries);
    mix(config.branch.history_bits);
    mix(config.branch.btb_entries);
    mix(config.branch.ras_depth);
    mix(config.branch.link_reg);
    mix(config.pipeline.width);
    mix(config.pipeline.mispredict_penalty);
    mix(config.pipeline.taken_branch_bubble);
    mix(config.pipeline.int_alu_latency);
    mix(config.pipeline.int_mul_latency);
    mix(config.pipeline.int_div_latency);
    mix(config.pipeline.fp_add_latency);
    mix(config.pipeline.fp_mul_latency);
    mix(config.pipeline.fp_div_latency);
    mix(config.pipeline.store_latency);
    mix(config.pipeline.store_buffer_entries);
    mix(config.pipeline.bytes_per_inst);
    mix(config.hashed_bbv.hash_bits);
    mix(config.hashed_bbv.bit_range_lo);
    mix(config.hashed_bbv.bit_range_hi);
    mix(config.hashed_bbv.seed);
    return h;
}

} // anonymous namespace

CheckpointLibrary::CheckpointLibrary(std::string directory)
    : directory_(std::move(directory))
{
}

std::string
CheckpointLibrary::metaPath() const
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "/lib_%016llx.meta",
                  static_cast<unsigned long long>(identity_));
    return directory_ + buf;
}

std::string
CheckpointLibrary::checkpointPath(std::uint64_t at_op) const
{
    char buf[96];
    std::snprintf(buf, sizeof(buf), "/lib_%016llx_%012llu.ckpt",
                  static_cast<unsigned long long>(identity_),
                  static_cast<unsigned long long>(at_op));
    return directory_ + buf;
}

std::size_t
CheckpointLibrary::record(const isa::Program &program,
                          const EngineConfig &config,
                          std::uint64_t stride)
{
    util::panicIf(stride == 0, "checkpoint stride must be nonzero");
    identity_ = programIdentity(program, config);
    stride_ = stride;
    positions_.clear();
    kinds_.clear();

    std::error_code ec;
    std::filesystem::create_directories(directory_, ec);

    SimulationEngine engine(program, config);
    bool at_start = true;
    while (!engine.halted()) {
        if (!at_start) {
            const RunResult r =
                engine.run(stride, SimMode::FunctionalWarm);
            if (r.ops == 0)
                break;
            if (engine.halted())
                break; // no point checkpointing the end
        }
        at_start = false;
        const std::uint64_t at = engine.totalOps();
        // A full image every full_interval_th capture bounds the
        // delta chain a seek must resolve; everything between stores
        // only the pages its stride dirtied.
        const bool delta = positions_.size() % full_interval_ != 0;
        if (ckpt_alloc.shouldFail()) {
            // Modelled allocation failure of the serialized image:
            // same consequence as a failed write below.
            ++util::fi::counter("ckpt.record_aborted");
            util::warn("checkpoint serialization failed at %llu; "
                       "stopping the recording pass",
                       static_cast<unsigned long long>(at));
            break;
        }
        const Checkpoint ckpt =
            delta ? engine.checkpointDelta() : engine.checkpoint();
        const auto bytes = ckpt.serialize();
        std::string werr;
        if (!util::atomicWriteFile(checkpointPath(at), bytes.data(),
                                   bytes.size(), &ckpt_sites, &werr)) {
            // A skipped capture would break the delta chain (its
            // dirty pages are already folded into the engine's
            // cleared baseline), so stop recording here: everything
            // written so far stays consistent.
            ++util::fi::counter("ckpt.record_aborted");
            util::warn("could not write checkpoint at %llu (%s); "
                       "stopping the recording pass",
                       static_cast<unsigned long long>(at),
                       werr.c_str());
            break;
        }
        positions_.push_back(at);
        kinds_.push_back(delta ? 1 : 0);
    }

    util::BinaryWriter meta(meta_magic, meta_version);
    meta.putU64(identity_);
    meta.putU64(stride_);
    meta.putU64(full_interval_);
    meta.putU64Vec(positions_);
    std::vector<std::uint64_t> kinds(kinds_.begin(), kinds_.end());
    meta.putU64Vec(kinds);
    meta.putSectionCrc();
    if (!meta.writeFile(metaPath(), &ckpt_sites))
        util::warn("could not write checkpoint library metadata");
    return positions_.size();
}

bool
CheckpointLibrary::open(const isa::Program &program,
                        const EngineConfig &config)
{
    identity_ = programIdentity(program, config);
    util::BinaryReader meta = util::BinaryReader::fromFile(
        metaPath(), meta_magic, meta_version);
    if (meta.error() == util::ReadError::Corrupt) {
        ++util::fi::counter("ckpt.quarantined");
        util::quarantineFile(metaPath());
        return false;
    }
    if (!meta.ok()) // missing, or a previous format version
        return false;
    if (meta.getU64() != identity_)
        return false;
    stride_ = meta.getU64();
    full_interval_ = meta.getU64();
    positions_ = meta.getU64Vec();
    const std::vector<std::uint64_t> kinds = meta.getU64Vec();
    kinds_.assign(kinds.begin(), kinds.end());
    meta.checkSectionCrc();
    if (meta.error() == util::ReadError::Corrupt) {
        ++util::fi::counter("ckpt.quarantined");
        util::quarantineFile(metaPath());
        return false;
    }
    if (!meta.ok() || full_interval_ == 0 ||
        kinds_.size() != positions_.size())
        return false;
    return true;
}

bool
CheckpointLibrary::loadFile(std::size_t index, Checkpoint *out) const
{
    PGSS_SPAN("checkpoint.load_file", Io);
    const std::string path = checkpointPath(positions_[index]);
    std::vector<std::uint8_t> bytes;
    if (!util::readFileBytes(path, bytes)) {
        ++util::fi::counter("ckpt.load_failed");
        util::warn("checkpoint missing: %s", path.c_str());
        return false;
    }
    // Injected read corruption lands here, before deserialization, so
    // it exercises exactly the path a flipped bit on disk would take.
    ckpt_read.corrupt(bytes);
    util::ReadError err;
    *out = Checkpoint::deserialize(std::move(bytes), err);
    if (err == util::ReadError::None)
        return true;
    ++util::fi::counter("ckpt.load_failed");
    if (err == util::ReadError::Corrupt) {
        ++util::fi::counter("ckpt.quarantined");
        util::quarantineFile(path);
    }
    return false;
}

bool
CheckpointLibrary::loadResolved(std::size_t index, Checkpoint *out) const
{
    // Walk back to the nearest full image, then roll its delta chain
    // forward through the requested capture. The chain is at most
    // full_interval_ - 1 deltas long by construction.
    std::size_t base = index;
    while (base > 0 && isDeltaAt(base))
        --base;
    // kinds_ comes from CRC-validated metadata, so a chain with no
    // full base is a recorder logic error, not storage damage.
    util::panicIf(isDeltaAt(base),
                  "checkpoint library chain has no full base");
    if (!loadFile(base, out))
        return false;
    for (std::size_t i = base + 1; i <= index; ++i) {
        Checkpoint delta;
        if (!loadFile(i, &delta))
            return false;
        Checkpoint::applyDelta(*out, delta);
    }
    return true;
}

SeekResult
CheckpointLibrary::seekTo(SimulationEngine &engine,
                          std::uint64_t target_op) const
{
    PGSS_SPAN("checkpoint.seek", Checkpoint);

    SeekResult res;

    // Best recorded position at or below the target (position 0 is
    // always recorded).
    bool have_best = false;
    std::size_t best_index = 0;
    std::uint64_t best = 0;
    for (std::size_t i = 0; i < positions_.size(); ++i) {
        if (positions_[i] > target_op)
            break;
        best = positions_[i];
        best_index = i;
        have_best = true;
    }

    // Use a checkpoint only when it beats the engine's current
    // position (and the engine is not already past the target). When
    // the preferred checkpoint's chain is corrupt, degrade position
    // by position: any usable lower checkpoint still beats rebuilding
    // from scratch, and functional warming from it is bit-identical
    // to the undamaged seek.
    const std::uint64_t here = engine.totalOps();
    const bool engine_usable = here <= target_op;
    if (have_best && (!engine_usable || best > here)) {
        bool restored = false;
        std::size_t tried = 0;
        for (std::size_t i = best_index + 1; i-- > 0;) {
            if (engine_usable && positions_[i] <= here)
                break; // the engine itself is the better start
            Checkpoint state;
            ++tried;
            if (!loadResolved(i, &state))
                continue;
            engine.restore(state);
            res.restored_at = positions_[i];
            res.from_checkpoint = true;
            restored = true;
            break;
        }
        if (tried > 1 || (!restored && tried > 0))
            ++util::fi::counter("ckpt.degraded_seek");
        if (!restored && !engine_usable) {
            // Nothing on disk is usable and the engine sits past the
            // target: rebuild by fast-forwarding a fresh engine. Slow
            // but exact — the library never turns storage damage into
            // a crash or a wrong answer.
            ++util::fi::counter("ckpt.rebuild_fastforward");
            util::warn("no usable checkpoint at or below %llu; "
                       "rebuilding from position 0",
                       static_cast<unsigned long long>(target_op));
            engine.reset();
        }
    } else if (!engine_usable) {
        ++util::fi::counter("ckpt.rebuild_fastforward");
        util::warn("seeking backwards without checkpoints; "
                   "rebuilding from position 0");
        engine.reset();
    }

    const std::uint64_t gap = target_op - engine.totalOps();
    if (gap > 0)
        engine.run(gap, SimMode::FunctionalWarm);
    res.warmed_ops = gap;
    return res;
}

} // namespace pgss::sim
