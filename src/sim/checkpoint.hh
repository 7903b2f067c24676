/**
 * @file
 * Restartable simulation snapshots. A checkpoint captures everything
 * needed to continue execution bit-identically: architectural state,
 * the data-memory image, cache tags, and branch-predictor tables.
 * TurboSMARTS-style random-order sample processing is built on such
 * snapshots (the paper's live-points); here they are also used to
 * validate engine determinism.
 *
 * Two memory representations (serialization format v2):
 *
 *  - Full: the complete word image. Restorable directly.
 *  - Delta: only the 4 KiB pages written since the previous capture
 *    (mem::MainMemory's dirty tracking), stored as (page index, page
 *    contents) pairs. A delta must be resolved against the full
 *    checkpoint chain that precedes it (applyDelta) before restoring;
 *    CheckpointLibrary records delta chains and resolves them on
 *    seek, cutting checkpoint save time and on-disk size by the
 *    untouched fraction of the memory image.
 */

#ifndef PGSS_SIM_CHECKPOINT_HH
#define PGSS_SIM_CHECKPOINT_HH

#include <array>
#include <cstdint>
#include <vector>

#include "isa/instruction.hh"
#include "mem/hierarchy.hh"
#include "timing/branch_unit.hh"
#include "util/serialize.hh"

namespace pgss::sim
{

class SimulationEngine;

/** A snapshot of one engine's simulation state. */
class Checkpoint
{
  public:
    Checkpoint() = default;

    /** Serialize to bytes (for storing checkpoints on disk). */
    std::vector<std::uint8_t> serialize() const;

    /**
     * Rebuild from serialized bytes.
     * @param[out] ok false when the blob is malformed.
     */
    static Checkpoint deserialize(std::vector<std::uint8_t> data,
                                  bool &ok);

    /**
     * Rebuild from serialized bytes, classifying failures: Stale for
     * a previous format version (rebuild, don't quarantine), Corrupt
     * for damage (bad magic, truncation, section CRC mismatch).
     * Takes @p data by value: move a loaded file in to decode it
     * without a copy.
     */
    static Checkpoint deserialize(std::vector<std::uint8_t> data,
                                  util::ReadError &err);

    /** Total instructions retired at capture time. */
    std::uint64_t retired() const { return retired_; }

    /** True when the memory image holds only dirty pages. */
    bool isDelta() const { return mem_delta_; }

    /** Dirty pages carried by a delta (0 for full checkpoints). */
    std::size_t deltaPageCount() const { return delta_pages_.size(); }

    /**
     * Resolve @p delta against @p base in place. @p base must be a
     * full checkpoint of the same program; afterwards it holds the
     * complete state @p delta was captured from — bit-identical to a
     * full checkpoint taken at the same point. Chains resolve by
     * applying each delta in capture order.
     */
    static void applyDelta(Checkpoint &base, const Checkpoint &delta);

  private:
    std::array<std::uint64_t, isa::num_regs> regs_{};
    std::uint64_t pc_ = 0;
    bool halted_ = false;
    std::uint64_t retired_ = 0;
    std::uint64_t ops_since_taken_ = 0;
    /**
     * Warming's last-fetched L1I line. Without it a restored run
     * would warm one extra fetch the continuous run deduplicated,
     * shifting every later LRU decision by one tick.
     */
    std::uint64_t warm_fetch_line_ = ~0ull;

    /** Full word count of the captured memory (both kinds). */
    std::uint64_t mem_total_words_ = 0;
    bool mem_delta_ = false;
    /** Dirty page indices, ascending (delta only). */
    std::vector<std::uint32_t> delta_pages_;
    /** Full image, or the dirty pages' words concatenated. */
    std::vector<std::uint64_t> memory_words_;

    mem::CacheHierarchy::State hierarchy_;
    timing::BranchUnit::State branch_;

    friend class SimulationEngine;
};

} // namespace pgss::sim

#endif // PGSS_SIM_CHECKPOINT_HH
