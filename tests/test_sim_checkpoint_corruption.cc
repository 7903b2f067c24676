/**
 * @file
 * Corruption matrix for the persistent checkpoint artifacts: truncate
 * and bit-flip checkpoint images (full and delta), delta chains, and
 * library metadata, asserting every damage case is detected (never
 * deserialized into garbage), quarantined, and transparently degraded
 * around — the library rebuilds state instead of crashing, and the
 * result is bit-identical to the undamaged path.
 */

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/checkpoint.hh"
#include "sim/checkpoint_library.hh"
#include "tests/helpers.hh"
#include "util/atomic_file.hh"
#include "util/fi.hh"
#include "util/serialize.hh"

using namespace pgss;
namespace fs = std::filesystem;

namespace
{

std::uint64_t
robustCount(const char *name)
{
    return util::fi::counter(name).load(std::memory_order_relaxed);
}

/** A recorded delta-layout library over a memory-writing workload. */
struct CorruptionFixture : ::testing::Test
{
    std::string dir;
    workload::BuiltWorkload built;
    sim::CheckpointLibrary library;

    CorruptionFixture()
        : dir(test::uniqueTempDir("ckpt_corruption")),
          built(test::storingWorkload(60'000.0, 3)), library(dir)
    {
    }

    void SetUp() override
    {
        util::fi::reset();
        fs::remove_all(dir);
        library.setFullInterval(4);
        library.record(built.program, {}, 50'000);
        ASSERT_GE(library.positions().size(), 6u);
    }
    void TearDown() override
    {
        util::fi::reset();
        fs::remove_all(dir);
    }

    /** Checkpoint files sorted by name = ascending position (the
     * position is zero-padded in the filename). Index i matches
     * positions()[i]. */
    std::vector<std::string> checkpointFiles() const
    {
        std::vector<std::string> out;
        for (const auto &e : fs::directory_iterator(dir)) {
            const std::string p = e.path().string();
            if (p.size() > 5 && p.substr(p.size() - 5) == ".ckpt")
                out.push_back(p);
        }
        std::sort(out.begin(), out.end());
        return out;
    }

    std::string metaFile() const
    {
        for (const auto &e : fs::directory_iterator(dir)) {
            const std::string p = e.path().string();
            if (p.size() > 5 && p.substr(p.size() - 5) == ".meta")
                return p;
        }
        return "";
    }

    static void damageFile(const std::string &path,
                           const std::vector<std::uint8_t> &bytes)
    {
        ASSERT_TRUE(
            util::atomicWriteFile(path, bytes.data(), bytes.size()));
    }

    std::size_t quarantineCount() const
    {
        std::size_t n = 0;
        for (const auto &e : fs::directory_iterator(dir)) {
            const std::string p = e.path().string();
            if (p.size() > 8 && p.substr(p.size() - 8) == ".corrupt")
                ++n;
        }
        return n;
    }

    /** Reference state at @p target from an undamaged source of
     * truth: plain sequential execution. */
    std::vector<std::uint8_t> referenceState(std::uint64_t target)
    {
        sim::SimulationEngine ref(built.program);
        ref.run(target, sim::SimMode::FunctionalWarm);
        return ref.checkpoint().serialize();
    }
};

} // namespace

// ---- Byte-level matrix: every section of both image kinds. --------

TEST_F(CorruptionFixture, TruncationMatrixIsAlwaysDetected)
{
    const std::vector<std::string> files = checkpointFiles();
    // One full image and one delta (index 0 is full, 1..3 deltas).
    for (const std::size_t idx : {std::size_t{0}, std::size_t{2}}) {
        std::vector<std::uint8_t> bytes;
        ASSERT_TRUE(util::readFileBytes(files[idx], bytes));
        ASSERT_GT(bytes.size(), 64u);
        // Sweep truncation points across the whole image, hitting
        // every section (header, arch, memory, caches, branch).
        const std::size_t step = std::max<std::size_t>(
            1, bytes.size() / 37); // odd step: lands mid-field too
        for (std::size_t len = 0; len < bytes.size(); len += step) {
            std::vector<std::uint8_t> cut(bytes.begin(),
                                          bytes.begin() + len);
            util::ReadError err;
            sim::Checkpoint::deserialize(cut, err);
            EXPECT_NE(err, util::ReadError::None)
                << "file " << idx << " truncated to " << len
                << " bytes deserialized cleanly";
        }
    }
}

TEST_F(CorruptionFixture, BitFlipMatrixIsAlwaysDetected)
{
    const std::vector<std::string> files = checkpointFiles();
    for (const std::size_t idx : {std::size_t{0}, std::size_t{2}}) {
        std::vector<std::uint8_t> bytes;
        ASSERT_TRUE(util::readFileBytes(files[idx], bytes));
        // Flip one bit at offsets spread over the image; every
        // CRC-sealed section must report the damage. A flip in the
        // version word reads as Stale — also a detected miss, never a
        // silent wrong answer.
        const std::size_t step =
            std::max<std::size_t>(1, bytes.size() / 53);
        for (std::size_t off = 0; off < bytes.size(); off += step) {
            for (const int bit : {0, 7}) {
                std::vector<std::uint8_t> flipped = bytes;
                flipped[off] ^= static_cast<std::uint8_t>(1u << bit);
                util::ReadError err;
                sim::Checkpoint::deserialize(flipped, err);
                EXPECT_NE(err, util::ReadError::None)
                    << "flip at byte " << off << " bit " << bit
                    << " of file " << idx << " went undetected";
            }
        }
    }
}

// ---- Library-level: detect -> quarantine -> degrade -> rebuild. ---

TEST_F(CorruptionFixture, CorruptFullImageDegradesToLowerCheckpoint)
{
    const std::vector<std::string> files = checkpointFiles();
    // Damage the second full image (index 4 under fullInterval=4);
    // seeks near it must fall back to an earlier usable position and
    // still produce bit-identical state.
    ASSERT_FALSE(library.isDeltaAt(4));
    std::vector<std::uint8_t> bytes;
    ASSERT_TRUE(util::readFileBytes(files[4], bytes));
    bytes[bytes.size() / 2] ^= 0x10;
    damageFile(files[4], bytes);

    const std::uint64_t target = library.positions()[4] + 10'000;
    sim::SimulationEngine eng(built.program);
    library.seekTo(eng, target);
    EXPECT_EQ(eng.totalOps(), target);
    EXPECT_EQ(eng.checkpoint().serialize(), referenceState(target));

    EXPECT_GE(quarantineCount(), 1u);
    EXPECT_FALSE(fs::exists(files[4]));
    EXPECT_GE(robustCount("ckpt.quarantined"), 1u);
    EXPECT_GE(robustCount("ckpt.degraded_seek"), 1u);
}

TEST_F(CorruptionFixture, CorruptDeltaBreaksOnlyItsChainSuffix)
{
    const std::vector<std::string> files = checkpointFiles();
    // Damage the first delta (index 1). Checkpoints 1..3 resolve
    // through it, so seeks there degrade to the full image at 0;
    // checkpoint 4 onward (fresh chain) is untouched.
    ASSERT_TRUE(library.isDeltaAt(1));
    std::vector<std::uint8_t> bytes;
    ASSERT_TRUE(util::readFileBytes(files[1], bytes));
    bytes[bytes.size() - 9] ^= 0x01;
    damageFile(files[1], bytes);

    const std::uint64_t in_chain = library.positions()[3] + 5'000;
    sim::SimulationEngine a(built.program);
    const sim::SeekResult ra = library.seekTo(a, in_chain);
    EXPECT_EQ(a.totalOps(), in_chain);
    // Chain 1..3 is unusable and the only image below is position 0 —
    // which a fresh engine already sits at, so the degraded seek warms
    // forward instead of restoring.
    EXPECT_FALSE(ra.from_checkpoint);
    EXPECT_EQ(a.checkpoint().serialize(), referenceState(in_chain));
    EXPECT_GE(robustCount("ckpt.degraded_seek"), 1u);

    const std::uint64_t beyond = library.positions()[4] + 5'000;
    sim::SimulationEngine b(built.program);
    const sim::SeekResult rb = library.seekTo(b, beyond);
    EXPECT_EQ(rb.restored_at, library.positions()[4]);
    EXPECT_EQ(b.checkpoint().serialize(), referenceState(beyond));
}

TEST_F(CorruptionFixture, AllCheckpointsGoneRebuildsFromScratch)
{
    // Remove every image: a backward seek has nothing to restore and
    // must reset + fast-forward instead of panicking (the old
    // "corrupt checkpoint in library" abort).
    for (const std::string &f : checkpointFiles())
        fs::remove(f);
    sim::SimulationEngine eng(built.program);
    const std::uint64_t far = library.positions().back();
    library.seekTo(eng, far);
    ASSERT_EQ(eng.totalOps(), far);

    const std::uint64_t back = library.positions()[1] + 1'000;
    const sim::SeekResult res = library.seekTo(eng, back);
    EXPECT_FALSE(res.from_checkpoint);
    EXPECT_EQ(eng.totalOps(), back);
    EXPECT_EQ(eng.checkpoint().serialize(), referenceState(back));
    EXPECT_GE(robustCount("ckpt.rebuild_fastforward"), 1u);
    EXPECT_GE(robustCount("ckpt.load_failed"), 1u);
}

TEST_F(CorruptionFixture, CorruptMetadataFailsOpenAndQuarantines)
{
    const std::string meta = metaFile();
    ASSERT_FALSE(meta.empty());
    std::vector<std::uint8_t> bytes;
    ASSERT_TRUE(util::readFileBytes(meta, bytes));

    // Bit flip in the body: CRC catches it, the file is quarantined.
    std::vector<std::uint8_t> flipped = bytes;
    flipped[bytes.size() / 2] ^= 0x04;
    damageFile(meta, flipped);
    sim::CheckpointLibrary other(dir);
    EXPECT_FALSE(other.open(built.program, {}));
    EXPECT_TRUE(fs::exists(meta + ".corrupt"));
    EXPECT_GE(robustCount("ckpt.quarantined"), 1u);

    // Truncation mid-metadata: same detection path.
    std::vector<std::uint8_t> cut(bytes.begin(),
                                  bytes.begin() + bytes.size() / 2);
    damageFile(meta, cut);
    sim::CheckpointLibrary third(dir);
    EXPECT_FALSE(third.open(built.program, {}));

    // Restore the real metadata: the library opens and serves again.
    damageFile(meta, bytes);
    sim::CheckpointLibrary fourth(dir);
    EXPECT_TRUE(fourth.open(built.program, {}));
}

TEST_F(CorruptionFixture, InjectedReadCorruptionMatchesOnDiskDamage)
{
    // The ckpt.read flip site must drive exactly the quarantine path
    // real disk damage takes — and because the library degrades, the
    // seek result stays bit-identical.
    ASSERT_TRUE(util::fi::configure(
        "site=ckpt.read,mode=flip-nth:1"));
    const std::uint64_t target = library.positions()[2] + 2'000;
    sim::SimulationEngine eng(built.program);
    library.seekTo(eng, target);
    util::fi::configure(""); // stop injecting before the reference run
    EXPECT_EQ(eng.totalOps(), target);
    EXPECT_EQ(eng.checkpoint().serialize(), referenceState(target));
    EXPECT_GE(robustCount("ckpt.quarantined"), 1u);
    EXPECT_GE(quarantineCount(), 1u);
}

TEST_F(CorruptionFixture, RecordUnderWriteFaultsDegrades)
{
    // Checkpoint writes start failing partway through a recording
    // pass (ENOSPC-like): the pass stops at a consistent prefix, and
    // seeks past the prefix degrade to functional warming from the
    // last good checkpoint — same answer, higher cost, no crash.
    const std::string dir2 = test::uniqueTempDir("ckpt_record_fault");
    ASSERT_TRUE(
        util::fi::configure("site=ckpt.write,mode=fail-nth:3"));
    sim::CheckpointLibrary partial(dir2);
    partial.setFullInterval(4);
    partial.record(built.program, {}, 50'000);
    util::fi::configure("");
    EXPECT_EQ(partial.positions().size(), 2u); // third write failed
    EXPECT_GE(robustCount("ckpt.record_aborted"), 1u);

    const std::uint64_t target = library.positions()[4] + 2'000;
    sim::SimulationEngine eng(built.program);
    const sim::SeekResult res = partial.seekTo(eng, target);
    EXPECT_TRUE(res.from_checkpoint);
    EXPECT_EQ(res.restored_at, partial.positions()[1]);
    EXPECT_EQ(eng.totalOps(), target);
    EXPECT_EQ(eng.checkpoint().serialize(), referenceState(target));
    fs::remove_all(dir2);
}

TEST_F(CorruptionFixture, StaleVersionIsMissNotQuarantine)
{
    // An artifact from a previous format version is a silent cache
    // miss — it must NOT be quarantined (a version bump would litter
    // *.corrupt files and trip the clean-run CI gate).
    const std::vector<std::string> files = checkpointFiles();
    std::vector<std::uint8_t> bytes;
    ASSERT_TRUE(util::readFileBytes(files[0], bytes));
    // The version word sits at bytes 4..7, little-endian.
    bytes[4] = static_cast<std::uint8_t>(bytes[4] - 1);
    util::ReadError err;
    sim::Checkpoint::deserialize(bytes, err);
    EXPECT_EQ(err, util::ReadError::Stale);
}
