/**
 * @file
 * Corruption-matrix coverage for persisted *.trace artifacts: a
 * bit-flip or truncation in each of the four CRC-sealed sections
 * (header, traces, pool, block_last) must read as Corrupt and drive
 * quarantine + transparent reformation; a version bump must read as
 * Stale and reform silently with no *.corrupt litter; and a file
 * whose CRCs are intact but whose decoded set disagrees with the
 * program must be caught by the decode-time tcheck validation.
 */

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cpu/superblock.hh"
#include "cpu/trace_cache.hh"
#include "workload/suite.hh"
#include "tests/helpers.hh"

using namespace pgss;

namespace
{

std::string
freshDir(const std::string &tag)
{
    return test::uniqueTempDir("trace_corr_" + tag);
}

/** Byte offsets of the artifact's four CRC-sealed sections. */
struct Layout
{
    std::size_t header_end; ///< magic/version/identity/dims + CRC
    std::size_t traces_end;
    std::size_t pool_end;
    std::size_t total;
};

Layout
layoutOf(const cpu::SuperblockSet &sb)
{
    Layout l;
    l.header_end = 8 + 8 + 4 * 4 + 4;
    l.traces_end = l.header_end + sb.traces.size() * 12 + 4;
    // A TOp serializes to 28 bytes (i64 + 4 u32 + 4 u8) — the
    // in-memory struct is padded to 32, the artifact is not.
    l.pool_end = l.traces_end + sb.pool.size() * 28 + 4;
    l.total = l.pool_end + sb.block_last.size() * 4 + 4;
    return l;
}

void
flipByte(const std::string &path, std::size_t offset)
{
    std::fstream f(path,
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekg(static_cast<std::streamoff>(offset));
    char byte = 0;
    f.read(&byte, 1);
    f.seekp(static_cast<std::streamoff>(offset));
    byte = static_cast<char>(byte ^ 0x20);
    f.write(&byte, 1);
}

void
writeRaw(const std::string &path, const std::vector<std::uint8_t> &b)
{
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(f.good());
    f.write(reinterpret_cast<const char *>(b.data()),
            static_cast<std::streamsize>(b.size()));
}

} // anonymous namespace

TEST(CpuTraceCorruption, BitFlipInEachSectionQuarantinesAndReforms)
{
    const auto built = workload::buildWorkload("164.gzip", 0.01);
    struct Case
    {
        const char *name;
        std::size_t offset(const Layout &l) const
        {
            switch (section) {
              case 0: return 8 + 4;  // inside the identity hash
              case 1: return l.header_end +
                             (l.traces_end - l.header_end) / 2;
              case 2: return l.traces_end +
                             (l.pool_end - l.traces_end) / 2;
              default: return l.pool_end +
                              (l.total - l.pool_end) / 2;
            }
        }
        int section;
    };
    const Case cases[] = {{"header", 0},
                          {"traces", 1},
                          {"pool", 2},
                          {"block_last", 3}};

    for (const Case &c : cases) {
        SCOPED_TRACE(c.name);
        const std::string dir =
            freshDir(std::string("flip_") + c.name);
        cpu::TraceCache cold(dir);
        auto set = cold.loadOrForm(built.program);
        ASSERT_NE(set, nullptr);
        const std::string path = cold.pathFor(built.program, {});
        const Layout l = layoutOf(*set);
        ASSERT_EQ(std::filesystem::file_size(path), l.total)
            << "artifact layout drifted; update layoutOf()";

        flipByte(path, c.offset(l));

        cpu::TraceCache damaged(dir);
        auto reformed = damaged.loadOrForm(built.program);
        ASSERT_NE(reformed, nullptr);
        EXPECT_EQ(damaged.stats().quarantined, 1u);
        EXPECT_EQ(damaged.stats().misses, 1u);
        EXPECT_EQ(damaged.stats().verify_rejected, 0u)
            << "CRC damage must be caught before semantic checks";
        EXPECT_TRUE(std::filesystem::exists(path + ".corrupt"));
        EXPECT_EQ(reformed->pool.size(), set->pool.size());

        // The rebuild re-persisted a healthy artifact.
        cpu::TraceCache again(dir);
        again.loadOrForm(built.program);
        EXPECT_EQ(again.stats().disk_hits, 1u);
        EXPECT_EQ(again.stats().quarantined, 0u);
    }
}

TEST(CpuTraceCorruption, TruncationInEachSectionQuarantines)
{
    const auto built = workload::buildWorkload("164.gzip", 0.01);
    const char *const names[] = {"header", "traces", "pool",
                                 "block_last"};
    for (int section = 0; section < 4; ++section) {
        SCOPED_TRACE(names[section]);
        const std::string dir =
            freshDir(std::string("trunc_") + names[section]);
        cpu::TraceCache cold(dir);
        auto set = cold.loadOrForm(built.program);
        ASSERT_NE(set, nullptr);
        const std::string path = cold.pathFor(built.program, {});
        const Layout l = layoutOf(*set);
        const std::size_t ends[] = {l.header_end, l.traces_end,
                                    l.pool_end, l.total};
        std::filesystem::resize_file(path, ends[section] - 2);

        cpu::TraceCache damaged(dir);
        auto reformed = damaged.loadOrForm(built.program);
        ASSERT_NE(reformed, nullptr);
        EXPECT_EQ(damaged.stats().quarantined, 1u);
        EXPECT_EQ(damaged.stats().misses, 1u);
        EXPECT_TRUE(std::filesystem::exists(path + ".corrupt"));
    }
}

TEST(CpuTraceCorruption, StaleVersionReformsSilently)
{
    const auto built = workload::buildWorkload("164.gzip", 0.01);
    const std::string dir = freshDir("stale");
    cpu::TraceCache cold(dir);
    ASSERT_NE(cold.loadOrForm(built.program), nullptr);
    const std::string path = cold.pathFor(built.program, {});

    // Remember the current format version byte, then bump it: the
    // file becomes yesterday's format, not damage.
    char version = 0;
    {
        std::fstream f(path, std::ios::in | std::ios::out |
                                 std::ios::binary);
        f.seekg(4);
        f.read(&version, 1);
        f.seekp(4);
        const char bumped = static_cast<char>(version + 1);
        f.write(&bumped, 1);
    }

    cpu::TraceCache stale(dir);
    auto reformed = stale.loadOrForm(built.program);
    ASSERT_NE(reformed, nullptr);
    EXPECT_EQ(stale.stats().misses, 1u);
    EXPECT_EQ(stale.stats().quarantined, 0u)
        << "a stale file is not damage";
    EXPECT_EQ(stale.stats().verify_rejected, 0u);
    EXPECT_FALSE(std::filesystem::exists(path + ".corrupt"));

    // And the reform re-persisted a current-version artifact.
    char after = 0;
    {
        std::ifstream f(path, std::ios::binary);
        f.seekg(4);
        f.read(&after, 1);
    }
    EXPECT_EQ(after, version);
    cpu::TraceCache again(dir);
    again.loadOrForm(built.program);
    EXPECT_EQ(again.stats().disk_hits, 1u);
}

TEST(CpuTraceCorruption, SemanticTamperRejectedByLoadVerify)
{
    // Correct CRCs over wrong contents: re-serialize a set whose
    // accounting was tampered with. Only the decode-time tcheck
    // validation can catch this — and must, treating it as damage.
    const auto built = workload::buildWorkload("164.gzip", 0.01);
    const std::string dir = freshDir("tamper");
    cpu::TraceCache cold(dir);
    auto set = cold.loadOrForm(built.program);
    ASSERT_NE(set, nullptr);
    const std::string path = cold.pathFor(built.program, {});

    cpu::SuperblockSet bad = *set;
    const std::uint32_t slot = bad.traces[0].first;
    bad.pool[slot].cum += 1;
    const std::uint64_t identity =
        cpu::superblockIdentity(built.program, {});
    writeRaw(path, cpu::serializeSuperblocks(bad, identity));

    cpu::TraceCache tampered(dir);
    auto got = tampered.loadOrForm(built.program);
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(tampered.stats().verify_rejected, 1u);
    EXPECT_EQ(tampered.stats().quarantined, 1u);
    EXPECT_EQ(tampered.stats().misses, 1u);
    EXPECT_TRUE(std::filesystem::exists(path + ".corrupt"));
    // The served set is the re-formed truth, not the tampered file.
    EXPECT_EQ(got->pool[slot].cum, set->pool[slot].cum);
}

TEST(CpuTraceCorruption, LoadVerifyGateCanBeDisabled)
{
    // PGSS_VERIFY_TRACE_LOADS=0 opts out of semantic validation: the
    // tampered file's CRCs are intact, so it loads as a disk hit.
    // This documents the gate's contract; the default (on) is what
    // the test above relies on.
    const auto built = workload::buildWorkload("164.gzip", 0.01);
    const std::string dir = freshDir("gate_off");
    cpu::TraceCache cold(dir);
    auto set = cold.loadOrForm(built.program);
    ASSERT_NE(set, nullptr);
    const std::string path = cold.pathFor(built.program, {});

    cpu::SuperblockSet bad = *set;
    bad.pool[bad.traces[0].first].cum += 1;
    writeRaw(path,
             cpu::serializeSuperblocks(
                 bad, cpu::superblockIdentity(built.program, {})));

    ASSERT_EQ(setenv("PGSS_VERIFY_TRACE_LOADS", "0", 1), 0);
    cpu::TraceCache lax(dir);
    auto got = lax.loadOrForm(built.program);
    ASSERT_EQ(unsetenv("PGSS_VERIFY_TRACE_LOADS"), 0);
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(lax.stats().disk_hits, 1u);
    EXPECT_EQ(lax.stats().verify_rejected, 0u);
    EXPECT_EQ(lax.stats().quarantined, 0u);
}
