/** @file Tests for crash-safe atomic file writes and quarantine. */

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/atomic_file.hh"
#include "util/fi.hh"
#include "tests/helpers.hh"

using namespace pgss;
namespace fs = std::filesystem;

namespace
{

struct AtomicFileTest : ::testing::Test
{
    std::string dir;

    void SetUp() override
    {
        util::fi::reset();
        dir = test::uniqueTempDir("atomic_file");
    }
    void TearDown() override
    {
        util::fi::reset();
        fs::remove_all(dir);
    }

    std::string path(const char *name) const
    {
        return dir + "/" + name;
    }

    static std::string slurp(const std::string &p)
    {
        std::ifstream in(p, std::ios::binary);
        return std::string(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
    }
};

} // namespace

TEST_F(AtomicFileTest, CommitWritesAndReplaces)
{
    const std::string p = path("a.bin");
    ASSERT_TRUE(util::atomicWriteFile(p, "first", 5));
    EXPECT_EQ(slurp(p), "first");

    util::AtomicFileWriter w(p);
    w.write("sec");
    w.write(std::string("ond"));
    std::string err;
    ASSERT_TRUE(w.commit(&err)) << err;
    EXPECT_EQ(slurp(p), "second");
    // No temp files left behind.
    std::size_t entries = 0;
    for (const auto &e : fs::directory_iterator(dir)) {
        (void)e;
        ++entries;
    }
    EXPECT_EQ(entries, 1u);
}

TEST_F(AtomicFileTest, CommitTwiceFails)
{
    util::AtomicFileWriter w(path("b.bin"));
    w.write("x", 1);
    ASSERT_TRUE(w.commit());
    std::string err;
    EXPECT_FALSE(w.commit(&err));
    EXPECT_NE(err.find("twice"), std::string::npos);
}

TEST_F(AtomicFileTest, AbandonedWriterHasNoEffect)
{
    const std::string p = path("c.bin");
    ASSERT_TRUE(util::atomicWriteFile(p, "keep", 4));
    {
        util::AtomicFileWriter w(p);
        w.write("discarded", 9);
        // destroyed without commit()
    }
    EXPECT_EQ(slurp(p), "keep");
}

TEST_F(AtomicFileTest, InjectedFaultsLeaveOldFileIntact)
{
    const std::string p = path("d.bin");
    ASSERT_TRUE(util::atomicWriteFile(p, "old", 3));

    // Every fallible step of the fs.* pipeline, injected in turn: the
    // destination must keep its previous content and no temp file may
    // survive.
    for (const char *spec :
         {"site=fs.open,mode=fail-nth:1", "site=fs.write,mode=fail-nth:1",
          "site=fs.fsync,mode=fail-nth:1",
          "site=fs.rename,mode=fail-nth:1"}) {
        ASSERT_TRUE(util::fi::configure(spec));
        std::string err;
        EXPECT_FALSE(util::atomicWriteFile(p, "new", 3, nullptr, &err))
            << spec;
        EXPECT_FALSE(err.empty()) << spec;
        EXPECT_EQ(slurp(p), "old") << spec;
        std::size_t entries = 0;
        for (const auto &e : fs::directory_iterator(dir)) {
            (void)e;
            ++entries;
        }
        EXPECT_EQ(entries, 1u) << spec << " left a temp file";
        // After the one-shot fault, the same write succeeds.
        util::fi::configure("");
        ASSERT_TRUE(util::atomicWriteFile(p, "old", 3));
    }
}

TEST_F(AtomicFileTest, FileSitesScopeInjection)
{
    static util::FileSites test_sites("aftest");
    const std::string p = path("e.bin");
    // A schedule against another artifact class leaves this one alone.
    ASSERT_TRUE(
        util::fi::configure("site=ckpt.write,mode=fail-always"));
    EXPECT_TRUE(util::atomicWriteFile(p, "x", 1, &test_sites));
    // A schedule against our prefix fails it.
    ASSERT_TRUE(
        util::fi::configure("site=aftest.*,mode=fail-always"));
    EXPECT_FALSE(util::atomicWriteFile(p, "y", 1, &test_sites));
    EXPECT_GT(test_sites.open.triggers(), 0u);
}

TEST_F(AtomicFileTest, ReadFileBytes)
{
    const std::string p = path("f.bin");
    std::vector<std::uint8_t> out{1, 2, 3};
    EXPECT_FALSE(util::readFileBytes(p, out)); // missing
    EXPECT_TRUE(out.empty());

    const std::uint8_t data[] = {0x00, 0xff, 0x7f};
    ASSERT_TRUE(util::atomicWriteFile(p, data, 3));
    ASSERT_TRUE(util::readFileBytes(p, out));
    EXPECT_EQ(out, (std::vector<std::uint8_t>{0x00, 0xff, 0x7f}));

    ASSERT_TRUE(util::atomicWriteFile(p, "", 0));
    EXPECT_TRUE(util::readFileBytes(p, out)); // empty file reads fine
    EXPECT_TRUE(out.empty());
}

TEST_F(AtomicFileTest, QuarantineMovesAside)
{
    const std::string p = path("g.bin");
    ASSERT_TRUE(util::atomicWriteFile(p, "bad1", 4));
    EXPECT_TRUE(util::quarantineFile(p));
    EXPECT_FALSE(fs::exists(p));
    EXPECT_EQ(slurp(p + ".corrupt"), "bad1");

    // A later quarantine of the same artifact replaces the old one.
    ASSERT_TRUE(util::atomicWriteFile(p, "bad2", 4));
    EXPECT_TRUE(util::quarantineFile(p));
    EXPECT_EQ(slurp(p + ".corrupt"), "bad2");

    // Quarantining a missing file reports failure.
    EXPECT_FALSE(util::quarantineFile(path("nonexistent.bin")));
}
