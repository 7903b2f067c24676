/** @file Tests for the crash-safe append-only completion journal. */

#include <atomic>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/fi.hh"
#include "util/journal.hh"
#include "tests/helpers.hh"

using namespace pgss;
namespace fs = std::filesystem;

namespace
{

struct JournalTest : ::testing::Test
{
    std::string dir;

    void SetUp() override
    {
        util::fi::reset();
        dir = test::uniqueTempDir("journal");
    }
    void TearDown() override
    {
        util::fi::reset();
        fs::remove_all(dir);
    }

    std::string path() const { return dir + "/run.journal"; }
};

} // namespace

TEST_F(JournalTest, AppendAndReadBack)
{
    {
        util::Journal j(path());
        EXPECT_TRUE(j.append("{\"entry\":\"one\"}"));
        EXPECT_TRUE(j.append("{\"entry\":\"two\"}"));
    }
    // A second journal object appends, not truncates.
    {
        util::Journal j(path());
        EXPECT_TRUE(j.append("{\"entry\":\"three\"}"));
    }
    std::vector<std::string> lines;
    std::size_t torn = 7;
    ASSERT_TRUE(util::Journal::readLines(path(), lines, &torn));
    EXPECT_EQ(torn, 0u);
    ASSERT_EQ(lines.size(), 3u);
    EXPECT_EQ(lines[0], "{\"entry\":\"one\"}");
    EXPECT_EQ(lines[2], "{\"entry\":\"three\"}");
}

TEST_F(JournalTest, MissingFileIsEmptyJournal)
{
    std::vector<std::string> lines{"stale"};
    std::size_t torn = 7;
    EXPECT_TRUE(util::Journal::readLines(path(), lines, &torn));
    EXPECT_TRUE(lines.empty());
    EXPECT_EQ(torn, 0u);
}

TEST_F(JournalTest, TornTrailingLineIsDropped)
{
    {
        util::Journal j(path());
        ASSERT_TRUE(j.append("complete-1"));
        ASSERT_TRUE(j.append("complete-2"));
    }
    // Simulate a crash mid-append: a record without its newline.
    {
        std::ofstream out(path(), std::ios::app | std::ios::binary);
        out << "torn-partial-rec";
    }
    std::vector<std::string> lines;
    std::size_t torn = 0;
    ASSERT_TRUE(util::Journal::readLines(path(), lines, &torn));
    EXPECT_EQ(torn, 1u);
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_EQ(lines[1], "complete-2");
    // The torn line is also counted on the process-wide counter.
    EXPECT_GE(util::fi::counter("journal.torn_lines")
                  .load(std::memory_order_relaxed),
              1u);
    // Appending after the torn tail starts a fresh, complete record
    // (readers drop the torn bytes; the file keeps them).
    util::Journal j(path());
    ASSERT_TRUE(j.append("complete-3"));
    lines.clear();
    ASSERT_TRUE(util::Journal::readLines(path(), lines, &torn));
    ASSERT_EQ(lines.size(), 3u);
    EXPECT_EQ(lines[2], "torn-partial-reccomplete-3");
}

TEST_F(JournalTest, InjectedAppendFaultIsNonFatal)
{
    util::Journal j(path());
    ASSERT_TRUE(j.append("before"));
    ASSERT_TRUE(
        util::fi::configure("site=journal.append,mode=fail-nth:1"));
    EXPECT_FALSE(j.append("dropped"));
    util::fi::configure("");
    EXPECT_TRUE(j.append("after")); // journal stays usable
    std::vector<std::string> lines;
    ASSERT_TRUE(util::Journal::readLines(path(), lines));
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_EQ(lines[0], "before");
    EXPECT_EQ(lines[1], "after");
}

TEST_F(JournalTest, EmptyLinesRoundTrip)
{
    util::Journal j(path());
    ASSERT_TRUE(j.append(""));
    ASSERT_TRUE(j.append("x"));
    std::vector<std::string> lines;
    ASSERT_TRUE(util::Journal::readLines(path(), lines));
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_EQ(lines[0], "");
    EXPECT_EQ(lines[1], "x");
}
