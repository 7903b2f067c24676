/** @file Tests for the binary serialization layer. */

#include <cstdio>

#include <gtest/gtest.h>

#include "util/serialize.hh"
#include "tests/helpers.hh"

using pgss::util::BinaryReader;
using pgss::util::BinaryWriter;

namespace
{
constexpr std::uint32_t magic = 0x54455354;
constexpr std::uint32_t version = 3;
} // namespace

TEST(Serialize, RoundTripAllTypes)
{
    BinaryWriter w(magic, version);
    w.putU8(0xab);
    w.putU32(0xdeadbeef);
    w.putU64(0x0123456789abcdefull);
    w.putI64(-42);
    w.putDouble(3.14159);
    w.putString("hello world");
    w.putDoubleVec({1.5, -2.5, 0.0});
    w.putU64Vec({7, 8, 9});

    BinaryReader r(w.bytes(), magic, version);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.getU8(), 0xab);
    EXPECT_EQ(r.getU32(), 0xdeadbeefu);
    EXPECT_EQ(r.getU64(), 0x0123456789abcdefull);
    EXPECT_EQ(r.getI64(), -42);
    EXPECT_DOUBLE_EQ(r.getDouble(), 3.14159);
    EXPECT_EQ(r.getString(), "hello world");
    EXPECT_EQ(r.getDoubleVec(), (std::vector<double>{1.5, -2.5, 0.0}));
    EXPECT_EQ(r.getU64Vec(), (std::vector<std::uint64_t>{7, 8, 9}));
    EXPECT_TRUE(r.atEnd());
    EXPECT_TRUE(r.ok());
}

TEST(Serialize, EmptyContainersRoundTrip)
{
    BinaryWriter w(magic, version);
    w.putString("");
    w.putDoubleVec({});
    w.putU64Vec({});
    BinaryReader r(w.bytes(), magic, version);
    EXPECT_EQ(r.getString(), "");
    EXPECT_TRUE(r.getDoubleVec().empty());
    EXPECT_TRUE(r.getU64Vec().empty());
    EXPECT_TRUE(r.ok());
}

TEST(Serialize, WrongMagicFailsHeader)
{
    BinaryWriter w(magic, version);
    BinaryReader r(w.bytes(), magic + 1, version);
    EXPECT_FALSE(r.ok());
}

TEST(Serialize, WrongVersionFailsHeader)
{
    BinaryWriter w(magic, version);
    BinaryReader r(w.bytes(), magic, version + 1);
    EXPECT_FALSE(r.ok());
}

TEST(Serialize, TruncatedInputReportsNotOk)
{
    BinaryWriter w(magic, version);
    w.putU64(12345);
    auto bytes = w.bytes();
    bytes.resize(bytes.size() - 3);
    BinaryReader r(bytes, magic, version);
    ASSERT_TRUE(r.ok()); // header intact
    r.getU64();          // body truncated
    EXPECT_FALSE(r.ok());
}

TEST(Serialize, TooShortForHeader)
{
    BinaryReader r({1, 2, 3}, magic, version);
    EXPECT_FALSE(r.ok());
}

TEST(Serialize, SpecialDoublesRoundTrip)
{
    BinaryWriter w(magic, version);
    w.putDouble(0.0);
    w.putDouble(-0.0);
    w.putDouble(1e308);
    w.putDouble(-1e-308);
    BinaryReader r(w.bytes(), magic, version);
    EXPECT_EQ(r.getDouble(), 0.0);
    EXPECT_EQ(r.getDouble(), -0.0);
    EXPECT_DOUBLE_EQ(r.getDouble(), 1e308);
    EXPECT_DOUBLE_EQ(r.getDouble(), -1e-308);
}

TEST(Serialize, FileRoundTrip)
{
    const std::string dir = pgss::test::uniqueTempDir("ser");
    const std::string path = dir + "/ser_test.bin";
    BinaryWriter w(magic, version);
    w.putString("file payload");
    w.putU64Vec({4, 5, 6});
    ASSERT_TRUE(w.writeFile(path));

    BinaryReader r = BinaryReader::fromFile(path, magic, version);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.getString(), "file payload");
    EXPECT_EQ(r.getU64Vec(), (std::vector<std::uint64_t>{4, 5, 6}));
    std::filesystem::remove_all(dir);
}

TEST(Serialize, MissingFileReportsNotOk)
{
    BinaryReader r = BinaryReader::fromFile(
        "/nonexistent/path/nowhere.bin", magic, version);
    EXPECT_FALSE(r.ok());
}
