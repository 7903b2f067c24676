/** @file Tests for the binary serialization layer. */

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

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

namespace
{

std::string
hex(const std::vector<std::uint8_t> &bytes)
{
    static const char digits[] = "0123456789abcdef";
    std::string s;
    for (std::uint8_t b : bytes) {
        s += digits[b >> 4];
        s += digits[b & 0xf];
    }
    return s;
}

} // namespace

TEST(Serialize, WireFormatIsPinned)
{
    // Every checkpoint, library and profile file ever written is in
    // this encoding: a codec change that moves one byte (or one CRC)
    // makes old artifacts Corrupt. The literal was recorded from the
    // byte-at-a-time codec.
    BinaryWriter w(magic, version);
    w.putU8(0xab);
    w.putU64Vec({1, 0x0102030405060708ull, ~0ull});
    w.putU8Vec({0xde, 0xad, 0xbe});
    w.putDoubleVec({1.5, -0.0});
    w.putSectionCrc();
    EXPECT_EQ(hex(w.bytes()),
              "5453455403000000"                   // magic, version
              "ab"                                 // U8
              "0300000000000000"                   // U64Vec count
              "0100000000000000"
              "0807060504030201"
              "ffffffffffffffff"
              "0300000000000000" "deadbe"          // U8Vec
              "0200000000000000"                   // DoubleVec count
              "000000000000f83f"                   // 1.5
              "0000000000000080"                   // -0.0
              "1c209330");                         // section CRC
}

TEST(Serialize, BulkVectorsRoundTripUnaligned)
{
    for (std::size_t n : {0u, 1u, 1000u}) {
        std::vector<std::uint64_t> u(n);
        std::vector<double> d(n);
        for (std::size_t i = 0; i < n; ++i) {
            u[i] = 0x9e3779b97f4a7c15ull * (i + 1);
            d[i] = static_cast<double>(i) * -0.37 + 1e-300;
        }
        BinaryWriter w(magic, version);
        w.putU8(7); // every element below starts at an odd offset
        w.putU64Vec(u);
        w.putDoubleVec(d);
        w.putSectionCrc();

        BinaryReader r(w.bytes(), magic, version);
        EXPECT_EQ(r.getU8(), 7);
        EXPECT_EQ(r.getU64Vec(), u) << n;
        EXPECT_EQ(r.getDoubleVec(), d) << n;
        EXPECT_TRUE(r.checkSectionCrc());
        EXPECT_TRUE(r.atEnd());
    }
}

TEST(Serialize, HugeVectorCountIsCorruptWithoutAllocating)
{
    // count * 8 wraps to a small number near 2^61, so only a check
    // against the remaining bytes stops a 2^64-byte allocation.
    const std::uint64_t counts[] = {1ull << 61, (1ull << 61) + 1,
                                    (1ull << 61) - 1, ~0ull};
    for (std::uint64_t count : counts) {
        BinaryWriter w(magic, version);
        w.putU64(count);
        w.putU64(0);
        BinaryReader ru(w.bytes(), magic, version);
        std::vector<std::uint64_t> u;
        EXPECT_NO_THROW(u = ru.getU64Vec());
        EXPECT_TRUE(u.empty());
        EXPECT_EQ(ru.error(), pgss::util::ReadError::Corrupt);

        BinaryReader rd(w.bytes(), magic, version);
        std::vector<double> d;
        EXPECT_NO_THROW(d = rd.getDoubleVec());
        EXPECT_TRUE(d.empty());
        EXPECT_EQ(rd.error(), pgss::util::ReadError::Corrupt);
    }
}

TEST(Serialize, FlipInsideBulkVectorFailsSectionCrc)
{
    BinaryWriter w(magic, version);
    w.putU64Vec({11, 22, 33});
    w.putDoubleVec({0.5, -8.25});
    w.putSectionCrc();
    const std::vector<std::uint8_t> clean = w.bytes();
    // Element payloads: U64Vec's at [16, 40), DoubleVec's at [48, 64).
    for (std::size_t at = 16; at < 64; ++at) {
        if (at >= 40 && at < 48)
            continue; // DoubleVec count: decodes as Corrupt itself
        std::vector<std::uint8_t> bytes = clean;
        bytes[at] ^= 0x10;
        BinaryReader r(bytes, magic, version);
        EXPECT_EQ(r.getU64Vec().size(), 3u);
        EXPECT_EQ(r.getDoubleVec().size(), 2u);
        EXPECT_TRUE(r.ok()) << at;
        EXPECT_FALSE(r.checkSectionCrc()) << at;
        EXPECT_EQ(r.error(), pgss::util::ReadError::Corrupt) << at;
    }
}
