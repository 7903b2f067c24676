/** @file Tests for the CRC-32 that seals every persisted artifact. */

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/crc32.hh"

using pgss::util::crc32;
using pgss::util::crc32Update;

namespace
{

/** Bit-at-a-time CRC-32 straight from the reflected polynomial. */
std::uint32_t
bitwiseCrc32(const std::uint8_t *p, std::size_t n)
{
    std::uint32_t c = 0xffffffffu;
    for (std::size_t i = 0; i < n; ++i) {
        c ^= p[i];
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    return c ^ 0xffffffffu;
}

std::vector<std::uint8_t>
randomBytes(std::size_t n, std::uint32_t seed)
{
    std::mt19937 rng(seed);
    std::vector<std::uint8_t> v(n);
    for (std::uint8_t &b : v)
        b = static_cast<std::uint8_t>(rng());
    return v;
}

} // namespace

TEST(Crc32, KnownAnswers)
{
    const std::string check = "123456789";
    EXPECT_EQ(crc32(check.data(), check.size()), 0xCBF43926u);
    EXPECT_EQ(crc32(nullptr, 0), 0u);
    EXPECT_EQ(crc32Update(0, nullptr, 0), 0u);
}

TEST(Crc32, MatchesBitwiseAtEveryLengthAndOffset)
{
    // Lengths past 8 exercise the 8-byte blocks, every length mod 8
    // the bytewise tail, and offsets 0-15 every start alignment.
    const std::vector<std::uint8_t> buf = randomBytes(300 + 16, 1);
    for (std::size_t off = 0; off < 16; ++off)
        for (std::size_t len = 0; len < 300; ++len)
            ASSERT_EQ(crc32(buf.data() + off, len),
                      bitwiseCrc32(buf.data() + off, len))
                << "offset " << off << " length " << len;
}

TEST(Crc32, MatchesBitwiseOnLongBuffer)
{
    // 8192 blocks reach every entry of every slice table; the short
    // buffers above share prefixes and miss some.
    const std::vector<std::uint8_t> buf = randomBytes(1 << 16, 2);
    EXPECT_EQ(crc32(buf.data(), buf.size()),
              bitwiseCrc32(buf.data(), buf.size()));
}

TEST(Crc32, UpdateConcatenates)
{
    // Split points off the 8-byte grid make the second call start
    // mid-block relative to the whole buffer.
    const std::vector<std::uint8_t> buf = randomBytes(257, 3);
    const std::uint32_t whole = crc32(buf.data(), buf.size());
    for (std::size_t split : {1u, 3u, 7u, 9u, 13u, 100u, 129u, 255u}) {
        const std::uint32_t head = crc32(buf.data(), split);
        EXPECT_EQ(crc32Update(head, buf.data() + split,
                              buf.size() - split),
                  whole)
            << "split " << split;
    }
}
