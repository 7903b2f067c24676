#include "util/crc32.hh"

#include <array>

namespace pgss::util
{

namespace
{

using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

/**
 * Slice-by-8 tables for the reflected 0xedb88320 polynomial. Row 0
 * is the classic byte-at-a-time table; row k advances a CRC whose
 * byte sits k positions before the end of an 8-byte block, so one
 * block costs eight independent lookups instead of a serial chain.
 */
Tables
makeTables()
{
    Tables t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
        t[0][i] = c;
    }
    for (std::uint32_t i = 0; i < 256; ++i)
        for (std::size_t k = 1; k < 8; ++k)
            t[k][i] = t[0][t[k - 1][i] & 0xffu] ^ (t[k - 1][i] >> 8);
    return t;
}

const Tables &
tables()
{
    static const Tables t = makeTables();
    return t;
}

/** Little-endian 32-bit load from an unaligned address. */
std::uint32_t
loadLe32(const std::uint8_t *p)
{
    return static_cast<std::uint32_t>(p[0]) |
           static_cast<std::uint32_t>(p[1]) << 8 |
           static_cast<std::uint32_t>(p[2]) << 16 |
           static_cast<std::uint32_t>(p[3]) << 24;
}

} // anonymous namespace

std::uint32_t
crc32Update(std::uint32_t crc, const void *data, std::size_t size)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    const Tables &t = tables();
    std::uint32_t c = crc ^ 0xffffffffu;
    for (; size >= 8; p += 8, size -= 8) {
        const std::uint32_t lo = c ^ loadLe32(p);
        const std::uint32_t hi = loadLe32(p + 4);
        c = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
            t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^
            t[3][hi & 0xffu] ^ t[2][(hi >> 8) & 0xffu] ^
            t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
    }
    for (; size > 0; ++p, --size)
        c = t[0][(c ^ *p) & 0xffu] ^ (c >> 8);
    return c ^ 0xffffffffu;
}

std::uint32_t
crc32(const void *data, std::size_t size)
{
    return crc32Update(0, data, size);
}

} // namespace pgss::util
