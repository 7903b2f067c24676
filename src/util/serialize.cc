#include "util/serialize.hh"

#include <bit>
#include <cstring>

#include "util/atomic_file.hh"
#include "util/crc32.hh"

namespace pgss::util
{

// The wire format is little-endian and integers and vectors are
// copied to and from it with memcpy, so only little-endian hosts can
// read or write it.
static_assert(std::endian::native == std::endian::little,
              "util/serialize encodes by memcpy on little-endian hosts");

BinaryWriter::BinaryWriter(std::uint32_t magic, std::uint32_t version)
{
    putU32(magic);
    putU32(version);
}

void
BinaryWriter::putU8(std::uint8_t v)
{
    buf_.push_back(v);
}

void
BinaryWriter::append(const void *data, std::size_t n)
{
    if (n == 0)
        return;
    const std::size_t at = buf_.size();
    buf_.resize(at + n);
    std::memcpy(buf_.data() + at, data, n);
}

void
BinaryWriter::putU32(std::uint32_t v)
{
    append(&v, sizeof(v));
}

void
BinaryWriter::putU64(std::uint64_t v)
{
    append(&v, sizeof(v));
}

void
BinaryWriter::putI64(std::int64_t v)
{
    putU64(static_cast<std::uint64_t>(v));
}

void
BinaryWriter::putDouble(double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    putU64(bits);
}

void
BinaryWriter::putString(const std::string &s)
{
    putU64(s.size());
    buf_.insert(buf_.end(), s.begin(), s.end());
}

void
BinaryWriter::putDoubleVec(const std::vector<double> &v)
{
    putU64(v.size());
    append(v.data(), v.size() * sizeof(double));
}

void
BinaryWriter::putU64Vec(const std::vector<std::uint64_t> &v)
{
    putU64(v.size());
    append(v.data(), v.size() * sizeof(std::uint64_t));
}

void
BinaryWriter::putU8Vec(const std::vector<std::uint8_t> &v)
{
    putU64(v.size());
    buf_.insert(buf_.end(), v.begin(), v.end());
}

void
BinaryWriter::putSectionCrc()
{
    const std::uint32_t crc =
        crc32(buf_.data() + section_start_, buf_.size() - section_start_);
    putU32(crc);
    section_start_ = buf_.size();
}

bool
BinaryWriter::writeFile(const std::string &path, FileSites *sites) const
{
    return atomicWriteFile(path, buf_.data(), buf_.size(), sites);
}

BinaryReader::BinaryReader(std::vector<std::uint8_t> data,
                           std::uint32_t magic, std::uint32_t version)
    : buf_(std::move(data))
{
    if (buf_.size() < 8) {
        markCorrupt();
        return;
    }
    if (getU32() != magic) {
        markCorrupt();
        return;
    }
    // Right magic but another version is a legitimately old artifact
    // from a previous build, not damage: callers treat it as a cache
    // miss, never quarantine it.
    if (getU32() != version)
        error_ = ReadError::Stale;
}

BinaryReader
BinaryReader::fromFile(const std::string &path, std::uint32_t magic,
                       std::uint32_t version)
{
    std::vector<std::uint8_t> data;
    if (!readFileBytes(path, data)) {
        BinaryReader r(std::move(data), magic, version);
        r.error_ = ReadError::Missing;
        return r;
    }
    return BinaryReader(std::move(data), magic, version);
}

bool
BinaryReader::need(std::size_t n)
{
    if (error_ != ReadError::None || n > buf_.size() - pos_) {
        if (error_ == ReadError::None)
            markCorrupt();
        return false;
    }
    return true;
}

std::uint8_t
BinaryReader::getU8()
{
    if (!need(1))
        return 0;
    return buf_[pos_++];
}

std::uint32_t
BinaryReader::getU32()
{
    std::uint32_t v = 0;
    if (need(sizeof(v))) {
        std::memcpy(&v, buf_.data() + pos_, sizeof(v));
        pos_ += sizeof(v);
    }
    return v;
}

std::uint64_t
BinaryReader::getU64()
{
    std::uint64_t v = 0;
    if (need(sizeof(v))) {
        std::memcpy(&v, buf_.data() + pos_, sizeof(v));
        pos_ += sizeof(v);
    }
    return v;
}

std::int64_t
BinaryReader::getI64()
{
    return static_cast<std::int64_t>(getU64());
}

double
BinaryReader::getDouble()
{
    std::uint64_t bits = getU64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

std::string
BinaryReader::getString()
{
    std::uint64_t n = getU64();
    // A corrupt length can exceed size_t on 32-bit targets or the
    // remaining bytes on any target; clamp before need() so nothing
    // ever allocates from an unvalidated count.
    if (!ok() || n > buf_.size() - pos_) {
        markCorrupt();
        return {};
    }
    std::string s(reinterpret_cast<const char *>(buf_.data() + pos_),
                  static_cast<std::size_t>(n));
    pos_ += static_cast<std::size_t>(n);
    return s;
}

template <typename T>
std::vector<T>
BinaryReader::getVec()
{
    const std::uint64_t n = getU64();
    std::vector<T> v;
    // Validate against remaining bytes before allocating:
    // `n * sizeof(T)` can wrap for a corrupt count and would pass a
    // naive bound check.
    if (!ok() || n > (buf_.size() - pos_) / sizeof(T)) {
        markCorrupt();
        return v;
    }
    const std::size_t bytes = static_cast<std::size_t>(n) * sizeof(T);
    if (bytes != 0) {
        v.resize(static_cast<std::size_t>(n));
        std::memcpy(v.data(), buf_.data() + pos_, bytes);
        pos_ += bytes;
    }
    return v;
}

std::vector<double>
BinaryReader::getDoubleVec()
{
    return getVec<double>();
}

std::vector<std::uint64_t>
BinaryReader::getU64Vec()
{
    return getVec<std::uint64_t>();
}

std::vector<std::uint8_t>
BinaryReader::getU8Vec()
{
    std::uint64_t n = getU64();
    std::vector<std::uint8_t> v;
    if (!ok() || n > buf_.size() - pos_) {
        markCorrupt();
        return v;
    }
    v.assign(buf_.begin() + static_cast<std::ptrdiff_t>(pos_),
             buf_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
    pos_ += static_cast<std::size_t>(n);
    return v;
}

bool
BinaryReader::checkSectionCrc()
{
    if (error_ != ReadError::None)
        return false;
    const std::uint32_t want =
        crc32(buf_.data() + section_start_, pos_ - section_start_);
    const std::uint32_t got = getU32();
    if (error_ != ReadError::None || got != want) {
        markCorrupt();
        return false;
    }
    section_start_ = pos_;
    return true;
}

} // namespace pgss::util
