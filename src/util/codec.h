/**
 * @file
 * Little-endian byte encoding/decoding for fixed on-disk and on-wire
 * layouts (superblocks, inodes, capability fields).
 */
#ifndef NASD_UTIL_CODEC_H_
#define NASD_UTIL_CODEC_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <type_traits>
#include <vector>

#include "util/logging.h"

namespace nasd::util {

/** Store @p value little-endian at @p dst. On little-endian hosts that
 *  is one unaligned store; the byte loop does not compile to one. */
template <typename T>
void
storeLe(std::uint8_t *dst, T value)
{
    static_assert(std::is_integral_v<T>);
    if constexpr (std::endian::native == std::endian::little) {
        std::memcpy(dst, &value, sizeof(T));
    } else {
        for (std::size_t i = 0; i < sizeof(T); ++i)
            dst[i] = static_cast<std::uint8_t>(
                static_cast<std::uint64_t>(value) >> (i * 8));
    }
}

/** Load a little-endian T from @p src; one unaligned load on
 *  little-endian hosts. */
template <typename T>
T
loadLe(const std::uint8_t *src)
{
    static_assert(std::is_integral_v<T>);
    if constexpr (std::endian::native == std::endian::little) {
        T value;
        std::memcpy(&value, src, sizeof(T));
        return value;
    } else {
        std::uint64_t value = 0;
        for (std::size_t i = 0; i < sizeof(T); ++i)
            value |= static_cast<std::uint64_t>(src[i]) << (i * 8);
        return static_cast<T>(value);
    }
}

/** Appends little-endian values to a byte buffer. */
class Encoder
{
  public:
    explicit Encoder(std::vector<std::uint8_t> &out) : out_(out) {}

    template <typename T>
    void
    put(T value)
    {
        static_assert(std::is_integral_v<T>);
        for (std::size_t i = 0; i < sizeof(T); ++i)
            out_.push_back(static_cast<std::uint8_t>(
                static_cast<std::uint64_t>(value) >> (i * 8)));
    }

    void
    putBytes(std::span<const std::uint8_t> bytes)
    {
        out_.insert(out_.end(), bytes.begin(), bytes.end());
    }

    /** Zero-pad the buffer to exactly @p size bytes. */
    void
    padTo(std::size_t size)
    {
        NASD_ASSERT(out_.size() <= size, "encoded data exceeds frame");
        out_.resize(size, 0);
    }

    std::size_t size() const { return out_.size(); }

  private:
    std::vector<std::uint8_t> &out_;
};

/** Reads little-endian values from a byte buffer. */
class Decoder
{
  public:
    explicit Decoder(std::span<const std::uint8_t> in) : in_(in) {}

    template <typename T>
    T
    get()
    {
        static_assert(std::is_integral_v<T>);
        NASD_ASSERT(pos_ + sizeof(T) <= in_.size(), "decode past end");
        std::uint64_t v = 0;
        for (std::size_t i = 0; i < sizeof(T); ++i)
            v |= static_cast<std::uint64_t>(in_[pos_ + i]) << (i * 8);
        pos_ += sizeof(T);
        return static_cast<T>(v);
    }

    void
    getBytes(std::span<std::uint8_t> out)
    {
        NASD_ASSERT(pos_ + out.size() <= in_.size(), "decode past end");
        // memcpy's pointer arguments must be non-null even for n == 0,
        // and an empty span (or empty source buffer) has a null data().
        if (!out.empty())
            std::memcpy(out.data(), in_.data() + pos_, out.size());
        pos_ += out.size();
    }

    void
    skip(std::size_t n)
    {
        NASD_ASSERT(pos_ + n <= in_.size(), "skip past end");
        pos_ += n;
    }

    std::size_t position() const { return pos_; }
    std::size_t remaining() const { return in_.size() - pos_; }

  private:
    std::span<const std::uint8_t> in_;
    std::size_t pos_ = 0;
};

} // namespace nasd::util

#endif // NASD_UTIL_CODEC_H_
