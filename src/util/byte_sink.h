/**
 * @file
 * Zero-copy delivery of a byte range.
 *
 * A reader that holds bytes in pieces (a sparse image's chunks, a
 * striped device's units, an object's extents) hands each contiguous
 * piece to a ByteSink where it lies, in order, instead of copying the
 * range into a buffer. A sink that wants a buffer copies; one that can
 * work on the bytes where they are (a scan kernel) does not.
 */
#ifndef NASD_UTIL_BYTE_SINK_H_
#define NASD_UTIL_BYTE_SINK_H_

#include <algorithm>
#include <array>
#include <concepts>
#include <cstdint>
#include <span>
#include <type_traits>

namespace nasd::util {

/**
 * A non-owning reference to a callable that takes the pieces of a
 * byte range: in offset order, each byte once, no piece empty. A piece
 * views the holder's memory and is valid only during the call. Binds
 * only a named callable, which must outlive every call through the
 * sink (including across the co_awaits of a coroutine that holds it).
 */
class ByteSink
{
  public:
    template <typename F>
        requires(!std::same_as<std::remove_cv_t<F>, ByteSink> &&
                 std::invocable<F &, std::span<const std::uint8_t>>)
    ByteSink(F &fn) // NOLINT(google-explicit-constructor): converting
        : fn_(const_cast<void *>(static_cast<const void *>(&fn))),
          call_([](void *f, std::span<const std::uint8_t> piece) {
              (*static_cast<F *>(f))(piece);
          })
    {}

    void
    operator()(std::span<const std::uint8_t> piece) const
    {
        call_(fn_, piece);
    }

  private:
    void *fn_;
    void (*call_)(void *, std::span<const std::uint8_t>);
};

/** Hand @p length zero bytes to @p sink, in pieces of a shared zero
 *  page: how a hole in an image is delivered. */
inline void
sinkZeros(std::uint64_t length, ByteSink sink)
{
    static constexpr std::array<std::uint8_t, 64 * 1024> kZeros{};
    while (length > 0) {
        const auto take = static_cast<std::size_t>(
            std::min<std::uint64_t>(length, kZeros.size()));
        sink(std::span(kZeros).first(take));
        length -= take;
    }
}

/** A sink that copies each piece into @p out in order; the pieces must
 *  total at most out.size() bytes. */
class CopySink
{
  public:
    explicit CopySink(std::span<std::uint8_t> out) : out_(out) {}

    void
    operator()(std::span<const std::uint8_t> piece)
    {
        std::copy(piece.begin(), piece.end(), out_.begin() + done_);
        done_ += piece.size();
    }

  private:
    std::span<std::uint8_t> out_;
    std::size_t done_ = 0;
};

} // namespace nasd::util

#endif // NASD_UTIL_BYTE_SINK_H_
