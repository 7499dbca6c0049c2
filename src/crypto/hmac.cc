#include "crypto/hmac.h"

#include <algorithm>

namespace nasd::crypto {

namespace {

constexpr std::uint8_t kIpad = 0x36;
constexpr std::uint8_t kOpad = 0x5c;

} // namespace

HmacSha256::HmacSha256(const Key &key)
{
    // Keys are exactly one SHA-256 output (32 bytes), which is below the
    // 64-byte block size, so no pre-hashing of the key is needed.
    std::array<std::uint8_t, 64> block{};
    std::copy(key.begin(), key.end(), block.begin());
    for (auto &b : block)
        b ^= kIpad;
    inner_.update(block);
    for (auto &b : block)
        b ^= kIpad ^ kOpad;
    outer_.update(block);
}

void
HmacSha256::update(std::span<const std::uint8_t> data)
{
    inner_.update(data);
}

Digest
HmacSha256::finish()
{
    outer_.update(inner_.finish());
    return outer_.finish();
}

Digest
HmacSha256::mac(const Key &key, std::span<const std::uint8_t> data)
{
    HmacSha256 ctx(key);
    ctx.update(data);
    return ctx.finish();
}

Key
digestToKey(const Digest &d)
{
    Key k;
    std::copy(d.begin(), d.end(), k.begin());
    return k;
}

} // namespace nasd::crypto
