/**
 * @file
 * HMAC-SHA256 keyed message digest (RFC 2104 / [Bellare96]).
 *
 * This is the "keyed message digest" the NASD paper uses to make
 * capabilities unforgeable: the private portion of a capability is
 * HMAC(drive_key, public portion), and each request carries
 * HMAC(private portion, request parameters + nonce).
 */
#ifndef NASD_CRYPTO_HMAC_H_
#define NASD_CRYPTO_HMAC_H_

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "crypto/sha256.h"

namespace nasd::crypto {

/** A 256-bit symmetric key. */
using Key = std::array<std::uint8_t, 32>;

/**
 * Incremental HMAC-SHA256 context.
 *
 * The constructor absorbs key ^ ipad and key ^ opad into two SHA-256
 * states (the precomputed intermediate values of RFC 2104 §4) and
 * keeps those instead of the key. A keyed context is therefore cheap
 * to copy, and each copy MACs one message: over a short message that
 * costs two compressions instead of the four a fresh context pays.
 */
class HmacSha256
{
  public:
    explicit HmacSha256(const Key &key);

    /** Absorb message bytes. */
    void update(std::span<const std::uint8_t> data);

    /** Absorb one little-endian integral value (for fixed-layout
     *  request fields). */
    template <typename T>
    void
    updateValue(T value)
    {
        std::array<std::uint8_t, sizeof(T)> bytes;
        for (std::size_t i = 0; i < sizeof(T); ++i)
            bytes[i] = static_cast<std::uint8_t>(value >> (i * 8));
        update(bytes);
    }

    /** Finish and produce the MAC. This consumes the context; to MAC
     *  several messages under one key, finish a copy per message. */
    Digest finish();

    /** One-shot MAC of a single buffer. */
    static Digest mac(const Key &key, std::span<const std::uint8_t> data);

  private:
    Sha256 inner_; ///< key ^ ipad absorbed, then the message
    Sha256 outer_; ///< key ^ opad absorbed
};

/** Interpret a digest as a key (for key derivation chains). */
Key digestToKey(const Digest &d);

} // namespace nasd::crypto

#endif // NASD_CRYPTO_HMAC_H_
