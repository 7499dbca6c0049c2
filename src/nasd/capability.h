/**
 * @file
 * Cryptographic capabilities (Section 4.1, [Gobioff97]).
 *
 * A capability has a public portion — what rights are granted on which
 * object, over which byte range, until when, against which logical
 * version — and a private portion, the keyed digest of the public
 * portion under a drive working key. A file manager holding the drive
 * secret mints capabilities; the client proves possession of the
 * private portion by keying a digest of each request's parameters with
 * it. The drive, knowing its own keys, recomputes both digests: no
 * per-capability state is shared between issuer and drive.
 */
#ifndef NASD_NASD_CAPABILITY_H_
#define NASD_NASD_CAPABILITY_H_

#include <array>
#include <cstdint>

#include "crypto/hmac.h"
#include "crypto/keychain.h"
#include "nasd/types.h"
#include "util/trace.h"

namespace nasd {

/** Operation codes carried in requests and bound into request digests. */
enum class OpCode : std::uint8_t {
    kReadData = 1,
    kWriteData = 2,
    kCreateObject = 3,
    kRemoveObject = 4,
    kGetAttr = 5,
    kSetAttr = 6,
    kCloneVersion = 7, ///< construct a copy-on-write object version
    kCreatePartition = 8,
    kResizePartition = 9,
    kRemovePartition = 10,
    kSetKey = 11,
    kListObjects = 12,
    kFlush = 13,
    kProbe = 14, ///< liveness + partition free-space query
};

/** The public portion of a capability. */
struct CapabilityPublic
{
    DriveId drive_id = 0;
    PartitionId partition = 0;
    ObjectId object_id = 0;
    ObjectVersion approved_version = 1;
    std::uint8_t rights = 0;           ///< Rights bitmask
    std::uint64_t region_start = 0;    ///< accessible byte range
    std::uint64_t region_end = ~0ull;  ///< exclusive
    std::uint64_t expiry_ns = ~0ull;   ///< simulated expiration time
    std::uint32_t key_epoch = 0;
    crypto::WorkingKeyKind key_kind = crypto::WorkingKeyKind::kGold;

    /// Size of the canonical encoding: every field, little-endian.
    static constexpr std::size_t kEncodedBytes = 52;
    using Encoded = std::array<std::uint8_t, kEncodedBytes>;

    /** Canonical byte encoding, the input to the capability MAC. */
    Encoded encode() const;
};

/** A full capability: public fields plus the unforgeable private key. */
struct Capability
{
    CapabilityPublic pub;
    crypto::Digest private_key{};
};

/** The security fields a client attaches to each request (Figure 5). */
struct RequestCredential
{
    CapabilityPublic pub;       ///< sent in the clear
    std::uint64_t nonce = 0;    ///< freshness; must increase per key
    crypto::Digest request_digest{}; ///< MAC(private, op params + nonce)
};

/** Fixed-layout request parameters bound into the request digest.
 *
 *  The trace context is a transport-level annotation, like the packet
 *  headers the RPC layer charges for: requestMac() binds exactly the
 *  five op fields plus the nonce, so the trace ids are NOT covered by
 *  the digest and the drive never makes a security decision on them. */
struct RequestParams
{
    OpCode op;
    PartitionId partition = 0;
    ObjectId object_id = 0;
    std::uint64_t offset = 0;
    std::uint64_t length = 0;
    util::TraceContext trace{};
};

/** Compute the private portion for @p pub under @p working_key. */
[[nodiscard]] crypto::Digest capabilityMac(const crypto::Key &working_key,
                             const CapabilityPublic &pub);

/** Compute the per-request digest proving possession of @p private_key. */
[[nodiscard]] crypto::Digest requestMac(const crypto::Digest &private_key,
                          const RequestParams &params, std::uint64_t nonce);

/** requestMac() from a context already keyed with the private portion
 *  (copied, so one keyed context serves every request). */
[[nodiscard]] crypto::Digest requestMac(const crypto::HmacSha256 &keyed,
                          const RequestParams &params, std::uint64_t nonce);

/**
 * Mints capabilities on behalf of a file manager / storage manager.
 * Holds the key chain rooted at the drive master secret — exactly the
 * state the drive itself derives from, so minted capabilities verify
 * without any communication.
 */
class CapabilityIssuer
{
  public:
    CapabilityIssuer(const crypto::Key &master, DriveId drive_id)
        : chain_(master), drive_id_(drive_id)
    {}

    DriveId driveId() const { return drive_id_; }

    /** Mint a capability; fills in drive id and MACs the public part. */
    [[nodiscard]] Capability mint(CapabilityPublic pub) const;

  private:
    crypto::KeyChain chain_;
    DriveId drive_id_;
};

/**
 * Client-side credential factory: wraps a capability and produces
 * request credentials with fresh, monotonically increasing nonces.
 *
 * Nonces come from a process-wide counter so that two factories built
 * from the same capability (e.g. a re-fetched capability for the same
 * object) never reuse a nonce and trip the drive's replay window.
 *
 * The factory keeps an HMAC context keyed with the private portion, so
 * each request digest costs two SHA-256 compressions, not four.
 */
class CredentialFactory
{
  public:
    explicit CredentialFactory(Capability cap)
        : cap_(std::move(cap)), request_key_(keyFor(cap_))
    {}

    const Capability &capability() const { return cap_; }

    /**
     * Swap in a freshly-minted capability (after expiry or revocation)
     * without destroying the factory: in-flight coroutines hold
     * references to this object, so refresh must happen in place.
     */
    void
    rebind(Capability cap)
    {
        cap_ = std::move(cap);
        request_key_ = keyFor(cap_);
    }

    /** Build the security header for one request. */
    [[nodiscard]] RequestCredential forRequest(const RequestParams &params);

  private:
    static crypto::HmacSha256
    keyFor(const Capability &cap)
    {
        return crypto::HmacSha256(crypto::digestToKey(cap.private_key));
    }

    Capability cap_;
    crypto::HmacSha256 request_key_; ///< keyed with cap_.private_key
};

} // namespace nasd

#endif // NASD_NASD_CAPABILITY_H_
