#include "nasd/capability.h"

#include "util/logging.h"

namespace nasd {

CapabilityPublic::Encoded
CapabilityPublic::encode() const
{
    Encoded out;
    std::size_t pos = 0;
    const auto put = [&out, &pos](std::uint64_t value, std::size_t bytes) {
        for (std::size_t i = 0; i < bytes; ++i)
            out[pos++] = static_cast<std::uint8_t>(value >> (i * 8));
    };
    put(drive_id, sizeof(std::uint64_t));
    put(partition, sizeof(std::uint16_t));
    put(object_id, sizeof(std::uint64_t));
    put(approved_version, sizeof(std::uint32_t));
    put(rights, sizeof(std::uint8_t));
    put(region_start, sizeof(std::uint64_t));
    put(region_end, sizeof(std::uint64_t));
    put(expiry_ns, sizeof(std::uint64_t));
    put(key_epoch, sizeof(std::uint32_t));
    put(static_cast<std::uint8_t>(key_kind), sizeof(std::uint8_t));
    NASD_ASSERT(pos == kEncodedBytes);
    return out;
}

crypto::Digest
capabilityMac(const crypto::Key &working_key, const CapabilityPublic &pub)
{
    return crypto::HmacSha256::mac(working_key, pub.encode());
}

crypto::Digest
requestMac(const crypto::Digest &private_key, const RequestParams &params,
           std::uint64_t nonce)
{
    return requestMac(crypto::HmacSha256(crypto::digestToKey(private_key)),
                      params, nonce);
}

crypto::Digest
requestMac(const crypto::HmacSha256 &keyed, const RequestParams &params,
           std::uint64_t nonce)
{
    crypto::HmacSha256 ctx = keyed;
    ctx.updateValue<std::uint8_t>(static_cast<std::uint8_t>(params.op));
    ctx.updateValue<std::uint16_t>(params.partition);
    ctx.updateValue<std::uint64_t>(params.object_id);
    ctx.updateValue<std::uint64_t>(params.offset);
    ctx.updateValue<std::uint64_t>(params.length);
    ctx.updateValue<std::uint64_t>(nonce);
    return ctx.finish();
}

Capability
CapabilityIssuer::mint(CapabilityPublic pub) const
{
    pub.drive_id = drive_id_;
    const crypto::Key working = chain_.workingKey(
        drive_id_, pub.partition, pub.key_kind, pub.key_epoch);
    Capability cap;
    cap.pub = pub;
    cap.private_key = capabilityMac(working, pub);
    return cap;
}

RequestCredential
CredentialFactory::forRequest(const RequestParams &params)
{
    // Process-wide nonce source: strictly increasing across every
    // factory, so no capability ever sees a repeated nonce.
    static std::uint64_t g_nonce = 0;

    RequestCredential cred;
    cred.pub = cap_.pub;
    cred.nonce = ++g_nonce;
    cred.request_digest = requestMac(request_key_, params, cred.nonce);
    return cred;
}

} // namespace nasd
