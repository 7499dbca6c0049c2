/**
 * @file
 * Unit tests for SHA-256 (FIPS vectors), HMAC-SHA256 (RFC 4231
 * vectors), and the NASD key hierarchy.
 */
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "crypto/hmac.h"
#include "crypto/keychain.h"
#include "crypto/sha256.h"

namespace nasd::crypto {
namespace {

std::vector<std::uint8_t>
bytes(const std::string &s)
{
    return {s.begin(), s.end()};
}

TEST(Sha256, EmptyString)
{
    EXPECT_EQ(toHex(Sha256::hash({})),
              "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b"
              "7852b855");
}

TEST(Sha256, Abc)
{
    const auto data = bytes("abc");
    EXPECT_EQ(toHex(Sha256::hash(data)),
              "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61"
              "f20015ad");
}

TEST(Sha256, TwoBlockMessage)
{
    const auto data =
        bytes("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
    EXPECT_EQ(toHex(Sha256::hash(data)),
              "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd4"
              "19db06c1");
}

TEST(Sha256, MillionAs)
{
    Sha256 ctx;
    const std::string chunk(1000, 'a');
    for (int i = 0; i < 1000; ++i)
        ctx.update(chunk);
    EXPECT_EQ(toHex(ctx.finish()),
              "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39cc"
              "c7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot)
{
    const auto data = bytes("The quick brown fox jumps over the lazy dog");
    Sha256 ctx;
    // Feed in awkward pieces to exercise buffering.
    for (std::size_t i = 0; i < data.size(); i += 7) {
        const std::size_t n = std::min<std::size_t>(7, data.size() - i);
        ctx.update(std::span<const std::uint8_t>(data.data() + i, n));
    }
    EXPECT_EQ(toHex(ctx.finish()), toHex(Sha256::hash(data)));
}

TEST(Sha256, ExactBlockBoundary)
{
    const std::string s(64, 'x');
    const auto data = bytes(s);
    Sha256 a;
    a.update(data);
    Sha256 b;
    b.update(std::span<const std::uint8_t>(data.data(), 64));
    EXPECT_EQ(toHex(a.finish()), toHex(b.finish()));
}

TEST(Sha256, ResetReuses)
{
    Sha256 ctx;
    ctx.update(bytes("garbage"));
    (void)ctx.finish();
    ctx.reset();
    ctx.update(bytes("abc"));
    EXPECT_EQ(toHex(ctx.finish()),
              "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61"
              "f20015ad");
}

Key
keyFromBytes(std::uint8_t fill, std::size_t count)
{
    Key k{};
    for (std::size_t i = 0; i < count && i < k.size(); ++i)
        k[i] = fill;
    return k;
}

TEST(Hmac, Rfc4231Case1)
{
    // Key = 20 bytes of 0x0b, data = "Hi There". Our Key type is 32
    // bytes zero-padded, which per RFC 2104 zero-pads keys to the block
    // size anyway, so the MAC matches the RFC vector.
    const Key key = keyFromBytes(0x0b, 20);
    const auto data = bytes("Hi There");
    EXPECT_EQ(toHex(HmacSha256::mac(key, data)),
              "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c"
              "2e32cff7");
}

TEST(Hmac, Rfc4231Case3)
{
    // Key = 20 bytes of 0xaa, data = 50 bytes of 0xdd.
    const Key key = keyFromBytes(0xaa, 20);
    const std::vector<std::uint8_t> data(50, 0xdd);
    EXPECT_EQ(toHex(HmacSha256::mac(key, data)),
              "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514"
              "ced565fe");
}

TEST(Hmac, KeyedContextReusedReproducesRfc4231)
{
    // One keyed context, copied per message, twice in a row: the
    // precomputed pad states must not carry anything between MACs.
    const HmacSha256 case1(keyFromBytes(0x0b, 20));
    const HmacSha256 case3(keyFromBytes(0xaa, 20));
    const auto hi_there = bytes("Hi There");
    const std::vector<std::uint8_t> dd(50, 0xdd);
    for (int round = 0; round < 2; ++round) {
        HmacSha256 a = case1;
        a.update(hi_there);
        EXPECT_EQ(toHex(a.finish()),
                  "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c"
                  "2e32cff7")
            << "round " << round;
        HmacSha256 b = case3;
        b.update(dd);
        EXPECT_EQ(toHex(b.finish()),
                  "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514"
                  "ced565fe")
            << "round " << round;
    }
}

TEST(Hmac, KeyMatters)
{
    const auto data = bytes("payload");
    const auto mac1 = HmacSha256::mac(keyFromBytes(1, 32), data);
    const auto mac2 = HmacSha256::mac(keyFromBytes(2, 32), data);
    EXPECT_NE(toHex(mac1), toHex(mac2));
}

TEST(Hmac, DataMatters)
{
    const Key key = keyFromBytes(5, 32);
    const auto mac1 = HmacSha256::mac(key, bytes("a"));
    const auto mac2 = HmacSha256::mac(key, bytes("b"));
    EXPECT_NE(toHex(mac1), toHex(mac2));
}

TEST(Hmac, UpdateValueLittleEndian)
{
    const Key key = keyFromBytes(9, 32);
    HmacSha256 a(key);
    a.updateValue<std::uint32_t>(0x04030201);
    HmacSha256 b(key);
    const std::uint8_t raw[] = {1, 2, 3, 4};
    b.update(raw);
    EXPECT_EQ(toHex(a.finish()), toHex(b.finish()));
}

TEST(ConstantTime, EqualAndUnequal)
{
    Digest a{};
    Digest b{};
    EXPECT_TRUE(constantTimeEqual(a, b));
    b[31] = 1;
    EXPECT_FALSE(constantTimeEqual(a, b));
}

TEST(KeyChain, DeterministicDerivation)
{
    const Key master = keyFromBytes(0x42, 32);
    KeyChain kc1(master);
    KeyChain kc2(master);
    EXPECT_EQ(kc1.driveKey(7), kc2.driveKey(7));
    EXPECT_EQ(kc1.workingKey(7, 3, WorkingKeyKind::kBlack, 0),
              kc2.workingKey(7, 3, WorkingKeyKind::kBlack, 0));
}

TEST(KeyChain, LevelsAreDistinct)
{
    KeyChain kc(keyFromBytes(0x42, 32));
    EXPECT_NE(kc.driveKey(1), kc.driveKey(2));
    EXPECT_NE(kc.partitionKey(1, 1), kc.partitionKey(1, 2));
    EXPECT_NE(kc.partitionKey(1, 1), kc.driveKey(1));
    EXPECT_NE(kc.workingKey(1, 1, WorkingKeyKind::kGold, 0),
              kc.workingKey(1, 1, WorkingKeyKind::kBlack, 0));
}

TEST(KeyChain, EpochRotationChangesWorkingKey)
{
    KeyChain kc(keyFromBytes(0x42, 32));
    EXPECT_NE(kc.workingKey(1, 1, WorkingKeyKind::kGold, 0),
              kc.workingKey(1, 1, WorkingKeyKind::kGold, 1));
}

TEST(KeyChain, MemoizedWorkingKeyMatchesFreshDerivation)
{
    const Key master = keyFromBytes(0x42, 32);
    KeyChain memo(master);
    // Warm the memo across drives, partitions, kinds and epochs, then
    // ask again: every answer must equal a fresh chain's derivation.
    for (int pass = 0; pass < 2; ++pass) {
        for (std::uint64_t drive = 1; drive <= 2; ++drive)
            for (std::uint16_t part = 0; part < 3; ++part)
                for (auto kind : {WorkingKeyKind::kGold,
                                  WorkingKeyKind::kBlack})
                    for (std::uint32_t epoch = 0; epoch < 3; ++epoch)
                        EXPECT_EQ(memo.workingKey(drive, part, kind, epoch),
                                  KeyChain(master).workingKey(drive, part,
                                                              kind, epoch));
    }
    // Past the memo's capacity (it empties and refills) answers stay
    // exact.
    for (std::uint32_t epoch = 0; epoch < 600; ++epoch)
        (void)memo.workingKey(9, 1, WorkingKeyKind::kBlack, epoch);
    EXPECT_EQ(memo.workingKey(1, 2, WorkingKeyKind::kGold, 1),
              KeyChain(master).workingKey(1, 2, WorkingKeyKind::kGold, 1));
}

TEST(KeyChain, DifferentMastersDisjoint)
{
    KeyChain a(keyFromBytes(1, 32));
    KeyChain b(keyFromBytes(2, 32));
    EXPECT_NE(a.driveKey(1), b.driveKey(1));
}

} // namespace
} // namespace nasd::crypto
