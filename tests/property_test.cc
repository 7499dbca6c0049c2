/**
 * @file
 * Property-based tests: randomized operation sequences are checked
 * against simple reference models, parameterized over seeds and
 * configurations (TEST_P sweeps).
 *
 *  - ObjectStore vs a byte-map reference (random read/write/truncate/
 *    clone/remove sequences, then a remount check)
 *  - FFS vs a byte-map reference
 *  - DiskModel data integrity under random block traffic
 *  - ExtentAllocator invariants under churn (no overlap, conservation)
 *  - Codec and capability-encoding round trips / tamper detection
 */
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "disk/disk_model.h"
#include "disk/params.h"
#include "disk/striping.h"
#include "nasd/allocator.h"
#include "nasd/capability.h"
#include "nasd/object_store.h"
#include "sim/simulator.h"
#include "util/codec.h"
#include "util/rng.h"
#include "util/units.h"

namespace nasd {
namespace {

using sim::Simulator;
using util::kKB;
using util::kMB;

// ----------------------------------------------------- object store fuzz

/** Byte-level reference model of one object. */
struct RefObject
{
    std::vector<std::uint8_t> data;
};

class StoreFuzz : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(StoreFuzz, MatchesReferenceModel)
{
    Simulator sim;
    disk::DiskModel disk(sim, disk::medallistParams());
    StoreConfig config;
    config.max_inodes = 256;
    config.data_cache_bytes = 2 * kMB; // small: force media traffic
    config.meta_cache_inodes = 8;
    ObjectStore store(sim, disk, config);
    runTask(sim, store.format());
    ASSERT_TRUE(store.createPartition(0, 128 * kMB).ok());

    util::Rng rng(GetParam());
    std::map<ObjectId, RefObject> reference;
    std::vector<ObjectId> live;

    for (int step = 0; step < 120; ++step) {
        const auto action = rng.below(10);
        if (action < 2 || live.empty()) {
            // Create.
            auto oid = runFor(sim, store.createObject(
                                       0, rng.below(64 * kKB), nullptr));
            ASSERT_TRUE(oid.ok());
            reference[oid.value()];
            live.push_back(oid.value());
        } else if (action < 6) {
            // Write a random range of a random object.
            const ObjectId oid = live[rng.below(live.size())];
            const std::uint64_t offset = rng.below(256 * kKB);
            const std::uint64_t len = 1 + rng.below(96 * kKB);
            std::vector<std::uint8_t> data(len);
            for (auto &b : data)
                b = static_cast<std::uint8_t>(rng.next());
            ASSERT_TRUE(
                runFor(sim, store.write(0, oid, offset, data, nullptr))
                    .ok());
            auto &ref = reference[oid].data;
            if (ref.size() < offset + len)
                ref.resize(offset + len, 0);
            std::copy(data.begin(), data.end(),
                      ref.begin() + static_cast<std::ptrdiff_t>(offset));
        } else if (action < 8) {
            // Read a random range and compare.
            const ObjectId oid = live[rng.below(live.size())];
            const auto &ref = reference[oid].data;
            const std::uint64_t offset = rng.below(300 * kKB);
            const std::uint64_t len = 1 + rng.below(128 * kKB);
            std::vector<std::uint8_t> out(len);
            auto n = runFor(sim, store.read(0, oid, offset, out, nullptr));
            ASSERT_TRUE(n.ok());
            const std::uint64_t expect =
                offset >= ref.size()
                    ? 0
                    : std::min<std::uint64_t>(len, ref.size() - offset);
            ASSERT_EQ(n.value(), expect);
            for (std::uint64_t i = 0; i < expect; ++i)
                ASSERT_EQ(out[i], ref[offset + i]) << "step " << step;
        } else if (action < 9) {
            // Truncate.
            const ObjectId oid = live[rng.below(live.size())];
            auto &ref = reference[oid].data;
            const std::uint64_t new_size =
                ref.empty() ? 0 : rng.below(ref.size() + 1);
            SetAttrRequest req;
            req.truncate_size = new_size;
            ASSERT_TRUE(
                runFor(sim, store.setAttributes(0, oid, req, nullptr))
                    .ok());
            ref.resize(new_size);
        } else {
            // Clone, then diverge the clone with a write.
            const ObjectId oid = live[rng.below(live.size())];
            auto clone = runFor(sim, store.cloneVersion(0, oid, nullptr));
            if (clone.ok()) {
                reference[clone.value()] = reference[oid];
                live.push_back(clone.value());
            }
        }
    }

    // Final check: every live object matches its reference fully.
    for (const ObjectId oid : live) {
        const auto &ref = reference[oid].data;
        auto attrs = runFor(sim, store.getAttributes(0, oid, nullptr));
        ASSERT_TRUE(attrs.ok());
        ASSERT_EQ(attrs.value().size, ref.size());
        if (!ref.empty()) {
            std::vector<std::uint8_t> out(ref.size());
            auto n = runFor(sim, store.read(0, oid, 0, out, nullptr));
            ASSERT_TRUE(n.ok());
            ASSERT_EQ(out, ref);
        }
    }

    // Remount from the device and re-verify (persistence property).
    runTask(sim, store.flushAll());
    ObjectStore reborn(sim, disk, config);
    runTask(sim, reborn.mount());
    for (const ObjectId oid : live) {
        const auto &ref = reference[oid].data;
        if (ref.empty())
            continue;
        std::vector<std::uint8_t> out(ref.size());
        auto n = runFor(sim, reborn.read(0, oid, 0, out, nullptr));
        ASSERT_TRUE(n.ok());
        ASSERT_EQ(out, ref);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StoreFuzz,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// ------------------------------------------------------------- disk fuzz

class DiskFuzz
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, int>>
{};

TEST_P(DiskFuzz, DataIntegrityUnderRandomTraffic)
{
    const auto [seed, ndisks] = GetParam();
    Simulator sim;
    std::vector<std::unique_ptr<disk::DiskModel>> disks;
    std::vector<disk::BlockDevice *> members;
    for (int i = 0; i < ndisks; ++i) {
        disks.push_back(std::make_unique<disk::DiskModel>(
            sim, disk::medallistParams()));
        members.push_back(disks.back().get());
    }
    disk::StripingDriver stripe(sim, members, 32 * kKB);
    disk::BlockDevice &dev =
        ndisks == 1 ? static_cast<disk::BlockDevice &>(*disks[0])
                    : static_cast<disk::BlockDevice &>(stripe);

    util::Rng rng(seed);
    constexpr std::uint64_t kRegionBlocks = 4096; // 2 MB working set
    std::vector<std::uint8_t> reference(kRegionBlocks * 512, 0);

    sim::Tick last_time = 0;
    for (int step = 0; step < 80; ++step) {
        const std::uint64_t block = rng.below(kRegionBlocks - 64);
        const auto count = static_cast<std::uint32_t>(1 + rng.below(64));
        if (rng.chance(0.5)) {
            std::vector<std::uint8_t> data(count * 512);
            for (auto &b : data)
                b = static_cast<std::uint8_t>(rng.next());
            runTask(sim, dev.write(block, count, data));
            std::copy(data.begin(), data.end(),
                      reference.begin() +
                          static_cast<std::ptrdiff_t>(block * 512));
        } else {
            std::vector<std::uint8_t> out(count * 512);
            runTask(sim, dev.read(block, count, out));
            ASSERT_EQ(0, std::memcmp(out.data(),
                                     reference.data() + block * 512,
                                     out.size()))
                << "step " << step;
        }
        // Time must advance monotonically and every op must cost > 0.
        ASSERT_GT(sim.now(), last_time);
        last_time = sim.now();
    }
    runTask(sim, dev.flush());
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndWidths, DiskFuzz,
    ::testing::Combine(::testing::Values(7u, 11u, 23u),
                       ::testing::Values(1, 2, 4)));

// -------------------------------------------------------- allocator churn

class AllocatorChurn : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(AllocatorChurn, NoOverlapAndConservation)
{
    ExtentAllocator alloc(2048);
    util::Rng rng(GetParam());
    std::vector<std::vector<Extent>> held;
    std::uint32_t held_units = 0;

    for (int step = 0; step < 400; ++step) {
        if (rng.chance(0.6) || held.empty()) {
            const auto want =
                static_cast<std::uint32_t>(1 + rng.below(64));
            auto got = alloc.allocate(want, static_cast<std::uint32_t>(
                                                rng.below(2048)));
            if (!got.ok()) {
                ASSERT_LT(alloc.freeUnits(), want);
                continue;
            }
            std::uint32_t total = 0;
            for (const auto &e : got.value())
                total += e.count;
            ASSERT_EQ(total, want);
            held.push_back(got.value());
            held_units += want;
        } else {
            const auto victim = rng.below(held.size());
            std::uint32_t freed = 0;
            for (const auto &e : held[victim]) {
                alloc.unref(e);
                freed += e.count;
            }
            held_units -= freed;
            held.erase(held.begin() +
                       static_cast<std::ptrdiff_t>(victim));
        }
        // Conservation: free + held == total.
        ASSERT_EQ(alloc.freeUnits() + held_units, 2048u);
    }

    // No two held extents overlap (refcounts would have caught a
    // double-allocation; verify independently with a bitmap).
    std::vector<bool> seen(2048, false);
    for (const auto &extents : held) {
        for (const auto &e : extents) {
            for (std::uint32_t u = e.start; u < e.start + e.count; ++u) {
                ASSERT_FALSE(seen[u]) << "unit " << u << " double-held";
                seen[u] = true;
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AllocatorChurn,
                         ::testing::Values(3, 9, 27, 81));

// ------------------------------------------------------------ codec props

class CodecRoundTrip : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(CodecRoundTrip, RandomValuesSurvive)
{
    util::Rng rng(GetParam());
    for (int round = 0; round < 50; ++round) {
        const auto a = rng.next();
        const auto b = static_cast<std::uint32_t>(rng.next());
        const auto c = static_cast<std::uint16_t>(rng.next());
        const auto d = static_cast<std::uint8_t>(rng.next());
        std::vector<std::uint8_t> blob(rng.below(64));
        for (auto &x : blob)
            x = static_cast<std::uint8_t>(rng.next());

        std::vector<std::uint8_t> buf;
        util::Encoder enc(buf);
        enc.put<std::uint64_t>(a);
        enc.put<std::uint32_t>(b);
        enc.put<std::uint16_t>(c);
        enc.put<std::uint8_t>(d);
        enc.put<std::uint8_t>(static_cast<std::uint8_t>(blob.size()));
        enc.putBytes(blob);

        util::Decoder dec(buf);
        EXPECT_EQ(dec.get<std::uint64_t>(), a);
        EXPECT_EQ(dec.get<std::uint32_t>(), b);
        EXPECT_EQ(dec.get<std::uint16_t>(), c);
        EXPECT_EQ(dec.get<std::uint8_t>(), d);
        const auto len = dec.get<std::uint8_t>();
        std::vector<std::uint8_t> out(len);
        dec.getBytes(out);
        EXPECT_EQ(out, blob);
        EXPECT_EQ(dec.remaining(), 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecRoundTrip,
                         ::testing::Values(101, 202, 303));

// ------------------------------------------------- capability tampering

class CapabilityTamper : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(CapabilityTamper, AnyFieldChangeBreaksTheMac)
{
    util::Rng rng(GetParam());
    crypto::Key key{};
    for (auto &b : key)
        b = static_cast<std::uint8_t>(rng.next());

    CapabilityPublic pub;
    pub.drive_id = rng.next();
    pub.partition = static_cast<PartitionId>(rng.below(16));
    pub.object_id = rng.next();
    pub.approved_version = static_cast<ObjectVersion>(rng.next());
    pub.rights = static_cast<std::uint8_t>(rng.next());
    pub.region_start = rng.below(1 << 20);
    pub.region_end = pub.region_start + 1 + rng.below(1 << 20);
    pub.expiry_ns = rng.next();
    pub.key_epoch = static_cast<std::uint32_t>(rng.next());

    const auto mac = capabilityMac(key, pub);

    // The MAC covers exactly the fixed-size canonical encoding...
    const CapabilityPublic::Encoded encoded = pub.encode();
    EXPECT_TRUE(crypto::constantTimeEqual(
        mac, crypto::HmacSha256::mac(key, encoded)));

    // ...and flipping any single bit of it changes the MAC.
    for (std::size_t byte = 0; byte < encoded.size(); byte += 7) {
        auto tampered = encoded;
        tampered[byte] ^= 1 << (byte % 8);
        const auto mac2 = crypto::HmacSha256::mac(key, tampered);
        EXPECT_FALSE(crypto::constantTimeEqual(mac, mac2))
            << "byte " << byte;
    }

    // Request digests bind every parameter.
    RequestParams params{OpCode::kReadData, pub.partition, pub.object_id,
                         rng.below(1 << 20), rng.below(1 << 20)};
    const auto digest = requestMac(mac, params, 42);
    RequestParams other = params;
    other.offset ^= 1;
    EXPECT_FALSE(crypto::constantTimeEqual(digest,
                                           requestMac(mac, other, 42)));
    EXPECT_FALSE(
        crypto::constantTimeEqual(digest, requestMac(mac, params, 43)));
}

INSTANTIATE_TEST_SUITE_P(Seeds, CapabilityTamper,
                         ::testing::Values(11, 22, 33, 44));

// ------------------------------------------- disk preset sanity (TEST_P)

class DiskPresetSweep
    : public ::testing::TestWithParam<disk::DiskParams>
{};

TEST_P(DiskPresetSweep, SequentialFasterThanRandom)
{
    Simulator sim;
    disk::DiskModel disk(sim, GetParam());
    std::vector<std::uint8_t> buf(64 * kKB);

    // Sequential pass.
    sim::Tick t0 = sim.now();
    for (int i = 0; i < 8; ++i)
        runTask(sim, disk.read(i * 128ull, 128, buf));
    const sim::Tick sequential = sim.now() - t0;

    // Random pass (same volume of data).
    util::Rng rng(5);
    t0 = sim.now();
    for (int i = 0; i < 8; ++i) {
        runTask(sim, disk.read(rng.below(disk.numBlocks() - 128), 128,
                               buf));
    }
    const sim::Tick random = sim.now() - t0;
    EXPECT_LT(sequential, random);
}

TEST_P(DiskPresetSweep, MediaRateBoundsSequentialThroughput)
{
    Simulator sim;
    disk::DiskModel disk(sim, GetParam());
    std::vector<std::uint8_t> buf(256 * kKB);
    const sim::Tick t0 = sim.now();
    for (int i = 0; i < 16; ++i)
        runTask(sim, disk.read(i * 512ull, 512, buf));
    const double secs = sim::toSeconds(sim.now() - t0);
    const double bps = 16.0 * 256 * kKB / secs;
    // Can't beat the media or the bus.
    EXPECT_LE(bps, GetParam().mediaBytesPerSec() * 1.05);
    EXPECT_LE(bps, GetParam().bus_mb_per_s * 1024 * 1024 * 1.05);
    EXPECT_GT(bps, 0.2 * GetParam().mediaBytesPerSec());
}

INSTANTIATE_TEST_SUITE_P(Presets, DiskPresetSweep,
                         ::testing::Values(disk::medallistParams(),
                                           disk::cheetahParams(),
                                           disk::barracudaParams()),
                         [](const auto &param_info) {
                             std::string name = param_info.param.name;
                             for (auto &c : name) {
                                 if (!isalnum(static_cast<unsigned char>(c)))
                                     c = '_';
                             }
                             return name;
                         });

} // namespace
} // namespace nasd
