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
 *  - Cheops stripe layout vs a byte-by-byte model of every row
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "cheops/layout.h"
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

// --------------------------------------------------------- cheops layout

/**
 * Where each logical byte of a Cheops object lives, built row by row
 * from the layout's definition rather than by its arithmetic: row r
 * fills the components in order (kNone), or puts its parity on
 * component w - r mod (w + 1) and its data units on the components
 * after it, wrapping (kParity). Every unit of row r sits at component
 * offset r * su.
 */
struct LayoutModel
{
    struct Place
    {
        std::uint32_t comp = 0;
        std::uint64_t offset = 0;
    };

    LayoutModel(const cheops::layout::Geometry &geo, std::uint64_t rows)
        : g(geo)
    {
        const std::uint32_t w = g.width();
        for (std::uint64_t r = 0; r < rows; ++r) {
            std::uint32_t next = 0; // kNone: component 0 first
            if (g.parity) {
                std::uint32_t p = w;
                for (std::uint64_t k = 0; k < r % (w + 1); ++k)
                    p = p == 0 ? w : p - 1;
                parity.push_back(p);
                next = p == w ? 0 : p + 1;
            }
            for (std::uint32_t d = 0; d < w; ++d) {
                for (std::uint64_t x = 0; x < g.stripe_unit; ++x)
                    bytes.push_back({next, r * g.stripe_unit + x});
                next = next + 1 == g.components ? 0 : next + 1;
            }
        }
    }

    cheops::layout::Geometry g;
    std::vector<Place> bytes;          ///< by logical offset
    std::vector<std::uint32_t> parity; ///< by row (kParity)
};

class LayoutFuzz : public ::testing::TestWithParam<std::uint64_t>
{
  protected:
    /** A random geometry: stripe unit 1-16 bytes, width 1-8. */
    cheops::layout::Geometry
    randomGeometry(bool parity)
    {
        const auto w = static_cast<std::uint32_t>(1 + rng.below(8));
        return {1 + rng.below(16), w + (parity ? 1u : 0u), parity};
    }

    util::Rng rng{GetParam()};
};

TEST_P(LayoutFuzz, ParityAndDataComponentsMatchTheModel)
{
    for (std::uint32_t w = 1; w <= 8; ++w) {
        const cheops::layout::Geometry g{1, w + 1, true};
        const LayoutModel model(g, 3 * (w + 1));
        for (std::uint64_t r = 0; r < model.parity.size(); ++r) {
            EXPECT_EQ(cheops::layout::parityComponent(r, w), model.parity[r]);
            for (std::uint32_t d = 0; d < w; ++d) {
                EXPECT_EQ(cheops::layout::dataComponent(r, d, w),
                          model.bytes[r * w + d].comp);
            }
        }
    }
}

TEST_P(LayoutFuzz, ReadRunsCoverEveryByteWhereTheModelPutsIt)
{
    for (int trial = 0; trial < 200; ++trial) {
        const auto g = randomGeometry(trial % 2 == 1);
        const LayoutModel model(g, 12);
        const std::uint64_t total = model.bytes.size();
        const std::uint64_t offset = rng.below(total);
        const std::uint64_t length = rng.below(total - offset + 1);
        std::vector<int> seen(length, 0);
        for (const auto &run : cheops::layout::mapRange(g, offset, length)) {
            std::uint64_t at = run.component_offset;
            for (const auto &[host, n] : run.pieces) {
                for (std::uint64_t i = 0; i < n; ++i, ++at) {
                    ASSERT_LT(host + i, length);
                    ++seen[host + i];
                    const auto &place = model.bytes[offset + host + i];
                    EXPECT_EQ(run.component, place.comp);
                    EXPECT_EQ(at, place.offset);
                }
            }
            EXPECT_EQ(at, run.component_offset + run.length);
        }
        EXPECT_TRUE(std::ranges::all_of(seen, [](int n) { return n == 1; }))
            << "a byte of [" << offset << ", +" << length
            << ") is missing or mapped twice";
    }
}

TEST_P(LayoutFuzz, RowPlanMatchesTheWrittenBytes)
{
    for (int trial = 0; trial < 200; ++trial) {
        const auto g = randomGeometry(true);
        const std::uint32_t w = g.width();
        const std::uint64_t su = g.stripe_unit;
        const LayoutModel model(g, 6);
        const std::uint64_t total = model.bytes.size();
        const std::uint64_t offset = rng.below(total);
        const std::uint64_t length = 1 + rng.below(total - offset);
        for (std::uint64_t row = 0; row < 6; ++row) {
            const auto plan = cheops::layout::planRow(g, row, offset, length);
            // The model's written bytes of the row, per data unit.
            std::vector<std::vector<bool>> written(w,
                                                   std::vector<bool>(su));
            for (std::uint64_t l = offset; l < offset + length; ++l) {
                if (l / g.rowBytes() == row)
                    written[l % g.rowBytes() / su][l % su] = true;
            }
            std::size_t next = 0;
            std::uint64_t plo = su, phi = 0;
            for (std::uint32_t d = 0; d < w; ++d) {
                const auto first = std::ranges::find(written[d], true);
                if (first == written[d].end())
                    continue;
                const auto a = static_cast<std::uint64_t>(
                    first - written[d].begin());
                const auto b =
                    static_cast<std::uint64_t>(std::ranges::count(
                        written[d], true)) +
                    a;
                ASSERT_LT(next, plan.units.size());
                const auto &uw = plan.units[next++];
                EXPECT_EQ(uw.comp, model.bytes[row * w * su + d * su].comp);
                EXPECT_EQ(uw.a, a);
                EXPECT_EQ(uw.b, b);
                EXPECT_EQ(uw.host, row * g.rowBytes() + d * su + a - offset);
                plo = std::min(plo, a);
                phi = std::max(phi, b);
            }
            ASSERT_EQ(next, plan.units.size());
            EXPECT_EQ(plan.parity, model.parity[row]);
            if (plan.units.empty())
                continue;
            EXPECT_EQ(plan.plo, plo);
            EXPECT_EQ(plan.phi, phi);
            // The read phase may be skipped exactly when every data
            // unit is written over the whole parity window.
            bool covers = true;
            for (std::uint32_t d = 0; d < w; ++d) {
                for (std::uint64_t x = plo; x < phi; ++x)
                    covers = covers && written[d][x];
            }
            EXPECT_EQ(plan.skip_read, covers);
            // Whichever component is dead, its slot is what a degraded
            // write changes of its unit (written through to a spare):
            // its written range, or the parity window.
            for (std::uint32_t dead = 0; dead < g.components; ++dead) {
                std::uint64_t ta = su, tb = 0;
                for (std::uint32_t d = 0; d < w; ++d) {
                    for (std::uint64_t x = 0; x < su; ++x) {
                        const bool changed =
                            dead == plan.parity
                                ? x >= plo && x < phi
                                : written[d][x] &&
                                      model.bytes[row * w * su + d * su]
                                              .comp == dead;
                        if (changed) {
                            ta = std::min(ta, x);
                            tb = std::max(tb, x + 1);
                        }
                    }
                }
                std::pair<std::uint64_t, std::uint64_t> slot{su, 0};
                for (std::size_t i = 0; i <= plan.units.size(); ++i) {
                    if (plan.slot(i) == dead)
                        slot = plan.range(i);
                }
                EXPECT_EQ(slot, (std::pair{ta, tb})) << "dead " << dead;
            }
        }
    }
}

TEST_P(LayoutFuzz, UnitChunksRebuildAnyDeadComponentFromTheRest)
{
    // Parity rows of random bytes; every component range, cut into
    // unit chunks, is the XOR of the same chunks of all the others.
    for (int trial = 0; trial < 100; ++trial) {
        const auto g = randomGeometry(true);
        const std::uint64_t rows = 5;
        const LayoutModel model(g, rows);
        std::vector<std::vector<std::uint8_t>> comp(
            g.components, std::vector<std::uint8_t>(rows * g.stripe_unit));
        for (const auto &place : model.bytes) {
            const auto v = static_cast<std::uint8_t>(rng.next());
            comp[place.comp][place.offset] = v;
            comp[model.parity[place.offset / g.stripe_unit]][place.offset] ^=
                v;
        }
        const std::uint64_t offset = rng.below(rows * g.stripe_unit);
        const std::uint64_t length =
            rng.below(rows * g.stripe_unit - offset + 1);
        std::uint64_t pos = offset;
        for (const auto &[o, n] :
             cheops::layout::unitChunks(g.stripe_unit, offset, length)) {
            EXPECT_EQ(o, pos);
            EXPECT_GT(n, 0u);
            EXPECT_EQ(o / g.stripe_unit, (o + n - 1) / g.stripe_unit);
            EXPECT_TRUE((o + n) % g.stripe_unit == 0 ||
                        o + n == offset + length);
            pos += n;
            for (std::uint32_t dead = 0; dead < g.components; ++dead) {
                std::vector<std::uint8_t> fold(n, 0);
                for (std::uint32_t c = 0; c < g.components; ++c) {
                    if (c != dead)
                        cheops::layout::xorInto(
                            fold, std::span<const std::uint8_t>(comp[c])
                                      .subspan(o, n));
                }
                EXPECT_TRUE(std::equal(fold.begin(), fold.end(),
                                       comp[dead].begin() +
                                           static_cast<std::ptrdiff_t>(o)))
                    << "dead " << dead << " at " << o;
            }
        }
        EXPECT_EQ(pos, offset + length);
    }
}

TEST_P(LayoutFuzz, SizeReverseMapRecoversEveryPrefixWrite)
{
    for (int trial = 0; trial < 100; ++trial) {
        const auto g = randomGeometry(trial % 2 == 1);
        const LayoutModel model(g, 6);
        const std::uint64_t size = rng.below(model.bytes.size() + 1);
        // Component extents after writing [0, size): data bytes land
        // where the model puts them; a row's parity is as long as its
        // longest data unit.
        std::vector<std::uint64_t> extent(g.components, 0);
        for (std::uint64_t l = 0; l < size; ++l) {
            const auto &place = model.bytes[l];
            extent[place.comp] = std::max(extent[place.comp], place.offset + 1);
            if (g.parity) {
                auto &p = extent[model.parity[place.offset / g.stripe_unit]];
                p = std::max(p, place.offset + 1);
            }
        }
        std::uint64_t logical = 0;
        for (std::uint32_t c = 0; c < g.components; ++c) {
            const auto end = cheops::layout::logicalEnd(g, c, extent[c]);
            EXPECT_LE(end, size) << "component " << c;
            logical = std::max(logical, end);
        }
        EXPECT_EQ(logical, size);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LayoutFuzz, ::testing::Values(5, 17, 29));

} // namespace
} // namespace nasd
