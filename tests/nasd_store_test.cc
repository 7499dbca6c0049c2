/**
 * @file
 * Unit tests for the NASD object store: allocator, object lifecycle,
 * data paths, quotas, copy-on-write versions, attributes, and
 * mount-from-device persistence.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "disk/disk_model.h"
#include "disk/params.h"
#include "nasd/allocator.h"
#include "nasd/object_store.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "util/units.h"

namespace nasd {
namespace {

using sim::Simulator;
using util::kKB;
using util::kMB;

// -------------------------------------------------------------- allocator

TEST(Allocator, SingleExtentWhenContiguous)
{
    ExtentAllocator alloc(1000);
    auto r = alloc.allocate(100);
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(r.value().size(), 1u);
    EXPECT_EQ(r.value()[0], (Extent{0, 100}));
    EXPECT_EQ(alloc.freeUnits(), 900u);
}

TEST(Allocator, HintPlacesAllocation)
{
    ExtentAllocator alloc(1000);
    auto r = alloc.allocate(10, 500);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value()[0].start, 500u);
}

TEST(Allocator, ExhaustionFails)
{
    ExtentAllocator alloc(100);
    ASSERT_TRUE(alloc.allocate(100).ok());
    auto r = alloc.allocate(1);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error(), NasdStatus::kNoSpace);
}

TEST(Allocator, FreeingMergesRuns)
{
    ExtentAllocator alloc(100);
    auto a = alloc.allocate(50).value();
    auto b = alloc.allocate(50).value();
    alloc.unref(a[0]);
    alloc.unref(b[0]);
    EXPECT_EQ(alloc.freeUnits(), 100u);
    // After merging, a full-size allocation succeeds as one extent.
    auto r = alloc.allocate(100);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value().size(), 1u);
}

TEST(Allocator, FragmentedGather)
{
    ExtentAllocator alloc(100);
    auto a = alloc.allocate(30).value();
    auto b = alloc.allocate(30).value();
    auto c = alloc.allocate(30).value();
    (void)b;
    alloc.unref(a[0]); // free [0,30)
    alloc.unref(c[0]); // free [60,90), plus [90,100) never used
    // 50 units must span two fragments ([0,30) and part of [60,100)).
    auto r = alloc.allocate(50);
    ASSERT_TRUE(r.ok());
    EXPECT_GE(r.value().size(), 2u);
    std::uint32_t total = 0;
    for (const auto &e : r.value())
        total += e.count;
    EXPECT_EQ(total, 50u);
}

TEST(Allocator, RefcountSharing)
{
    ExtentAllocator alloc(100);
    auto e = alloc.allocate(10).value()[0];
    alloc.ref(e);
    EXPECT_EQ(alloc.refcount(e.start), 2);
    alloc.unref(e);
    EXPECT_EQ(alloc.refcount(e.start), 1);
    EXPECT_EQ(alloc.freeUnits(), 90u); // still allocated
    alloc.unref(e);
    EXPECT_EQ(alloc.freeUnits(), 100u);
}

TEST(Allocator, SerializationRoundTrip)
{
    ExtentAllocator alloc(64);
    auto a = alloc.allocate(10).value();
    auto b = alloc.allocate(20).value();
    alloc.ref(b[0]);
    alloc.unref(a[0]);

    auto restored = ExtentAllocator::fromRefcounts(alloc.refcounts());
    EXPECT_EQ(restored.freeUnits(), alloc.freeUnits());
    EXPECT_EQ(restored.refcount(b[0].start), 2);
    EXPECT_FALSE(restored.isAllocated(0));
}

// ------------------------------------------------------------ object store

struct StoreFixture
{
    StoreFixture()
        : disk(sim, disk::medallistParams()), store(sim, disk, config())
    {
        runTask(sim, store.format());
        ASSERT_OK(store.createPartition(0, 256 * kMB));
    }

    static StoreConfig
    config()
    {
        StoreConfig c;
        c.max_inodes = 512;
        c.data_cache_bytes = 4 * kMB;
        return c;
    }

    static void
    ASSERT_OK(const util::Result<void, NasdStatus> &r)
    {
        ASSERT_TRUE(r.ok()) << toString(r.error());
    }

    std::vector<std::uint8_t>
    pattern(std::size_t n, std::uint8_t seed = 1)
    {
        std::vector<std::uint8_t> v(n);
        for (std::size_t i = 0; i < n; ++i)
            v[i] = static_cast<std::uint8_t>(seed + i * 13);
        return v;
    }

    Simulator sim;
    disk::DiskModel disk;
    ObjectStore store;
};

class ObjectStoreTest : public ::testing::Test, public StoreFixture
{};

TEST_F(ObjectStoreTest, CreateAssignsUserIds)
{
    auto r = runFor(sim, store.createObject(0, 0, nullptr));
    ASSERT_TRUE(r.ok());
    EXPECT_GE(r.value(), kFirstUserObject);
    auto r2 = runFor(sim, store.createObject(0, 0, nullptr));
    ASSERT_TRUE(r2.ok());
    EXPECT_NE(r.value(), r2.value());
}

TEST_F(ObjectStoreTest, CreateInMissingPartitionFails)
{
    auto r = runFor(sim, store.createObject(7, 0, nullptr));
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error(), NasdStatus::kNoSuchPartition);
}

TEST_F(ObjectStoreTest, WriteReadRoundTrip)
{
    const ObjectId oid = runFor(sim, store.createObject(0, 0, nullptr)).value();
    const auto data = pattern(100 * kKB);
    ASSERT_TRUE(runFor(sim, store.write(0, oid, 0, data, nullptr)).ok());

    std::vector<std::uint8_t> out(100 * kKB);
    auto n = runFor(sim, store.read(0, oid, 0, out, nullptr));
    ASSERT_TRUE(n.ok());
    EXPECT_EQ(n.value(), 100 * kKB);
    EXPECT_EQ(out, data);
}

TEST_F(ObjectStoreTest, ReadAtOffset)
{
    const ObjectId oid = runFor(sim, store.createObject(0, 0, nullptr)).value();
    const auto data = pattern(64 * kKB, 7);
    ASSERT_TRUE(runFor(sim, store.write(0, oid, 0, data, nullptr)).ok());

    std::vector<std::uint8_t> out(1000);
    auto n = runFor(sim, store.read(0, oid, 12345, out, nullptr));
    ASSERT_TRUE(n.ok());
    EXPECT_EQ(n.value(), 1000u);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(out[i], data[12345 + i]);
}

TEST_F(ObjectStoreTest, ReadClampsAtSize)
{
    const ObjectId oid = runFor(sim, store.createObject(0, 0, nullptr)).value();
    ASSERT_TRUE(
        runFor(sim, store.write(0, oid, 0, pattern(100), nullptr)).ok());
    std::vector<std::uint8_t> out(1000);
    auto n = runFor(sim, store.read(0, oid, 50, out, nullptr));
    ASSERT_TRUE(n.ok());
    EXPECT_EQ(n.value(), 50u);
}

TEST_F(ObjectStoreTest, ReadPastEndReturnsZeroBytes)
{
    const ObjectId oid = runFor(sim, store.createObject(0, 0, nullptr)).value();
    std::vector<std::uint8_t> out(10);
    auto n = runFor(sim, store.read(0, oid, 0, out, nullptr));
    ASSERT_TRUE(n.ok());
    EXPECT_EQ(n.value(), 0u);
}

TEST_F(ObjectStoreTest, SparseWriteLeavesZeroGap)
{
    const ObjectId oid = runFor(sim, store.createObject(0, 0, nullptr)).value();
    // Write beyond a hole; the gap reads back as zeros.
    ASSERT_TRUE(
        runFor(sim, store.write(0, oid, 64 * kKB, pattern(100), nullptr)).ok());
    std::vector<std::uint8_t> out(100);
    auto n = runFor(sim, store.read(0, oid, 1000, out, nullptr));
    ASSERT_TRUE(n.ok());
    for (auto b : out)
        EXPECT_EQ(b, 0);
}

TEST_F(ObjectStoreTest, RecycledUnitsReadAsZerosInGap)
{
    // A removed object's units go back to the allocator with its bytes
    // still on the device; the next object to get them must not see
    // those bytes in its never-written gap.
    const std::uint64_t ub = store.allocUnitBytes();
    const ObjectId old = runFor(sim, store.createObject(0, 0, nullptr)).value();
    ASSERT_TRUE(
        runFor(sim, store.write(0, old, 0, pattern(4 * ub, 9), nullptr)).ok());
    const auto free_before = store.freeUnits();
    ASSERT_TRUE(runFor(sim, store.removeObject(0, old, nullptr)).ok());
    ASSERT_EQ(store.freeUnits(), free_before + 4);

    const ObjectId oid = runFor(sim, store.createObject(0, 0, nullptr)).value();
    ASSERT_TRUE(
        runFor(sim, store.write(0, oid, 3 * ub + 10, pattern(100), nullptr))
            .ok());
    ASSERT_EQ(store.freeUnits(), free_before);
    std::vector<std::uint8_t> gap(3 * ub + 10, 0xa5);
    auto n = runFor(sim, store.read(0, oid, 0, gap, nullptr));
    ASSERT_TRUE(n.ok());
    ASSERT_EQ(n.value(), gap.size());
    for (std::size_t i = 0; i < gap.size(); ++i)
        ASSERT_EQ(gap[i], 0) << "byte " << i;
}

TEST_F(ObjectStoreTest, TruncateThenExtendReadsZeros)
{
    const std::uint64_t ub = store.allocUnitBytes();
    const ObjectId oid = runFor(sim, store.createObject(0, 0, nullptr)).value();
    const auto data = pattern(3 * ub, 3);
    ASSERT_TRUE(runFor(sim, store.write(0, oid, 0, data, nullptr)).ok());

    // Cut inside the second unit, then write past the old end: the
    // retained unit's tail and the re-grown units read as zeros.
    const std::uint64_t cut = ub + 100;
    SetAttrRequest req;
    req.truncate_size = cut;
    ASSERT_TRUE(runFor(sim, store.setAttributes(0, oid, req, nullptr)).ok());
    ASSERT_TRUE(
        runFor(sim, store.write(0, oid, 4 * ub, pattern(10, 7), nullptr)).ok());

    std::vector<std::uint8_t> out(4 * ub, 0xa5);
    auto n = runFor(sim, store.read(0, oid, 0, out, nullptr));
    ASSERT_TRUE(n.ok());
    ASSERT_EQ(n.value(), out.size());
    for (std::size_t i = 0; i < out.size(); ++i)
        ASSERT_EQ(out[i], i < cut ? data[i] : 0) << "byte " << i;
}

TEST_F(ObjectStoreTest, OverwriteInPlace)
{
    const ObjectId oid = runFor(sim, store.createObject(0, 0, nullptr)).value();
    ASSERT_TRUE(runFor(sim, store.write(0, oid, 0, pattern(32 * kKB, 1),
                                        nullptr))
                    .ok());
    const auto patch = pattern(5000, 99);
    ASSERT_TRUE(runFor(sim, store.write(0, oid, 10000, patch, nullptr)).ok());

    std::vector<std::uint8_t> out(5000);
    (void)runFor(sim, store.read(0, oid, 10000, out, nullptr));
    EXPECT_EQ(out, patch);
    // Size unchanged by the interior overwrite.
    auto attrs = runFor(sim, store.getAttributes(0, oid, nullptr));
    EXPECT_EQ(attrs.value().size, 32 * kKB);
}

TEST_F(ObjectStoreTest, AttributesTrackWrites)
{
    const ObjectId oid = runFor(sim, store.createObject(0, 0, nullptr)).value();
    auto before = runFor(sim, store.getAttributes(0, oid, nullptr)).value();
    EXPECT_EQ(before.size, 0u);
    EXPECT_EQ(before.version, 1u);

    ASSERT_TRUE(
        runFor(sim, store.write(0, oid, 0, pattern(10000), nullptr)).ok());
    auto after = runFor(sim, store.getAttributes(0, oid, nullptr)).value();
    EXPECT_EQ(after.size, 10000u);
    EXPECT_GE(after.modify_time, before.modify_time);
}

TEST_F(ObjectStoreTest, SetAttrVersionBump)
{
    const ObjectId oid = runFor(sim, store.createObject(0, 0, nullptr)).value();
    SetAttrRequest req;
    req.bump_version = true;
    auto attrs = runFor(sim, store.setAttributes(0, oid, req, nullptr));
    ASSERT_TRUE(attrs.ok());
    EXPECT_EQ(attrs.value().version, 2u);
}

TEST_F(ObjectStoreTest, SetAttrFsSpecificRoundTrip)
{
    const ObjectId oid = runFor(sim, store.createObject(0, 0, nullptr)).value();
    SetAttrRequest req;
    std::array<std::uint8_t, kFsSpecificBytes> blob{};
    blob[0] = 0xab;
    blob[63] = 0xcd;
    req.fs_specific = blob;
    ASSERT_TRUE(runFor(sim, store.setAttributes(0, oid, req, nullptr)).ok());
    auto attrs = runFor(sim, store.getAttributes(0, oid, nullptr)).value();
    EXPECT_EQ(attrs.fs_specific[0], 0xab);
    EXPECT_EQ(attrs.fs_specific[63], 0xcd);
}

TEST_F(ObjectStoreTest, TruncateFreesSpace)
{
    const ObjectId oid = runFor(sim, store.createObject(0, 0, nullptr)).value();
    ASSERT_TRUE(
        runFor(sim, store.write(0, oid, 0, pattern(256 * kKB), nullptr)).ok());
    const auto used_before = store.partitionInfo(0).value().used_bytes;

    SetAttrRequest req;
    req.truncate_size = 8 * kKB;
    ASSERT_TRUE(runFor(sim, store.setAttributes(0, oid, req, nullptr)).ok());
    const auto used_after = store.partitionInfo(0).value().used_bytes;
    EXPECT_LT(used_after, used_before);

    auto attrs = runFor(sim, store.getAttributes(0, oid, nullptr)).value();
    EXPECT_EQ(attrs.size, 8 * kKB);
}

TEST_F(ObjectStoreTest, CapacityReservationAllocates)
{
    const auto free_before = store.freeUnits();
    auto r = runFor(sim, store.createObject(0, 1 * kMB, nullptr));
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(store.freeUnits(), free_before - 128); // 1 MB / 8 KB
}

TEST_F(ObjectStoreTest, QuotaEnforced)
{
    ASSERT_OK(store.createPartition(1, 64 * kKB)); // 8 units
    const ObjectId oid = runFor(sim, store.createObject(1, 0, nullptr)).value();
    // 64 KB fits exactly.
    ASSERT_TRUE(
        runFor(sim, store.write(1, oid, 0, pattern(64 * kKB), nullptr)).ok());
    // One more byte exceeds the quota.
    auto r = runFor(sim, store.write(1, oid, 64 * kKB, pattern(1), nullptr));
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error(), NasdStatus::kQuotaExceeded);
}

TEST_F(ObjectStoreTest, ResizePartitionLiftsQuota)
{
    ASSERT_OK(store.createPartition(1, 64 * kKB));
    const ObjectId oid = runFor(sim, store.createObject(1, 0, nullptr)).value();
    ASSERT_TRUE(
        runFor(sim, store.write(1, oid, 0, pattern(64 * kKB), nullptr)).ok());
    ASSERT_OK(store.resizePartition(1, 128 * kKB));
    EXPECT_TRUE(
        runFor(sim, store.write(1, oid, 64 * kKB, pattern(kKB), nullptr)).ok());
}

TEST_F(ObjectStoreTest, ResizeBelowUsageFails)
{
    ASSERT_OK(store.createPartition(1, 128 * kKB));
    const ObjectId oid = runFor(sim, store.createObject(1, 0, nullptr)).value();
    ASSERT_TRUE(
        runFor(sim, store.write(1, oid, 0, pattern(128 * kKB), nullptr)).ok());
    auto r = store.resizePartition(1, 8 * kKB);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error(), NasdStatus::kQuotaExceeded);
}

TEST_F(ObjectStoreTest, RemoveReleasesSpace)
{
    const auto free_before = store.freeUnits();
    const ObjectId oid = runFor(sim, store.createObject(0, 0, nullptr)).value();
    ASSERT_TRUE(
        runFor(sim, store.write(0, oid, 0, pattern(512 * kKB), nullptr)).ok());
    EXPECT_LT(store.freeUnits(), free_before);
    ASSERT_TRUE(runFor(sim, store.removeObject(0, oid, nullptr)).ok());
    EXPECT_EQ(store.freeUnits(), free_before);

    std::vector<std::uint8_t> out(10);
    auto r = runFor(sim, store.read(0, oid, 0, out, nullptr));
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error(), NasdStatus::kNoSuchObject);
}

TEST_F(ObjectStoreTest, RemovePartitionRequiresEmpty)
{
    ASSERT_OK(store.createPartition(1, kMB));
    const ObjectId oid = runFor(sim, store.createObject(1, 0, nullptr)).value();
    auto r = store.removePartition(1);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error(), NasdStatus::kPartitionNotEmpty);
    ASSERT_TRUE(runFor(sim, store.removeObject(1, oid, nullptr)).ok());
    EXPECT_TRUE(store.removePartition(1).ok());
}

TEST_F(ObjectStoreTest, ListObjectsEnumeratesPartition)
{
    std::vector<ObjectId> created;
    for (int i = 0; i < 5; ++i)
        created.push_back(
            runFor(sim, store.createObject(0, 0, nullptr)).value());
    auto listed = runFor(sim, store.listObjects(0, nullptr));
    ASSERT_TRUE(listed.ok());
    EXPECT_EQ(listed.value(), created);
}

TEST_F(ObjectStoreTest, PartitionsIsolateNamespaces)
{
    ASSERT_OK(store.createPartition(1, kMB));
    const ObjectId oid = runFor(sim, store.createObject(0, 0, nullptr)).value();
    std::vector<std::uint8_t> out(10);
    auto r = runFor(sim, store.read(1, oid, 0, out, nullptr));
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error(), NasdStatus::kNoSuchObject);
}

// ------------------------------------------------------------------- COW

TEST_F(ObjectStoreTest, CloneSharesSpace)
{
    const ObjectId oid = runFor(sim, store.createObject(0, 0, nullptr)).value();
    ASSERT_TRUE(
        runFor(sim, store.write(0, oid, 0, pattern(256 * kKB), nullptr)).ok());
    const auto free_before = store.freeUnits();
    auto clone = runFor(sim, store.cloneVersion(0, oid, nullptr));
    ASSERT_TRUE(clone.ok());
    EXPECT_EQ(store.freeUnits(), free_before); // no data copied

    std::vector<std::uint8_t> out(256 * kKB);
    (void)runFor(sim, store.read(0, clone.value(), 0, out, nullptr));
    EXPECT_EQ(out, pattern(256 * kKB));
}

TEST_F(ObjectStoreTest, WriteToCloneLeavesOriginalIntact)
{
    const ObjectId oid = runFor(sim, store.createObject(0, 0, nullptr)).value();
    const auto original = pattern(64 * kKB, 1);
    ASSERT_TRUE(runFor(sim, store.write(0, oid, 0, original, nullptr)).ok());
    const ObjectId clone =
        runFor(sim, store.cloneVersion(0, oid, nullptr)).value();

    const auto patch = pattern(8 * kKB, 200);
    ASSERT_TRUE(runFor(sim, store.write(0, clone, 0, patch, nullptr)).ok());

    std::vector<std::uint8_t> out(8 * kKB);
    (void)runFor(sim, store.read(0, oid, 0, out, nullptr));
    EXPECT_EQ(out, std::vector<std::uint8_t>(original.begin(),
                                             original.begin() + 8 * kKB));
    (void)runFor(sim, store.read(0, clone, 0, out, nullptr));
    EXPECT_EQ(out, patch);
}

TEST_F(ObjectStoreTest, WriteToOriginalLeavesCloneIntact)
{
    const ObjectId oid = runFor(sim, store.createObject(0, 0, nullptr)).value();
    const auto original = pattern(64 * kKB, 1);
    ASSERT_TRUE(runFor(sim, store.write(0, oid, 0, original, nullptr)).ok());
    const ObjectId clone =
        runFor(sim, store.cloneVersion(0, oid, nullptr)).value();

    ASSERT_TRUE(runFor(sim, store.write(0, oid, 0, pattern(8 * kKB, 200),
                                        nullptr))
                    .ok());

    std::vector<std::uint8_t> out(64 * kKB);
    (void)runFor(sim, store.read(0, clone, 0, out, nullptr));
    EXPECT_EQ(out, original);
}

TEST_F(ObjectStoreTest, RemoveCloneKeepsOriginalData)
{
    const ObjectId oid = runFor(sim, store.createObject(0, 0, nullptr)).value();
    const auto original = pattern(64 * kKB, 1);
    ASSERT_TRUE(runFor(sim, store.write(0, oid, 0, original, nullptr)).ok());
    const ObjectId clone =
        runFor(sim, store.cloneVersion(0, oid, nullptr)).value();
    ASSERT_TRUE(runFor(sim, store.removeObject(0, clone, nullptr)).ok());

    std::vector<std::uint8_t> out(64 * kKB);
    (void)runFor(sim, store.read(0, oid, 0, out, nullptr));
    EXPECT_EQ(out, original);
}

// ------------------------------------------------------------- persistence

TEST_F(ObjectStoreTest, MountRebuildsState)
{
    ASSERT_OK(store.createPartition(3, 16 * kMB));
    const ObjectId oid = runFor(sim, store.createObject(3, 0, nullptr)).value();
    const auto data = pattern(100 * kKB, 42);
    ASSERT_TRUE(runFor(sim, store.write(3, oid, 0, data, nullptr)).ok());
    SetAttrRequest req;
    req.bump_version = true;
    ASSERT_TRUE(runFor(sim, store.setAttributes(3, oid, req, nullptr)).ok());
    runTask(sim, store.flushAll());

    // A second store instance on the same device must see everything.
    ObjectStore reborn(sim, disk, config());
    runTask(sim, reborn.mount());
    auto info = reborn.partitionInfo(3);
    ASSERT_TRUE(info.ok());
    EXPECT_EQ(info.value().object_count, 1u);

    auto attrs = runFor(sim, reborn.getAttributes(3, oid, nullptr));
    ASSERT_TRUE(attrs.ok());
    EXPECT_EQ(attrs.value().size, 100 * kKB);
    EXPECT_EQ(attrs.value().version, 2u);

    std::vector<std::uint8_t> out(100 * kKB);
    auto n = runFor(sim, reborn.read(3, oid, 0, out, nullptr));
    ASSERT_TRUE(n.ok());
    EXPECT_EQ(out, data);
}

TEST_F(ObjectStoreTest, MountPreservesAllocatorState)
{
    const ObjectId oid = runFor(sim, store.createObject(0, 0, nullptr)).value();
    ASSERT_TRUE(
        runFor(sim, store.write(0, oid, 0, pattern(512 * kKB), nullptr)).ok());
    const auto free_before = store.freeUnits();
    runTask(sim, store.flushAll());

    ObjectStore reborn(sim, disk, config());
    runTask(sim, reborn.mount());
    EXPECT_EQ(reborn.freeUnits(), free_before);

    // New allocations in the reborn store must not collide: write to a
    // fresh object and confirm the old object's data is untouched.
    const ObjectId fresh =
        runFor(sim, reborn.createObject(0, 0, nullptr)).value();
    ASSERT_TRUE(runFor(sim, 
        reborn.write(0, fresh, 0, pattern(512 * kKB, 77), nullptr)).ok());
    std::vector<std::uint8_t> out(512 * kKB);
    (void)runFor(sim, reborn.read(0, oid, 0, out, nullptr));
    EXPECT_EQ(out, pattern(512 * kKB));
}

// ------------------------------------------------------- inode slot order

/** Inode slots marked valid in the device image. The inode region
 *  follows the superblock and the refcount region (one byte per
 *  allocation unit), one block per slot. */
std::vector<std::uint32_t>
occupiedSlots(disk::BlockDevice &device, std::uint32_t num_units,
              std::uint32_t max_inodes)
{
    const std::uint32_t bs = device.blockSize();
    const std::uint64_t inode_start = 1 + (num_units + bs - 1) / bs;
    std::vector<std::uint32_t> slots;
    std::uint8_t valid = 0;
    for (std::uint32_t i = 0; i < max_inodes; ++i) {
        device.peek((inode_start + i) * bs, std::span(&valid, 1));
        if (valid != 0)
            slots.push_back(i);
    }
    return slots;
}

using Slots = std::vector<std::uint32_t>;

TEST_F(ObjectStoreTest, InodeSlotOrderSurvivesRemoveCloneAndRestart)
{
    // Fresh slots go in ascending order, freed slots are reused last
    // freed first, and a remounted store refills the holes below its
    // highest used slot in ascending order before any fresh slot.
    const std::uint32_t units = store.freeUnits(); // nothing allocated
    const std::uint32_t max = config().max_inodes;
    const auto create = [&](ObjectStore &st) {
        return runFor(sim, st.createObject(0, 16 * kKB, nullptr)).value();
    };
    const auto occupied = [&] { return occupiedSlots(disk, units, max); };

    const ObjectId a = create(store);
    const ObjectId b = create(store);
    const ObjectId c = create(store);
    const ObjectId d = create(store);
    EXPECT_EQ(occupied(), (Slots{0, 1, 2, 3}));

    ASSERT_TRUE(runFor(sim, store.removeObject(0, b, nullptr)).ok());
    ASSERT_TRUE(runFor(sim, store.removeObject(0, d, nullptr)).ok());
    EXPECT_EQ(occupied(), (Slots{0, 2}));

    // The clone takes slot 3, freed last; the next create takes 1.
    (void)runFor(sim, store.cloneVersion(0, a, nullptr)).value();
    EXPECT_EQ(occupied(), (Slots{0, 2, 3}));
    const ObjectId e = create(store);
    EXPECT_EQ(occupied(), (Slots{0, 1, 2, 3}));
    (void)create(store);
    EXPECT_EQ(occupied(), (Slots{0, 1, 2, 3, 4}));

    // Free 1 then 2: before a restart the next create would take 2.
    ASSERT_TRUE(runFor(sim, store.removeObject(0, e, nullptr)).ok());
    ASSERT_TRUE(runFor(sim, store.removeObject(0, c, nullptr)).ok());
    EXPECT_EQ(occupied(), (Slots{0, 3, 4}));

    // Crash and restart: a new store mounts the same device, as
    // NasdDrive::restart does, and refills holes in ascending order.
    ObjectStore reborn(sim, disk, config());
    runTask(sim, reborn.mount());
    (void)create(reborn);
    EXPECT_EQ(occupied(), (Slots{0, 1, 3, 4}));
    (void)runFor(sim, reborn.cloneVersion(0, a, nullptr)).value();
    EXPECT_EQ(occupied(), (Slots{0, 1, 2, 3, 4}));
    (void)create(reborn);
    EXPECT_EQ(occupied(), (Slots{0, 1, 2, 3, 4, 5}));
}

TEST_F(ObjectStoreTest, FullInodeTableReusesTheFreedSlot)
{
    StoreConfig small = config();
    small.max_inodes = 8;
    ObjectStore st(sim, disk, small);
    runTask(sim, st.format());
    ASSERT_OK(st.createPartition(0, 64 * kMB));
    const std::uint32_t units = st.freeUnits();

    std::vector<ObjectId> ids;
    for (;;) {
        auto r = runFor(sim, st.createObject(0, 0, nullptr));
        if (!r.ok()) {
            EXPECT_EQ(r.error(), NasdStatus::kNoSpace);
            break;
        }
        ids.push_back(r.value());
    }
    ASSERT_EQ(ids.size(), 8u);
    EXPECT_EQ(occupiedSlots(disk, units, 8),
              (Slots{0, 1, 2, 3, 4, 5, 6, 7}));
    auto clone = runFor(sim, st.cloneVersion(0, ids[0], nullptr));
    ASSERT_FALSE(clone.ok());
    EXPECT_EQ(clone.error(), NasdStatus::kNoSpace);

    ASSERT_TRUE(runFor(sim, st.removeObject(0, ids[5], nullptr)).ok());
    EXPECT_EQ(occupiedSlots(disk, units, 8), (Slots{0, 1, 2, 3, 4, 6, 7}));
    // A create that fails its reservation leaves the slot free.
    auto over = runFor(sim, st.createObject(0, 128 * kMB, nullptr));
    ASSERT_FALSE(over.ok());
    EXPECT_EQ(over.error(), NasdStatus::kQuotaExceeded);
    EXPECT_EQ(occupiedSlots(disk, units, 8), (Slots{0, 1, 2, 3, 4, 6, 7}));
    ASSERT_TRUE(runFor(sim, st.createObject(0, 0, nullptr)).ok());
    EXPECT_EQ(occupiedSlots(disk, units, 8),
              (Slots{0, 1, 2, 3, 4, 5, 6, 7}));
    auto full = runFor(sim, st.createObject(0, 0, nullptr));
    ASSERT_FALSE(full.ok());
    EXPECT_EQ(full.error(), NasdStatus::kNoSpace);
}

// ------------------------------------------------- refcount write-back

TEST_F(ObjectStoreTest, RefcountRegionTracksEveryUpdate)
{
    // The refcount region follows the superblock, one byte per unit.
    const std::uint32_t units = store.freeUnits(); // nothing allocated
    const std::uint64_t ub = store.allocUnitBytes();
    const auto image = [&] {
        std::vector<std::uint8_t> bytes(units);
        disk.peek(disk.blockSize(), bytes);
        return bytes;
    };
    const auto expectImageMatches = [&](const char *step) {
        EXPECT_EQ(image(), store.allocator().refcounts()) << "after " << step;
    };

    const ObjectId a =
        runFor(sim, store.createObject(0, 4 * ub, nullptr)).value();
    const ObjectId b =
        runFor(sim, store.createObject(0, 3 * ub, nullptr)).value();
    expectImageMatches("create");
    ASSERT_TRUE(
        runFor(sim, store.write(0, a, 0, pattern(9 * ub), nullptr)).ok());
    expectImageMatches("grow");
    const ObjectId clone =
        runFor(sim, store.cloneVersion(0, a, nullptr)).value();
    expectImageMatches("clone");
    ASSERT_TRUE(runFor(sim, store.write(0, clone, 2 * ub, pattern(ub, 9),
                                        nullptr))
                    .ok());
    expectImageMatches("copy-on-write overwrite");
    const auto shared = image();
    ASSERT_GT(std::count(shared.begin(), shared.end(), 2), 0)
        << "the clone should still share a's second extent";
    SetAttrRequest shrink;
    shrink.truncate_size = 2 * ub + 100;
    ASSERT_TRUE(runFor(sim, store.setAttributes(0, a, shrink, nullptr)).ok());
    expectImageMatches("shrink");
    ASSERT_TRUE(runFor(sim, store.removeObject(0, b, nullptr)).ok());
    expectImageMatches("remove");

    // Crash and restart: the remounted allocator holds the same counts
    // and free map, so the next allocation lands where the old
    // allocator would have put it.
    const auto counts = store.allocator().refcounts();
    ExtentAllocator model = ExtentAllocator::fromRefcounts(counts);
    ObjectStore reborn(sim, disk, config());
    runTask(sim, reborn.mount());
    EXPECT_EQ(reborn.freeUnits(), store.freeUnits());
    EXPECT_EQ(reborn.allocator().refcounts(), counts);

    const ObjectId fresh =
        runFor(sim, reborn.createObject(0, 0, nullptr)).value();
    ASSERT_TRUE(runFor(sim, reborn.write(0, fresh, 0, pattern(6 * ub, 3),
                                         nullptr))
                    .ok());
    const auto after = image();
    EXPECT_EQ(after, reborn.allocator().refcounts());
    std::vector<Extent> landed;
    for (std::uint32_t u = 0; u < units; ++u) {
        if (after[u] == counts[u])
            continue;
        ASSERT_EQ(counts[u], 0) << "unit " << u << " was already in use";
        if (!landed.empty() && landed.back().start + landed.back().count == u)
            ++landed.back().count;
        else
            landed.push_back({u, 1});
    }
    EXPECT_EQ(landed, model.allocate(6, 0).value());
}

TEST_F(ObjectStoreTest, FullExtentTableFailsGrowthWithNothingChanged)
{
    // Interleave one-unit growths of a and a spacer, then free the
    // spacer: a holds 46 one-unit extents with a one-unit hole after
    // each of the first 45, and the rest of the disk is one free run.
    const std::uint64_t ub = store.allocUnitBytes();
    const ObjectId a = runFor(sim, store.createObject(0, 0, nullptr)).value();
    const ObjectId spacer =
        runFor(sim, store.createObject(0, 0, nullptr)).value();
    constexpr std::uint64_t kExtents = 46;
    for (std::uint64_t i = 0; i < kExtents; ++i) {
        ASSERT_TRUE(
            runFor(sim, store.write(0, a, i * ub, pattern(ub), nullptr)).ok());
        ASSERT_TRUE(runFor(sim, store.write(0, spacer, i * ub, pattern(ub),
                                            nullptr))
                        .ok());
    }
    ASSERT_TRUE(runFor(sim, store.removeObject(0, spacer, nullptr)).ok());
    ASSERT_OK(store.resizePartition(0, std::uint64_t{1} << 40));

    const auto image = [&] {
        std::vector<std::uint8_t> bytes(store.allocator().refcounts().size());
        disk.peek(disk.blockSize(), bytes);
        return bytes;
    };
    const auto attrs_before =
        runFor(sim, store.getAttributes(0, a, nullptr)).value();
    const auto used_before = store.partitionInfo(0).value().used_bytes;
    const std::uint32_t free_before = store.freeUnits();
    const auto image_before = image();
    ASSERT_EQ(image_before, store.allocator().refcounts());

    // Growing a by every free unit gathers the 45 holes and the tail
    // run: the first hole fills the table, the second overflows it.
    const std::uint64_t end = (kExtents + free_before) * ub;
    const auto grown =
        runFor(sim, store.write(0, a, end - 1, pattern(1), nullptr));
    ASSERT_FALSE(grown.ok());
    EXPECT_EQ(grown.error(), NasdStatus::kNoSpace);

    const auto attrs_after =
        runFor(sim, store.getAttributes(0, a, nullptr)).value();
    EXPECT_EQ(attrs_after.size, attrs_before.size);
    EXPECT_EQ(attrs_after.capacity, attrs_before.capacity);
    EXPECT_EQ(store.partitionInfo(0).value().used_bytes, used_before);
    EXPECT_EQ(store.freeUnits(), free_before);
    EXPECT_EQ(image(), image_before);
    EXPECT_EQ(store.allocator().refcounts(), image_before);

    // a's extents are still its 46 units: removing it returns exactly
    // those to the allocator and the partition.
    ASSERT_TRUE(runFor(sim, store.removeObject(0, a, nullptr)).ok());
    EXPECT_EQ(store.freeUnits(), free_before + kExtents);
    EXPECT_EQ(store.partitionInfo(0).value().used_bytes,
              used_before - kExtents * ub);
    EXPECT_EQ(image(), store.allocator().refcounts());
}

// -------------------------------------------------------------- cost trace

TEST_F(ObjectStoreTest, TraceReportsMetaMissOnceThenWarm)
{
    StoreConfig small = config();
    small.meta_cache_inodes = 4;
    // Fresh store so the cache is empty.
    ObjectStore cold_store(sim, disk, small);
    runTask(sim, cold_store.format());
    ASSERT_TRUE(cold_store.createPartition(0, 64 * kMB).ok());
    const ObjectId oid =
        runFor(sim, cold_store.createObject(0, 0, nullptr)).value();
    ASSERT_TRUE(
        runFor(sim, cold_store.write(0, oid, 0, pattern(kKB), nullptr)).ok());

    // Evict by touching other inodes.
    for (int i = 0; i < 6; ++i) {
        const auto other =
            runFor(sim, cold_store.createObject(0, 0, nullptr)).value();
        (void)runFor(sim, cold_store.getAttributes(0, other, nullptr));
    }

    OpTrace t1;
    std::vector<std::uint8_t> out(kKB);
    (void)runFor(sim, cold_store.read(0, oid, 0, out, &t1));
    EXPECT_TRUE(t1.meta_miss);

    OpTrace t2;
    (void)runFor(sim, cold_store.read(0, oid, 0, out, &t2));
    EXPECT_FALSE(t2.meta_miss);
    EXPECT_GT(t2.cache_hit_bytes, 0u);
}

TEST_F(ObjectStoreTest, SecondReadHitsDriveCache)
{
    const ObjectId oid = runFor(sim, store.createObject(0, 0, nullptr)).value();
    ASSERT_TRUE(
        runFor(sim, store.write(0, oid, 0, pattern(64 * kKB), nullptr)).ok());

    std::vector<std::uint8_t> out(64 * kKB);
    OpTrace trace;
    (void)runFor(sim, store.read(0, oid, 0, out, &trace));
    // Just written: everything resident.
    EXPECT_EQ(trace.device_bytes_read, 0u);
    EXPECT_EQ(trace.cache_hit_bytes, 64 * kKB);
}

// --------------------------------------------------- read path vs model

TEST_F(ObjectStoreTest, SeededReadsMatchByteModel)
{
    // A small cache (8 units) so every probe starts evicted; reads mix
    // holes, cache hits, misses and partly covered edge runs over a
    // fragmented object and a copy-on-write clone of it.
    StoreConfig small = config();
    small.data_cache_bytes = 64 * kKB;
    ObjectStore st(sim, disk, small);
    runTask(sim, st.format());
    ASSERT_OK(st.createPartition(0, 64 * kMB));
    const std::uint64_t ub = st.allocUnitBytes();

    std::map<ObjectId, std::vector<std::uint8_t>> model;
    const auto put = [&](ObjectId oid, std::uint64_t offset,
                         const std::vector<std::uint8_t> &bytes) {
        ASSERT_TRUE(runFor(sim, st.write(0, oid, offset, bytes, nullptr)).ok());
        auto &m = model[oid];
        if (m.size() < offset + bytes.size())
            m.resize(offset + bytes.size(), 0);
        std::copy(bytes.begin(), bytes.end(),
                  m.begin() + static_cast<std::ptrdiff_t>(offset));
    };

    // Appends to `frag` alternate with appends to `other`, so frag's
    // units land in several physically separate extents.
    const ObjectId frag = runFor(sim, st.createObject(0, 0, nullptr)).value();
    const ObjectId other = runFor(sim, st.createObject(0, 0, nullptr)).value();
    for (int i = 0; i < 8; ++i) {
        put(frag, i * 3 * ub, pattern(3 * ub, static_cast<std::uint8_t>(i)));
        put(other, i * 2 * ub, pattern(2 * ub, 100));
    }
    // Extend past the allocated units: the tail reads as a hole.
    SetAttrRequest grow;
    grow.truncate_size = 30 * ub;
    ASSERT_TRUE(runFor(sim, st.setAttributes(0, frag, grow, nullptr)).ok());
    model[frag].resize(30 * ub, 0);

    // A clone shares frag's units until writes relocate some of them.
    const ObjectId clone =
        runFor(sim, st.cloneVersion(0, frag, nullptr)).value();
    model[clone] = model[frag];
    put(clone, 4 * ub + 100, pattern(3 * ub, 77));
    put(clone, 13 * ub, pattern(ub, 55));

    util::Rng rng(20260417);
    std::uint64_t miss_bytes = 0;
    std::uint64_t hit_bytes = 0;
    for (int probe = 0; probe < 200; ++probe) {
        const ObjectId oid = probe % 2 == 0 ? frag : clone;
        const auto &m = model[oid];

        // Evict: stream `other` through the whole cache.
        std::vector<std::uint8_t> scratch(16 * ub);
        (void)runFor(sim, st.read(0, other, 0, scratch, nullptr));

        // Start and end on unit boundaries, give or take one byte.
        const auto edge = [&](std::uint64_t unit) {
            const std::uint64_t at = unit * ub;
            const std::uint64_t d = rng.below(3);
            return d == 0 ? (at == 0 ? 0 : at - 1) : at + (d - 1);
        };
        const std::uint64_t first = rng.below(30);
        const std::uint64_t offset = edge(first);
        const std::uint64_t end =
            std::max(offset + 1, edge(first + 1 + rng.below(12)));

        // Warm a few units inside the range so the read splits into
        // hit and miss runs.
        if (rng.chance(0.5)) {
            std::vector<std::uint8_t> warm(ub);
            (void)runFor(sim, st.read(0, oid, (first + rng.below(4)) * ub, warm,
                                 nullptr));
        }

        std::vector<std::uint8_t> out(end - offset, 0xa5);
        OpTrace trace;
        auto n = runFor(sim, st.read(0, oid, offset, out, &trace));
        ASSERT_TRUE(n.ok());
        const std::uint64_t want =
            offset >= m.size() ? 0 : std::min<std::uint64_t>(out.size(),
                                                             m.size() - offset);
        ASSERT_EQ(n.value(), want) << "probe " << probe;
        for (std::uint64_t i = 0; i < out.size(); ++i) {
            const std::uint8_t expect =
                i < want ? m[offset + i] : std::uint8_t{0xa5};
            ASSERT_EQ(out[i], expect)
                << "probe " << probe << " object " << oid << " offset "
                << offset << " byte " << i;
        }
        miss_bytes += trace.device_bytes_read;
        hit_bytes += trace.cache_hit_bytes;
    }
    EXPECT_GT(miss_bytes, 0u);
    EXPECT_GT(hit_bytes, 0u);
}

} // namespace
} // namespace nasd
