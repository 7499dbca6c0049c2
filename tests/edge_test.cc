/**
 * @file
 * Edge cases and boundary behaviour across modules: RPC pipelining,
 * NFS client windowing, empty/degenerate operations, allocation
 * contiguity, store boundaries, and Active Disks corner cases.
 */
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "active/active.h"
#include "apps/transactions.h"
#include "fs/nfs/nfs_client.h"
#include "fs/nfs/nfs_server.h"
#include "nasd/client.h"
#include "nasd/drive.h"
#include "net/presets.h"
#include "net/rpc.h"
#include "rig/cluster.h"
#include "sim/simulator.h"
#include "util/units.h"

namespace nasd {
namespace {

using sim::Simulator;
using sim::Task;
using sim::Tick;
using util::kKB;
using util::kMB;

std::vector<std::uint8_t>
pattern(std::size_t n, std::uint8_t seed = 1)
{
    std::vector<std::uint8_t> v(n);
    for (std::size_t i = 0; i < n; ++i)
        v[i] = static_cast<std::uint8_t>(seed + i * 11);
    return v;
}

// ---------------------------------------------------------- RPC pipeline

TEST(RpcPipeline, LargeTransferOverlapsStages)
{
    // A pipelined 1 MB message should take far less than the sum of
    // (send cpu + wire + recv cpu) serialized per whole message.
    Simulator sim;
    net::Network net(sim);
    auto &a = net.addNode("a", net::alphaStation255(), net::oc3Link(),
                          net::dceRpcCosts());
    auto &b = net.addNode("b", net::alphaStation255(), net::oc3Link(),
                          net::dceRpcCosts());

    const Tick t0 = sim.now();
    runTask(sim, net::sendMessage(net, a, b, kMB));
    const Tick piped = sim.now() - t0;

    // Serial estimate: per-byte send + wire + recv with no overlap.
    const auto &c = a.costs();
    const double send_ns =
        c.send_per_byte_instr * c.data_cpi * 1000.0 / 233.0 * kMB;
    const double wire_ns = kMB / 19.375e6 * 1e9;
    const double recv_ns =
        c.recv_per_byte_instr * c.data_cpi * 1000.0 / 233.0 * kMB;
    const double serial = send_ns + wire_ns + recv_ns;

    EXPECT_LT(static_cast<double>(piped), 0.75 * serial);
    // ...but it can never beat the slowest single stage.
    EXPECT_GT(static_cast<double>(piped),
              std::max({send_ns, wire_ns, recv_ns}) * 0.95);
}

TEST(RpcPipeline, SmallMessageIsNotChunked)
{
    Simulator sim;
    net::Network net(sim);
    auto &a = net.addNode("a", net::alphaStation255(), net::oc3Link(),
                          net::dceRpcCosts());
    auto &b = net.addNode("b", net::alphaStation255(), net::oc3Link(),
                          net::dceRpcCosts());
    runTask(sim, net::sendMessage(net, a, b, 100));
    // One header only.
    EXPECT_EQ(b.bytes_received.value(), 100 + a.costs().header_bytes);
}

// ------------------------------------------------------- NFS windowing

class WindowTest : public ::testing::Test
{
  protected:
    WindowTest()
        : server_node(net.addNode("server", net::alphaStation500(),
                                  net::oc3Link(), net::dceRpcCosts())),
          client_node(net.addNode("client", net::alphaStation255(),
                                  net::oc3Link(), net::dceRpcCosts())),
          disk(sim, disk::cheetahParams()),
          ffs(sim, disk, &server_node.cpu()), server(sim, server_node)
    {
        runTask(sim, ffs.format());
        volume = server.addVolume(ffs);
    }

    Simulator sim;
    net::Network net{sim};
    net::NetNode &server_node;
    net::NetNode &client_node;
    disk::DiskModel disk;
    fs::FfsFileSystem ffs;
    fs::NfsServer server;
    std::uint32_t volume;
};

TEST_F(WindowTest, WiderWindowIsFasterOnLargeReads)
{
    const auto root = server.rootHandle(volume);
    fs::NfsClientParams narrow;
    narrow.window = 1;
    fs::NfsClientParams wide;
    wide.window = 8;
    fs::NfsClient narrow_client(net, client_node, server, narrow);
    fs::NfsClient wide_client(net, client_node, server, wide);

    const auto fh =
        runFor(sim, narrow_client.create(root, "data")).value();
    ASSERT_TRUE(
        runFor(sim, narrow_client.write(fh, 0, pattern(kMB))).ok());

    std::vector<std::uint8_t> out(kMB);
    // Warm the server cache so the comparison is protocol-bound.
    (void)runFor(sim, wide_client.read(fh, 0, out));

    Tick t0 = sim.now();
    (void)runFor(sim, narrow_client.read(fh, 0, out));
    const Tick serial = sim.now() - t0;
    t0 = sim.now();
    (void)runFor(sim, wide_client.read(fh, 0, out));
    const Tick pipelined = sim.now() - t0;
    // The shared server CPU bounds the speedup; expect at least 1.5x.
    EXPECT_LT(pipelined * 3, serial * 2);
}

// ----------------------------------------------------- drive boundaries

class DriveEdge : public ::testing::Test, public rig::DriveRig
{
  protected:
    DriveEdge() : DriveRig(prototypeDriveConfig("nasd0", 1), 256 * kMB) {}

    CredentialFactory
    objectCred(ObjectId oid)
    {
        return credential(oid, kRightRead | kRightWrite | kRightGetAttr |
                                   kRightSetAttr | kRightRemove |
                                   kRightVersion);
    }
};

TEST_F(DriveEdge, EmptyWriteIsANoop)
{
    const ObjectId oid = createObject();
    auto cred = objectCred(oid);
    std::vector<std::uint8_t> empty;
    ASSERT_TRUE(runFor(sim, client.write(cred, 0, empty)).ok());
    auto attrs = runFor(sim, client.getAttr(cred));
    EXPECT_EQ(attrs.value().size, 0u);
}

TEST_F(DriveEdge, ZeroLengthReadOfEmptyObject)
{
    const ObjectId oid = createObject();
    auto cred = objectCred(oid);
    auto r = runFor(sim, client.read(cred, 0, 0));
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r.value().empty());
}

TEST_F(DriveEdge, SingleByteAtUnitBoundary)
{
    const ObjectId oid = createObject();
    auto cred = objectCred(oid);
    // Write exactly one byte on each side of an 8 KB unit boundary.
    const std::uint64_t boundary = 8192;
    ASSERT_TRUE(runFor(sim, client.write(cred, boundary - 1,
                                         pattern(2, 42)))
                    .ok());
    auto r = runFor(sim, client.read(cred, boundary - 1, 2));
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value(), pattern(2, 42));
}

TEST_F(DriveEdge, CapacityHintYieldsContiguousLayout)
{
    // With a capacity hint the whole object should land in one extent
    // (the "preallocation" attribute of Section 4.1).
    CapabilityPublic pub;
    pub.partition = 0;
    pub.object_id = kPartitionControlObject;
    pub.rights = kRightCreate;
    CredentialFactory pcred(issuer.mint(pub));
    const ObjectId oid =
        runFor(sim, client.create(pcred, 4 * kMB)).value();
    auto cred = objectCred(oid);
    ASSERT_TRUE(runFor(sim, client.write(cred, 0, pattern(4 * kMB))).ok());

    // Sequential cold reads of a contiguous object run near media
    // speed — indirectly verifying contiguity.
    auto attrs = runFor(sim, client.getAttr(cred));
    EXPECT_GE(attrs.value().capacity, 4 * kMB);
}

TEST_F(DriveEdge, FlushCompletesAndOpsCount)
{
    const ObjectId oid = createObject();
    auto cred = objectCred(oid);
    ASSERT_TRUE(runFor(sim, client.write(cred, 0, pattern(256 * kKB))).ok());
    const auto before = drive.opsServed();
    runTask(sim, client.flush());
    EXPECT_GT(drive.opsServed(), before);
}

TEST_F(DriveEdge, ListObjectsAfterChurn)
{
    CapabilityPublic pub;
    pub.partition = 0;
    pub.object_id = kPartitionControlObject;
    pub.rights = kRightCreate | kRightGetAttr;
    CredentialFactory pcred(issuer.mint(pub));

    std::vector<ObjectId> ids;
    for (int i = 0; i < 5; ++i)
        ids.push_back(runFor(sim, client.create(pcred, 0)).value());
    // Remove the middle one.
    auto victim = objectCred(ids[2]);
    ASSERT_TRUE(runFor(sim, client.remove(victim)).ok());

    auto listed = runFor(sim, client.listObjects(pcred));
    ASSERT_TRUE(listed.ok());
    EXPECT_EQ(listed.value().size(), 4u);
    EXPECT_EQ(std::count(listed.value().begin(), listed.value().end(),
                         ids[2]),
              0);
}

TEST_F(DriveEdge, CloneOfCloneChains)
{
    const ObjectId oid = createObject();
    auto cred = objectCred(oid);
    ASSERT_TRUE(runFor(sim, client.write(cred, 0, pattern(64 * kKB))).ok());
    auto c1 = runFor(sim, client.cloneVersion(cred));
    ASSERT_TRUE(c1.ok());
    auto cred1 = objectCred(c1.value());
    auto c2 = runFor(sim, client.cloneVersion(cred1));
    ASSERT_TRUE(c2.ok());

    // Diverge the middle of the chain; ends stay intact.
    ASSERT_TRUE(
        runFor(sim, client.write(cred1, 0, pattern(64 * kKB, 99))).ok());
    auto cred2 = objectCred(c2.value());
    auto tail = runFor(sim, client.read(cred2, 0, 64 * kKB));
    ASSERT_TRUE(tail.ok());
    EXPECT_EQ(tail.value(), pattern(64 * kKB));
    auto head = runFor(sim, client.read(cred, 0, 64 * kKB));
    ASSERT_TRUE(head.ok());
    EXPECT_EQ(head.value(), pattern(64 * kKB));
}

TEST_F(DriveEdge, RestartPreservesCloneRefcounts)
{
    const ObjectId oid = createObject();
    auto cred = objectCred(oid);
    ASSERT_TRUE(runFor(sim, client.write(cred, 0, pattern(64 * kKB))).ok());
    auto clone = runFor(sim, client.cloneVersion(cred));
    ASSERT_TRUE(clone.ok());
    runTask(sim, client.flush());

    // Rebuilding the store from the on-disk image must preserve the
    // copy-on-write sharing: removing the clone after the restart may
    // not free extents the original still references.
    drive.crash();
    runTask(sim, drive.restart());

    auto clone_cred = objectCred(clone.value());
    auto tail = runFor(sim, client.read(clone_cred, 0, 64 * kKB));
    ASSERT_TRUE(tail.ok());
    EXPECT_EQ(tail.value(), pattern(64 * kKB));
    ASSERT_TRUE(runFor(sim, client.remove(clone_cred)).ok());

    auto head = runFor(sim, client.read(cred, 0, 64 * kKB));
    ASSERT_TRUE(head.ok());
    EXPECT_EQ(head.value(), pattern(64 * kKB));
}

// -------------------------------------------------------- active corner

TEST(ActiveEdge, ScanOfEmptyObjectReturnsEmptyCounts)
{
    Simulator sim;
    net::Network net(sim);
    NasdDrive drive(sim, net, prototypeDriveConfig("nasd0", 1));
    CapabilityIssuer issuer(drive.config().master_key, 1);
    auto &node = net.addNode("client", net::alphaStation255(),
                             net::oc3Link(), net::dceRpcCosts());
    NasdClient client(net, node, drive);
    runTask(sim, drive.format());
    ASSERT_TRUE(drive.store().createPartition(0, 64 * kMB).ok());

    active::ActiveDiskRuntime runtime(drive);
    runtime.installMethod("count", [] {
        return std::make_unique<active::FrequentSetsMethod>(16);
    });
    active::ActiveDiskClient scanner(net, node, runtime);

    CapabilityPublic pc;
    pc.partition = 0;
    pc.object_id = kPartitionControlObject;
    pc.rights = kRightCreate;
    CredentialFactory pcred(issuer.mint(pc));
    const ObjectId oid = runFor(sim, client.create(pcred, 0)).value();
    CapabilityPublic po;
    po.partition = 0;
    po.object_id = oid;
    po.rights = kRightRead;
    CredentialFactory cred(issuer.mint(po));

    auto result = runFor(sim, scanner.scan(cred, "count"));
    ASSERT_TRUE(result.ok());
    const auto counts =
        active::FrequentSetsMethod::decodeResult(result.value());
    for (const auto c : counts)
        EXPECT_EQ(c, 0u);
    EXPECT_EQ(runtime.bytesScanned(), 0u);
}

TEST(ActiveEdge, MethodReplacement)
{
    Simulator sim;
    net::Network net(sim);
    NasdDrive drive(sim, net, prototypeDriveConfig("nasd0", 1));
    active::ActiveDiskRuntime runtime(drive);
    runtime.installMethod("m", [] {
        return std::make_unique<active::FrequentSetsMethod>(4);
    });
    EXPECT_TRUE(runtime.hasMethod("m"));
    runtime.installMethod("m", [] {
        return std::make_unique<active::FrequentSetsMethod>(8);
    });
    EXPECT_TRUE(runtime.hasMethod("m")); // replaced, still present
}

// -------------------------------------------------------------- sim edge

TEST(SimEdge, SemaphoreCountsAreConsistent)
{
    Simulator sim;
    sim::Semaphore sem(sim, 3);
    EXPECT_EQ(sem.availablePermits(), 3u);
    sim.spawn([](sim::Semaphore &s) -> Task<void> {
        co_await s.acquire();
        co_await s.acquire();
    }(sem));
    sim.run();
    EXPECT_EQ(sem.availablePermits(), 1u);
    sem.release();
    sem.release();
    EXPECT_EQ(sem.availablePermits(), 3u);
}

TEST(SimEdge, GateOpenIsIdempotent)
{
    Simulator sim;
    sim::Gate gate(sim);
    gate.open();
    gate.open();
    EXPECT_TRUE(gate.isOpen());
    bool passed = false;
    sim.spawn([](sim::Gate &g, bool &flag) -> Task<void> {
        co_await g.wait();
        flag = true;
    }(gate, passed));
    sim.run();
    EXPECT_TRUE(passed);
}

TEST(SimEdge, RunUntilAdvancesIdleClock)
{
    Simulator sim;
    EXPECT_FALSE(sim.runUntil(1000));
    EXPECT_EQ(sim.now(), 1000u);
    // Spawning after idling still works.
    bool ran = false;
    sim.spawn([](Simulator &s, bool &flag) -> Task<void> {
        co_await s.delay(10);
        flag = true;
    }(sim, ran));
    sim.run();
    EXPECT_TRUE(ran);
    EXPECT_EQ(sim.now(), 1010u);
}

// ------------------------------------------------------ generator edge

TEST(TransactionsEdge, DistinctSeedsDistinctData)
{
    apps::DatasetParams a;
    a.seed = 1;
    apps::DatasetParams b;
    b.seed = 2;
    apps::TransactionGenerator ga(a);
    apps::TransactionGenerator gb(b);
    EXPECT_NE(ga.chunk(0), gb.chunk(0));
}

TEST(TransactionsEdge, ItemIdsWithinCatalog)
{
    apps::DatasetParams params;
    params.catalog_items = 32;
    apps::TransactionGenerator gen(params);
    const auto chunk = gen.chunk(3);
    for (std::uint64_t r = 0; r < apps::kRecordsPerChunk; ++r) {
        const auto rec = apps::decodeRecord(std::span<const std::uint8_t>(
            chunk.data() + r * apps::TransactionRecord::kBytes,
            apps::TransactionRecord::kBytes));
        for (std::uint8_t i = 0; i < rec.item_count; ++i)
            ASSERT_LT(rec.items[i], params.catalog_items);
    }
}

} // namespace
} // namespace nasd
