/**
 * @file
 * Tests for Active Disks: method installation, capability-checked
 * scans, result correctness vs client-side counting, and the traffic
 * reduction that is the whole point.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "active/active.h"
#include "apps/frequent_sets.h"
#include "apps/transactions.h"
#include "net/presets.h"
#include "sim/simulator.h"
#include "util/units.h"

namespace nasd::active {
namespace {

using sim::Simulator;
using sim::Task;
using util::kMB;

constexpr std::uint64_t kScanChunk = ActiveDiskRuntime::kScanChunkBytes;

class ActiveTest : public ::testing::Test
{
  protected:
    explicit ActiveTest(DriveConfig config = prototypeDriveConfig("nasd0", 1))
        : drive(sim, net, std::move(config)),
          issuer(drive.config().master_key, 1),
          client_node(net.addNode("client", net::alphaStation255(),
                                  net::tenMbitEthernetLink(),
                                  net::dceRpcCosts())),
          runtime(drive), active_client(net, client_node, runtime),
          nasd_client(net, client_node, drive)
    {
        runTask(sim, drive.format());
        EXPECT_TRUE(drive.store().createPartition(0, 512 * kMB).ok());
        runtime.installMethod("frequent-sets", [this]() {
            return std::make_unique<FrequentSetsMethod>(
                params.catalog_items);
        });
    }

    ~ActiveTest() override
    {
        // createPartition() spawns detached metadata write-behind
        // processes (BlockDevice::writeBack). A test body that
        // never runs the simulator (e.g. MethodInstallAndLookup)
        // leaves them suspended inside DiskModel, and members are
        // destroyed in reverse declaration order: ~NasdDrive frees the
        // DiskModels first, then ~Simulator (declared first, destroyed
        // last) unwinds the frames, whose ScopedPermit destructors
        // release into the freed semaphores — a use-after-free under
        // ASan. Drain the event queue while everything is still alive.
        sim.run();
    }

    /** Load n chunks of transactions into a fresh object. */
    ObjectId
    loadData(std::uint64_t chunks)
    {
        CapabilityPublic pub;
        pub.partition = 0;
        pub.object_id = kPartitionControlObject;
        pub.rights = kRightCreate;
        CredentialFactory part_cred(issuer.mint(pub));
        const ObjectId oid =
            runFor(sim, nasd_client.create(part_cred, 0)).value();

        apps::TransactionGenerator gen(params);
        CredentialFactory cred(objectCap(oid));
        for (std::uint64_t i = 0; i < chunks; ++i) {
            const auto chunk = gen.chunk(i);
            EXPECT_TRUE(runFor(sim, nasd_client.write(
                            cred, i * apps::kChunkBytes, chunk))
                            .ok());
        }
        return oid;
    }

    Capability
    objectCap(ObjectId oid, std::uint8_t rights = kRightRead | kRightWrite |
                                                  kRightGetAttr)
    {
        CapabilityPublic pub;
        pub.partition = 0;
        pub.object_id = oid;
        pub.rights = rights;
        return issuer.mint(pub);
    }

    apps::DatasetParams params;
    Simulator sim;
    net::Network net{sim};
    NasdDrive drive;
    CapabilityIssuer issuer;
    net::NetNode &client_node;
    ActiveDiskRuntime runtime;
    ActiveDiskClient active_client;
    NasdClient nasd_client;
};

TEST_F(ActiveTest, MethodInstallAndLookup)
{
    EXPECT_TRUE(runtime.hasMethod("frequent-sets"));
    EXPECT_FALSE(runtime.hasMethod("nonexistent"));
}

TEST_F(ActiveTest, UnknownMethodRejected)
{
    const ObjectId oid = loadData(1);
    CredentialFactory cred(objectCap(oid));
    auto r = runFor(sim, active_client.scan(cred, "nonexistent"));
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error(), NasdStatus::kBadRequest);
}

TEST_F(ActiveTest, ScanRequiresCapability)
{
    const ObjectId oid = loadData(1);
    Capability cap = objectCap(oid);
    cap.private_key[0] ^= 1; // forged
    CredentialFactory cred(cap);
    auto r = runFor(sim, active_client.scan(cred, "frequent-sets"));
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error(), NasdStatus::kBadCapability);
}

TEST_F(ActiveTest, OnDriveCountsMatchClientSideCounts)
{
    const std::uint64_t chunks = 3;
    const ObjectId oid = loadData(chunks);

    // Expected: client-side scan of the same data.
    apps::TransactionGenerator gen(params);
    apps::ItemCounts expected(params.catalog_items, 0);
    for (std::uint64_t i = 0; i < chunks; ++i) {
        apps::mergeCounts(expected,
                          apps::countOneItemsets(gen.chunk(i),
                                                 params.catalog_items));
    }

    CredentialFactory cred(objectCap(oid));
    auto result = runFor(sim, active_client.scan(cred, "frequent-sets"));
    ASSERT_TRUE(result.ok());
    const auto counts = FrequentSetsMethod::decodeResult(result.value());
    EXPECT_EQ(counts, expected);
    EXPECT_EQ(runtime.bytesScanned(), chunks * apps::kChunkBytes);
}

TEST_F(ActiveTest, OnDriveCountsMatchClientSideCountsOverAHoleAndAShortTail)
{
    // Transactions in [0, 2 MB) and a short run of them at 3 MB + 4 KB;
    // the bytes between were never written (zeros in the drive's
    // image), and the object then grows past its last unit without
    // allocating (a hole the store hands over as zeros) to a size that
    // ends inside a record.
    CapabilityPublic pub;
    pub.partition = 0;
    pub.object_id = kPartitionControlObject;
    pub.rights = kRightCreate;
    CredentialFactory part_cred(issuer.mint(pub));
    const ObjectId oid = runFor(sim, nasd_client.create(part_cred, 0)).value();
    CredentialFactory cred(objectCap(oid));
    apps::TransactionGenerator gen(params);
    const auto chunk = gen.chunk(0);
    ASSERT_TRUE(runFor(sim, nasd_client.write(cred, 0, chunk)).ok());
    const std::uint64_t tail_at = 3 * kMB + 4096;
    const auto records = gen.chunk(1);
    const auto tail = std::span(records).first(
        1000 * apps::TransactionRecord::kBytes + 23);
    ASSERT_TRUE(runFor(sim, nasd_client.write(cred, tail_at, tail)).ok());
    const std::uint64_t size = tail_at + tail.size() + 100'001;
    SetAttrRequest grow;
    grow.truncate_size = size;
    ASSERT_TRUE(runFor(sim, drive.store().setAttributes(0, oid, grow)).ok());

    auto bytes = runFor(sim, nasd_client.read(cred, 0, size));
    ASSERT_TRUE(bytes.ok());
    ASSERT_EQ(bytes.value().size(), size);
    const auto expected =
        apps::countOneItemsets(bytes.value(), params.catalog_items);

    auto result = runFor(sim, active_client.scan(cred, "frequent-sets"));
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(FrequentSetsMethod::decodeResult(result.value()), expected);
    EXPECT_EQ(runtime.bytesScanned(), size);
    EXPECT_GT(expected[1], 0u); // the planted pair's items were counted
}

TEST_F(ActiveTest, OnlyResultCrossesTheNetwork)
{
    const ObjectId oid = loadData(4); // 8 MB of data
    CredentialFactory cred(objectCap(oid));
    const auto bytes_before = client_node.bytes_received.value();
    auto result = runFor(sim, active_client.scan(cred, "frequent-sets"));
    ASSERT_TRUE(result.ok());
    const auto received = client_node.bytes_received.value() - bytes_before;
    // The result (one count table) is tiny compared to the 8 MB
    // scanned at the drive.
    EXPECT_LT(received, 64 * 1024u);
}

TEST_F(ActiveTest, FasterThanShippingDataOverSlowEthernet)
{
    // The Section 6 argument: on 10 Mb/s Ethernet, moving 8 MB to the
    // client takes far longer than scanning it at the drive.
    const ObjectId oid = loadData(4);
    CredentialFactory cred(objectCap(oid));

    const sim::Tick t0 = sim.now();
    auto scan = runFor(sim, active_client.scan(cred, "frequent-sets"));
    ASSERT_TRUE(scan.ok());
    const sim::Tick active_time = sim.now() - t0;

    const sim::Tick t1 = sim.now();
    CredentialFactory read_cred(objectCap(oid));
    for (int i = 0; i < 4; ++i) {
        auto data = runFor(sim, nasd_client.read(
            read_cred, i * apps::kChunkBytes, apps::kChunkBytes));
        ASSERT_TRUE(data.ok());
    }
    const sim::Tick ship_time = sim.now() - t1;

    EXPECT_LT(active_time * 3, ship_time);
}

/** A test method at a chosen drive-CPU cost that logs each chunk it
 *  is handed: its leading 8 bytes and its size. */
class ProbeMethod : public ActiveMethod
{
  public:
    struct Seen
    {
        std::uint64_t lead = 0;
        std::uint64_t size = 0;
    };

    ProbeMethod(double cycles_per_byte, std::vector<Seen> *log)
        : cycles_per_byte_(cycles_per_byte), log_(log)
    {}

    void
    consume(std::span<const std::uint8_t> chunk) override
    {
        Seen s;
        s.size = chunk.size();
        std::memcpy(&s.lead, chunk.data(),
                    std::min(sizeof s.lead, chunk.size()));
        log_->push_back(s);
    }

    std::vector<std::uint8_t> result() const override { return {}; }
    double cyclesPerByte() const override { return cycles_per_byte_; }

  private:
    double cycles_per_byte_;
    std::vector<Seen> *log_;
};

/** Scans over a drive whose 1 MB data cache cannot hold the object,
 *  so every chunk comes off the media. */
class ActivePipelineTest : public ActiveTest
{
  protected:
    ActivePipelineTest() : ActiveTest(smallCacheDrive())
    {
        for (const double cpb : {0.0, 64.0}) {
            runtime.installMethod(cpb == 0 ? "read-only" : "kernel-64",
                                  [this, cpb] {
                                      return std::make_unique<ProbeMethod>(
                                          cpb, &seen);
                                  });
        }
    }

    static DriveConfig
    smallCacheDrive()
    {
        DriveConfig config = prototypeDriveConfig("nasd0", 1);
        config.store.data_cache_bytes = 1 * kMB;
        return config;
    }

    /** An object of @p size bytes whose every 8-byte word holds its
     *  own offset. */
    ObjectId
    loadOffsets(std::uint64_t size)
    {
        CapabilityPublic pub;
        pub.partition = 0;
        pub.object_id = kPartitionControlObject;
        pub.rights = kRightCreate;
        CredentialFactory part_cred(issuer.mint(pub));
        const ObjectId oid =
            runFor(sim, nasd_client.create(part_cred, 0)).value();
        std::vector<std::uint8_t> data(size);
        for (std::uint64_t off = 0; off + 8 <= size; off += 8)
            std::memcpy(data.data() + off, &off, 8);
        CredentialFactory cred(objectCap(oid));
        for (std::uint64_t off = 0; off < size; off += apps::kChunkBytes) {
            const auto piece = std::span(data).subspan(
                off, std::min(apps::kChunkBytes, size - off));
            EXPECT_TRUE(runFor(sim, nasd_client.write(cred, off, piece)).ok());
        }
        return oid;
    }

    /** The drive-side handler alone, so the response's byte count is
     *  visible; spawned, with @p out filled when it returns. */
    void
    spawnScan(ObjectId oid, const std::string &method,
              std::optional<ScanResponse> &out)
    {
        CredentialFactory cred(objectCap(oid));
        RequestParams req{OpCode::kReadData, 0, oid, 0, 0};
        sim.spawn([](Task<ScanResponse> t, Simulator &s,
                     sim::CpuResource &cpu, std::optional<ScanResponse> &o,
                     std::uint64_t &busy) -> Task<void> {
            o.emplace(co_await std::move(t));
            busy = cpu.busyNsUpTo(s.now());
        }(runtime.serveScan(cred.forRequest(req), req, method), sim,
                   drive.node().cpu(), out, busy_at_return));
    }

    /** Simulated time one client scan of @p oid takes. */
    sim::Tick
    timeScan(ObjectId oid, const std::string &method)
    {
        CredentialFactory cred(objectCap(oid));
        const sim::Tick t0 = sim.now();
        EXPECT_TRUE(runFor(sim, active_client.scan(cred, method)).ok());
        return sim.now() - t0;
    }

    /** Step the simulator until scans have consumed @p bytes. */
    void
    runUntilScanned(std::uint64_t bytes)
    {
        for (int step = 0; step < 10000 && runtime.bytesScanned() < bytes;
             ++step)
            sim.runUntil(sim.now() + 1'000'000);
    }

    std::vector<ProbeMethod::Seen> seen;
    std::uint64_t busy_at_return = 0;
};

TEST_F(ActivePipelineTest, KernelHidesTheMediaReads)
{
    const ObjectId oid = loadData(2); // 4 MB: 8 scan chunks
    const std::uint64_t chunks = 2 * apps::kChunkBytes / kScanChunk;

    // The reads alone, then the reads under a CPU-bound kernel.
    const sim::Tick reads = timeScan(oid, "read-only");
    auto &cpu = drive.node().cpu();
    const std::uint64_t busy0 = cpu.busyNsUpTo(sim.now());
    const sim::Tick scan = timeScan(oid, "kernel-64");
    const std::uint64_t busy = cpu.busyNsUpTo(sim.now()) - busy0;
    ASSERT_GT(busy, static_cast<std::uint64_t>(reads)); // CPU-bound

    // Pipelined, only the first chunk's read is exposed; serialized,
    // every read adds to the drive CPU's busy time. One more chunk's
    // share of the read-only scan covers the RPC.
    EXPECT_LE(scan, busy + 2 * reads / chunks);
    EXPECT_EQ(seen.size(), 2 * chunks);
}

TEST_F(ActivePipelineTest, ChunksArriveInOffsetOrderWithAShortTail)
{
    const std::uint64_t tail = 3 * kScanChunk / 10 / 8 * 8;
    const std::uint64_t size = 3 * kScanChunk + tail; // ~3.3 chunks
    const ObjectId oid = loadOffsets(size);

    std::optional<ScanResponse> resp;
    spawnScan(oid, "kernel-64", resp);
    sim.run();
    ASSERT_TRUE(resp.has_value());
    ASSERT_EQ(resp->status, NasdStatus::kOk);
    EXPECT_EQ(resp->bytes_scanned, size);
    EXPECT_EQ(runtime.bytesScanned(), size);
    ASSERT_EQ(seen.size(), 4u);
    for (std::uint64_t i = 0; i < seen.size(); ++i) {
        EXPECT_EQ(seen[i].lead, i * kScanChunk) << "chunk " << i;
        EXPECT_EQ(seen[i].size, i < 3 ? kScanChunk : tail) << "chunk " << i;
    }
}

TEST_F(ActivePipelineTest, RemovedMidScanReturnsTheStoreErrorAfterJoining)
{
    const std::uint64_t size = 8 * kScanChunk;
    const ObjectId oid = loadOffsets(size);

    std::optional<ScanResponse> resp;
    spawnScan(oid, "kernel-64", resp);
    runUntilScanned(2 * kScanChunk);
    ASSERT_FALSE(resp.has_value());
    sim.spawn([](Task<StoreResult<void>> t) -> Task<void> {
        EXPECT_TRUE((co_await std::move(t)).ok());
    }(drive.store().removeObject(0, oid)));
    sim.run();

    ASSERT_TRUE(resp.has_value());
    EXPECT_EQ(resp->status, NasdStatus::kNoSuchObject);
    EXPECT_GE(resp->bytes_scanned, 2 * kScanChunk);
    EXPECT_LT(resp->bytes_scanned, size);
    // The kernel stage was joined: the drive CPU did no scan work
    // after the handler returned.
    EXPECT_EQ(drive.node().cpu().busyNsUpTo(sim.now()), busy_at_return);
}

TEST_F(ActivePipelineTest,
       RemovedMidInPlaceScanReturnsTheStoreErrorAfterJoining)
{
    // As above, with the method that counts pieces where they lie.
    const std::uint64_t size = 8 * kScanChunk;
    const ObjectId oid = loadOffsets(size);

    std::optional<ScanResponse> resp;
    spawnScan(oid, "frequent-sets", resp);
    runUntilScanned(2 * kScanChunk);
    ASSERT_FALSE(resp.has_value());
    sim.spawn([](Task<StoreResult<void>> t) -> Task<void> {
        EXPECT_TRUE((co_await std::move(t)).ok());
    }(drive.store().removeObject(0, oid)));
    sim.run();

    ASSERT_TRUE(resp.has_value());
    EXPECT_EQ(resp->status, NasdStatus::kNoSuchObject);
    EXPECT_GE(resp->bytes_scanned, 2 * kScanChunk);
    EXPECT_LT(resp->bytes_scanned, size);
    EXPECT_TRUE(resp->result.empty());
    EXPECT_EQ(drive.node().cpu().busyNsUpTo(sim.now()), busy_at_return);
}

TEST_F(ActivePipelineTest, CrashMidInPlaceScanRejectsTheScan)
{
    const std::uint64_t size = 8 * kScanChunk;
    const ObjectId oid = loadOffsets(size);

    std::optional<ScanResponse> resp;
    spawnScan(oid, "frequent-sets", resp);
    runUntilScanned(2 * kScanChunk);
    ASSERT_FALSE(resp.has_value());
    drive.crash();
    sim.run();

    ASSERT_TRUE(resp.has_value());
    EXPECT_EQ(resp->status, NasdStatus::kDriveUnavailable);
    EXPECT_LT(resp->bytes_scanned, size);
    EXPECT_TRUE(resp->result.empty());
}

TEST_F(ActivePipelineTest, CrashMidScanRejectsTheScan)
{
    const std::uint64_t size = 8 * kScanChunk;
    const ObjectId oid = loadOffsets(size);

    std::optional<ScanResponse> resp;
    spawnScan(oid, "kernel-64", resp);
    runUntilScanned(2 * kScanChunk);
    ASSERT_FALSE(resp.has_value());
    drive.crash();
    sim.run();

    ASSERT_TRUE(resp.has_value());
    EXPECT_EQ(resp->status, NasdStatus::kDriveUnavailable);
    EXPECT_LT(resp->bytes_scanned, size);
    EXPECT_TRUE(resp->result.empty());
}

} // namespace
} // namespace nasd::active
