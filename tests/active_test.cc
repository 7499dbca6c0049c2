/**
 * @file
 * Tests for Active Disks: method installation, capability-checked
 * scans, result correctness vs client-side counting, and the traffic
 * reduction that is the whole point.
 */
#include <gtest/gtest.h>

#include <optional>

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

class ActiveTest : public ::testing::Test
{
  protected:
    ActiveTest()
        : drive(sim, net, prototypeDriveConfig("nasd0", 1)),
          issuer(drive.config().master_key, 1),
          client_node(net.addNode("client", net::alphaStation255(),
                                  net::tenMbitEthernetLink(),
                                  net::dceRpcCosts())),
          runtime(drive), active_client(net, client_node, runtime),
          nasd_client(net, client_node, drive)
    {
        run(drive.format());
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

    void
    run(Task<void> task)
    {
        sim.spawn(std::move(task));
        sim.run();
    }

    template <typename T>
    T
    runFor(Task<T> task)
    {
        std::optional<T> result;
        sim.spawn([](Task<T> t, std::optional<T> &out) -> Task<void> {
            out = co_await std::move(t);
        }(std::move(task), result));
        sim.run();
        return std::move(*result);
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
            runFor(nasd_client.create(part_cred, 0)).value();

        apps::TransactionGenerator gen(params);
        CredentialFactory cred(objectCap(oid));
        for (std::uint64_t i = 0; i < chunks; ++i) {
            const auto chunk = gen.chunk(i);
            EXPECT_TRUE(runFor(nasd_client.write(
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
    auto r = runFor(active_client.scan(cred, "nonexistent"));
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error(), NasdStatus::kBadRequest);
}

TEST_F(ActiveTest, ScanRequiresCapability)
{
    const ObjectId oid = loadData(1);
    Capability cap = objectCap(oid);
    cap.private_key[0] ^= 1; // forged
    CredentialFactory cred(cap);
    auto r = runFor(active_client.scan(cred, "frequent-sets"));
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
    auto result = runFor(active_client.scan(cred, "frequent-sets"));
    ASSERT_TRUE(result.ok());
    const auto counts = FrequentSetsMethod::decodeResult(result.value());
    EXPECT_EQ(counts, expected);
    EXPECT_EQ(runtime.bytesScanned(), chunks * apps::kChunkBytes);
}

TEST_F(ActiveTest, OnlyResultCrossesTheNetwork)
{
    const ObjectId oid = loadData(4); // 8 MB of data
    CredentialFactory cred(objectCap(oid));
    const auto bytes_before = client_node.bytes_received.value();
    auto result = runFor(active_client.scan(cred, "frequent-sets"));
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
    auto scan = runFor(active_client.scan(cred, "frequent-sets"));
    ASSERT_TRUE(scan.ok());
    const sim::Tick active_time = sim.now() - t0;

    const sim::Tick t1 = sim.now();
    CredentialFactory read_cred(objectCap(oid));
    for (int i = 0; i < 4; ++i) {
        auto data = runFor(nasd_client.read(
            read_cred, i * apps::kChunkBytes, apps::kChunkBytes));
        ASSERT_TRUE(data.ok());
    }
    const sim::Tick ship_time = sim.now() - t1;

    EXPECT_LT(active_time * 3, ship_time);
}

} // namespace
} // namespace nasd::active
