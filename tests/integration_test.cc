/**
 * @file
 * Cross-stack integration: the point of a common object interface is
 * that several filesystem personalities coexist on the same drives.
 * These tests run NASD-NFS, AFS and Cheops/PFS side by side on one
 * drive set (separate partitions), verify isolation, quotas and
 * namespace independence, and run a small end-to-end mining job whose
 * counts are checked against a direct scan.
 */
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "apps/frequent_sets.h"
#include "apps/transactions.h"
#include "cheops/cheops.h"
#include "fs/afs/afs.h"
#include "fs/nfs/nasd_nfs.h"
#include "net/presets.h"
#include "pfs/pfs.h"
#include "sim/simulator.h"
#include "util/units.h"

namespace nasd {
namespace {

using sim::Simulator;
using sim::Task;
using util::kKB;
using util::kMB;

std::vector<std::uint8_t>
pattern(std::size_t n, std::uint8_t seed = 1)
{
    std::vector<std::uint8_t> v(n);
    for (std::size_t i = 0; i < n; ++i)
        v[i] = static_cast<std::uint8_t>(seed + i * 41);
    return v;
}

class IntegrationTest : public ::testing::Test
{
  protected:
    static constexpr int kDrives = 3;
    static constexpr PartitionId kNfsPart = 0;
    static constexpr PartitionId kPfsPart = 1;
    static constexpr PartitionId kAfsPart = 2;

    IntegrationTest()
    {
        for (int i = 0; i < kDrives; ++i) {
            drives.push_back(std::make_unique<NasdDrive>(
                sim, net,
                prototypeDriveConfig("nasd" + std::to_string(i), i + 1)));
            raw.push_back(drives.back().get());
        }
        // One drive set, three personalities on three partitions.
        // Format once, then create the partitions by hand (the
        // initialize() helpers format, so set up manually here).
        for (auto *d : raw) {
            runTask(sim, d->format());
            EXPECT_TRUE(d->store().createPartition(kNfsPart, 128 * kMB)
                            .ok());
            EXPECT_TRUE(d->store().createPartition(kPfsPart, 128 * kMB)
                            .ok());
            EXPECT_TRUE(d->store().createPartition(kAfsPart, 64 * kMB)
                            .ok());
        }
    }

    net::NetNode &
    addClientNode(const std::string &name)
    {
        return net.addNode(name, net::alphaStation255(), net::oc3Link(),
                           net::dceRpcCosts());
    }

    net::NetNode &
    addServerNode(const std::string &name)
    {
        return net.addNode(name, net::alphaStation500(), net::oc3Link(),
                           net::dceRpcCosts());
    }

    Simulator sim;
    net::Network net{sim};
    std::vector<std::unique_ptr<NasdDrive>> drives;
    std::vector<NasdDrive *> raw;
};

/** NASD-NFS file manager that attaches to pre-formatted drives. */
class AttachedNfsFm : public fs::NasdNfsFileManager
{
  public:
    using fs::NasdNfsFileManager::NasdNfsFileManager;
};

TEST_F(IntegrationTest, ThreePersonalitiesShareTheDrives)
{
    // NASD-NFS on partition 0. initialize() reformats, so give it its
    // own drives in other tests; here we only exercise Cheops+PFS and
    // a direct NASD client on separate partitions.
    auto &mgr_node = addServerNode("cheops-mgr");
    cheops::CheopsManager storage(sim, net, mgr_node, raw, kPfsPart);
    // NOTE: do not call initialize() (it would reformat); partitions
    // already exist.
    pfs::PfsManager pfs_manager(storage);
    auto &pfs_client_node = addClientNode("pfs-client");
    pfs::PfsClient pfs_client(net, pfs_client_node, pfs_manager, raw);

    auto handle =
        runFor(sim, pfs_client.open("dataset", true, true)).value();
    const auto pfs_data = pattern(3 * kMB, 2);
    ASSERT_TRUE(runFor(sim, pfs_client.write(handle, 0, pfs_data)).ok());

    // Direct NASD object on partition 0 via a plain client.
    CapabilityIssuer issuer(raw[0]->config().master_key, raw[0]->id());
    auto &direct_node = addClientNode("direct");
    NasdClient direct(net, direct_node, *raw[0]);
    CapabilityPublic pc;
    pc.partition = kNfsPart;
    pc.object_id = kPartitionControlObject;
    pc.rights = kRightCreate;
    CredentialFactory pcred(issuer.mint(pc));
    const ObjectId oid = runFor(sim, direct.create(pcred, 0)).value();
    CapabilityPublic po;
    po.partition = kNfsPart;
    po.object_id = oid;
    po.rights = kRightRead | kRightWrite;
    CredentialFactory cred(issuer.mint(po));
    const auto direct_data = pattern(256 * kKB, 3);
    ASSERT_TRUE(runFor(sim, direct.write(cred, 0, direct_data)).ok());

    // Both worlds read back intact.
    std::vector<std::uint8_t> out(3 * kMB);
    ASSERT_TRUE(runFor(sim, pfs_client.read(handle, 0, out)).ok());
    EXPECT_EQ(out, pfs_data);
    auto got = runFor(sim, direct.read(cred, 0, 256 * kKB));
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value(), direct_data);

    // Partition isolation: the PFS partition's usage grew, the NFS
    // partition holds exactly the direct object.
    for (auto *d : raw) {
        auto pfs_info = d->store().partitionInfo(kPfsPart).value();
        EXPECT_GT(pfs_info.used_bytes, 0u);
    }
    auto nfs_info = raw[0]->store().partitionInfo(kNfsPart).value();
    EXPECT_EQ(nfs_info.object_count, 1u);
}

TEST_F(IntegrationTest, CrossPartitionCapabilityIsUseless)
{
    CapabilityIssuer issuer(raw[0]->config().master_key, raw[0]->id());
    auto &node = addClientNode("attacker");
    NasdClient client(net, node, *raw[0]);

    // Create an object on partition 1.
    CapabilityPublic pc;
    pc.partition = kPfsPart;
    pc.object_id = kPartitionControlObject;
    pc.rights = kRightCreate;
    CredentialFactory pcred(issuer.mint(pc));
    const ObjectId oid = runFor(sim, client.create(pcred, 0)).value();
    CapabilityPublic po;
    po.partition = kPfsPart;
    po.object_id = oid;
    po.rights = kRightRead | kRightWrite;
    CredentialFactory good(issuer.mint(po));
    ASSERT_TRUE(runFor(sim, client.write(good, 0, pattern(kKB))).ok());

    // A capability minted for the same object id on ANOTHER partition
    // does not open this object (the partition is MAC'd).
    CapabilityPublic wrong = po;
    wrong.partition = kNfsPart;
    CredentialFactory bad(issuer.mint(wrong));
    auto r = runFor(sim, client.read(bad, 0, kKB));
    ASSERT_FALSE(r.ok()); // no such object in partition 0
}

TEST_F(IntegrationTest, QuotaIsPerPartition)
{
    CapabilityIssuer issuer(raw[0]->config().master_key, raw[0]->id());
    auto &node = addClientNode("filler");
    NasdClient client(net, node, *raw[0]);

    // Fill the small AFS partition to its quota...
    CapabilityPublic pc;
    pc.partition = kAfsPart;
    pc.object_id = kPartitionControlObject;
    pc.rights = kRightCreate;
    CredentialFactory pcred(issuer.mint(pc));
    const ObjectId big = runFor(sim, client.create(pcred, 0)).value();
    CapabilityPublic po;
    po.partition = kAfsPart;
    po.object_id = big;
    po.rights = kRightRead | kRightWrite;
    CredentialFactory cred(issuer.mint(po));
    const auto chunk = pattern(8 * kMB);
    for (int i = 0; i < 8; ++i)
        ASSERT_TRUE(
            runFor(sim, client.write(cred, i * 8ull * kMB, chunk)).ok());
    auto overflow = runFor(sim, client.write(cred, 64ull * kMB, chunk));
    ASSERT_FALSE(overflow.ok());
    EXPECT_EQ(overflow.error(), NasdStatus::kQuotaExceeded);

    // ...while the other partitions on the same drive still accept
    // writes (quota is per-partition, not per-drive).
    CapabilityPublic pc2;
    pc2.partition = kNfsPart;
    pc2.object_id = kPartitionControlObject;
    pc2.rights = kRightCreate;
    CredentialFactory pcred2(issuer.mint(pc2));
    const ObjectId other = runFor(sim, client.create(pcred2, 0)).value();
    CapabilityPublic po2;
    po2.partition = kNfsPart;
    po2.object_id = other;
    po2.rights = kRightWrite;
    CredentialFactory cred2(issuer.mint(po2));
    EXPECT_TRUE(runFor(sim, client.write(cred2, 0, chunk)).ok());
}

TEST_F(IntegrationTest, MiningPipelineEndToEnd)
{
    // 8 MB mining job over PFS; counts must equal a direct scan of
    // the generator output.
    auto &mgr_node = addServerNode("mgr");
    cheops::CheopsManager storage(sim, net, mgr_node, raw, kPfsPart);
    pfs::PfsManager manager(storage);

    apps::DatasetParams params;
    params.catalog_items = 64;
    apps::TransactionGenerator gen(params);

    auto &loader_node = addClientNode("loader");
    pfs::PfsClient loader(net, loader_node, manager, raw);
    auto file = runFor(sim, loader.open("sales", true, true)).value();
    apps::ItemCounts expected(params.catalog_items, 0);
    for (std::uint64_t c = 0; c < 4; ++c) {
        const auto chunk = gen.chunk(c);
        apps::mergeCounts(expected, apps::countOneItemsets(
                                        chunk, params.catalog_items));
        ASSERT_TRUE(
            runFor(sim, loader.write(file, c * apps::kChunkBytes, chunk)).ok());
    }

    // Two miners split the chunks.
    std::vector<apps::ItemCounts> partials(
        2, apps::ItemCounts(params.catalog_items, 0));
    std::vector<std::unique_ptr<pfs::PfsClient>> miners;
    for (int i = 0; i < 2; ++i) {
        miners.push_back(std::make_unique<pfs::PfsClient>(
            net, addClientNode("miner" + std::to_string(i)), manager,
            raw));
    }
    for (int i = 0; i < 2; ++i) {
        sim.spawn([](pfs::PfsClient &c, pfs::PfsHandle f,
                     std::uint64_t first, std::uint32_t catalog,
                     apps::ItemCounts &out) -> Task<void> {
            std::vector<std::uint8_t> chunk(apps::kChunkBytes);
            for (std::uint64_t idx = first; idx < 4; idx += 2) {
                auto r = co_await c.read(f, idx * apps::kChunkBytes,
                                         chunk);
                (void)r;
                apps::mergeCounts(out,
                                  apps::countOneItemsets(chunk, catalog));
            }
        }(*miners[i], file, static_cast<std::uint64_t>(i),
          params.catalog_items, partials[i]));
    }
    sim.run();

    apps::ItemCounts merged(params.catalog_items, 0);
    apps::mergeCounts(merged, partials[0]);
    apps::mergeCounts(merged, partials[1]);
    EXPECT_EQ(merged, expected);
}

TEST_F(IntegrationTest, ManyClientsContendOnOneObjectSafely)
{
    // 6 clients write disjoint 64 KB slices of one object in parallel,
    // then each verifies the whole object.
    CapabilityIssuer issuer(raw[0]->config().master_key, raw[0]->id());
    auto &setup_node = addClientNode("setup");
    NasdClient setup(net, setup_node, *raw[0]);
    CapabilityPublic pc;
    pc.partition = kNfsPart;
    pc.object_id = kPartitionControlObject;
    pc.rights = kRightCreate;
    CredentialFactory pcred(issuer.mint(pc));
    const ObjectId oid = runFor(sim, setup.create(pcred, 0)).value();

    constexpr int kClients = 6;
    std::vector<std::unique_ptr<NasdClient>> clients;
    std::vector<std::unique_ptr<CredentialFactory>> creds;
    for (int i = 0; i < kClients; ++i) {
        clients.push_back(std::make_unique<NasdClient>(
            net, addClientNode("writer" + std::to_string(i)), *raw[0]));
        CapabilityPublic po;
        po.partition = kNfsPart;
        po.object_id = oid;
        po.rights = kRightRead | kRightWrite;
        creds.push_back(std::make_unique<CredentialFactory>(
            issuer.mint(po)));
    }
    for (int i = 0; i < kClients; ++i) {
        sim.spawn([](NasdClient &c, CredentialFactory &cred,
                     int index) -> Task<void> {
            const auto slice =
                pattern(64 * kKB, static_cast<std::uint8_t>(index + 1));
            auto w = co_await c.write(cred,
                                      static_cast<std::uint64_t>(index) *
                                          64 * kKB,
                                      slice);
            (void)w;
        }(*clients[i], *creds[i], i));
    }
    sim.run();

    for (int i = 0; i < kClients; ++i) {
        auto got = runFor(sim, clients[i]->read(
            *creds[i], static_cast<std::uint64_t>(i) * 64 * kKB,
            64 * kKB));
        ASSERT_TRUE(got.ok());
        EXPECT_EQ(got.value(),
                  pattern(64 * kKB, static_cast<std::uint8_t>(i + 1)))
            << "slice " << i;
    }
}

TEST_F(IntegrationTest, AfsAndDirectClientsInterleave)
{
    // An AFS volume on its partition while a direct client works on
    // another: both make progress and neither corrupts the other.
    auto &fm_node = addServerNode("afs-fm");
    // AFS initialize() formats drives; build it on a dedicated set.
    std::vector<std::unique_ptr<NasdDrive>> afs_drives;
    std::vector<NasdDrive *> afs_raw;
    for (int i = 0; i < 2; ++i) {
        afs_drives.push_back(std::make_unique<NasdDrive>(
            sim, net,
            prototypeDriveConfig("afs-nasd" + std::to_string(i),
                                 10 + i)));
        afs_raw.push_back(afs_drives.back().get());
    }
    fs::AfsFileManager fm(sim, net, fm_node, afs_raw, 0, 64 * kMB);
    runTask(sim, fm.initialize(256 * kMB));
    auto &user_node = addClientNode("afs-user");
    fs::AfsClient user(net, user_node, fm, afs_raw, 1);

    const auto fid =
        runFor(sim, user.create(fm.rootFid(), "notes.txt")).value();
    ASSERT_TRUE(runFor(sim, user.write(fid, 0, pattern(32 * kKB, 8))).ok());

    // Direct traffic on the original drive set meanwhile.
    CapabilityIssuer issuer(raw[0]->config().master_key, raw[0]->id());
    NasdClient direct(net, addClientNode("direct2"), *raw[0]);
    CapabilityPublic pc;
    pc.partition = kNfsPart;
    pc.object_id = kPartitionControlObject;
    pc.rights = kRightCreate;
    CredentialFactory pcred(issuer.mint(pc));
    const ObjectId oid = runFor(sim, direct.create(pcred, 0)).value();
    CapabilityPublic po;
    po.partition = kNfsPart;
    po.object_id = oid;
    po.rights = kRightRead | kRightWrite;
    CredentialFactory cred(issuer.mint(po));
    ASSERT_TRUE(runFor(sim, direct.write(cred, 0, pattern(16 * kKB, 4))).ok());

    std::vector<std::uint8_t> afs_out(32 * kKB);
    ASSERT_TRUE(runFor(sim, user.read(fid, 0, afs_out)).ok());
    EXPECT_EQ(afs_out, pattern(32 * kKB, 8));
    auto direct_out = runFor(sim, direct.read(cred, 0, 16 * kKB));
    ASSERT_TRUE(direct_out.ok());
    EXPECT_EQ(direct_out.value(), pattern(16 * kKB, 4));
}

} // namespace
} // namespace nasd
