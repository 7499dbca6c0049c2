/**
 * @file
 * Tests for the NFS layer: the baseline store-and-forward server and
 * the NASD-NFS port (capability piggybacking, direct data path,
 * capability refresh after revocation).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <span>
#include <vector>

#include "disk/disk_model.h"
#include "disk/params.h"
#include "disk/striping.h"
#include "fs/nfs/nasd_nfs.h"
#include "fs/nfs/nfs_client.h"
#include "fs/nfs/nfs_server.h"
#include "net/presets.h"
#include "sim/simulator.h"
#include "util/units.h"

namespace nasd::fs {
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
        v[i] = static_cast<std::uint8_t>(seed + i * 17);
    return v;
}

// ---------------------------------------------------------- baseline NFS

class NfsBaselineTest : public ::testing::Test
{
  protected:
    NfsBaselineTest()
        : server_node(net.addNode("server", net::alphaStation500(),
                                  net::oc3Link(), net::dceRpcCosts())),
          client_node(net.addNode("client", net::alphaStation255(),
                                  net::oc3Link(), net::dceRpcCosts())),
          d0(sim, disk::cheetahParams()), d1(sim, disk::cheetahParams()),
          stripe(sim, {&d0, &d1}, 32 * kKB),
          fs(sim, stripe, &server_node.cpu()), server(sim, server_node),
          client(net, client_node, server)
    {
        runTask(sim, fs.format());
        volume = server.addVolume(fs);
    }

    Simulator sim;
    net::Network net{sim};
    net::NetNode &server_node;
    net::NetNode &client_node;
    disk::DiskModel d0;
    disk::DiskModel d1;
    disk::StripingDriver stripe;
    FfsFileSystem fs;
    NfsServer server;
    NfsClient client;
    std::uint32_t volume = 0;
};

TEST_F(NfsBaselineTest, CreateLookupRoundTrip)
{
    const auto root = server.rootHandle(volume);
    auto made = runFor(sim, client.create(root, "file.txt"));
    ASSERT_TRUE(made.ok());
    auto found = runFor(sim, client.lookup(root, "file.txt"));
    ASSERT_TRUE(found.ok());
    EXPECT_EQ(found.value(), made.value());
}

TEST_F(NfsBaselineTest, ReadWriteThroughServer)
{
    const auto root = server.rootHandle(volume);
    const auto fh = runFor(sim, client.create(root, "data")).value();
    const auto data = pattern(100 * kKB);
    ASSERT_TRUE(runFor(sim, client.write(fh, 0, data)).ok());

    std::vector<std::uint8_t> out(100 * kKB);
    auto n = runFor(sim, client.read(fh, 0, out));
    ASSERT_TRUE(n.ok());
    EXPECT_EQ(n.value(), 100 * kKB);
    EXPECT_EQ(out, data);
    // Every byte crossed the server: its CPU did protocol + FS work.
    EXPECT_GT(server_node.cpu().instructionsRetired(), 1000000u);
}

TEST_F(NfsBaselineTest, GetattrAndSetattr)
{
    const auto root = server.rootHandle(volume);
    const auto fh = runFor(sim, client.create(root, "f")).value();
    ASSERT_TRUE(runFor(sim, client.setattr(fh, 0600, 10, 20)).ok());
    auto attrs = runFor(sim, client.getattr(fh));
    ASSERT_TRUE(attrs.ok());
    EXPECT_EQ(attrs.value().mode, 0600u);
    EXPECT_EQ(attrs.value().uid, 10u);
}

TEST_F(NfsBaselineTest, MkdirReaddirRemove)
{
    const auto root = server.rootHandle(volume);
    const auto sub = runFor(sim, client.mkdir(root, "dir")).value();
    (void)runFor(sim, client.create(sub, "a"));
    (void)runFor(sim, client.create(sub, "b"));
    auto listing = runFor(sim, client.readdir(sub));
    ASSERT_TRUE(listing.ok());
    EXPECT_EQ(listing.value().size(), 2u);

    ASSERT_TRUE(runFor(sim, client.remove(sub, "a")).ok());
    listing = runFor(sim, client.readdir(sub));
    EXPECT_EQ(listing.value().size(), 1u);
}

TEST_F(NfsBaselineTest, ResolveWalksPath)
{
    const auto root = server.rootHandle(volume);
    const auto a = runFor(sim, client.mkdir(root, "a")).value();
    const auto b = runFor(sim, client.mkdir(a, "b")).value();
    const auto f = runFor(sim, client.create(b, "leaf")).value();
    auto resolved = runFor(sim, client.resolve(volume, "/a/b/leaf"));
    ASSERT_TRUE(resolved.ok());
    EXPECT_EQ(resolved.value(), f);
    (void)b;
}

TEST_F(NfsBaselineTest, SmallTransferUnitsSplitLargeReads)
{
    const auto root = server.rootHandle(volume);
    const auto fh = runFor(sim, client.create(root, "big")).value();
    ASSERT_TRUE(runFor(sim, client.write(fh, 0, pattern(256 * kKB))).ok());
    const auto ops_before = server.opsServed();
    std::vector<std::uint8_t> out(256 * kKB);
    (void)runFor(sim, client.read(fh, 0, out));
    // 256 KB at rsize 8 KB = 32 wire reads.
    EXPECT_EQ(server.opsServed() - ops_before, 32u);
}

// -------------------------------------------------------------- NASD-NFS

class NasdNfsTest : public ::testing::Test
{
  protected:
    static constexpr int kDrives = 2;

    NasdNfsTest()
        : fm_node(net.addNode("fm", net::alphaStation500(), net::oc3Link(),
                              net::dceRpcCosts())),
          client_node(net.addNode("client", net::alphaStation255(),
                                  net::oc3Link(), net::dceRpcCosts()))
    {
        for (int i = 0; i < kDrives; ++i) {
            drives.push_back(std::make_unique<NasdDrive>(
                sim, net,
                prototypeDriveConfig("nasd" + std::to_string(i), i + 1)));
        }
        std::vector<NasdDrive *> raw;
        for (auto &d : drives)
            raw.push_back(d.get());
        fm = std::make_unique<NasdNfsFileManager>(sim, net, fm_node, raw,
                                                  0);
        runTask(sim, fm->initialize(512 * kMB));
        client = std::make_unique<NasdNfsClient>(net, client_node, *fm,
                                                 raw);
    }

    Simulator sim;
    net::Network net{sim};
    net::NetNode &fm_node;
    net::NetNode &client_node;
    std::vector<std::unique_ptr<NasdDrive>> drives;
    std::unique_ptr<NasdNfsFileManager> fm;
    std::unique_ptr<NasdNfsClient> client;
};

TEST_F(NasdNfsTest, CreateWriteReadRoundTrip)
{
    const auto root = fm->rootHandle();
    auto fh = runFor(sim, client->create(root, "data"));
    ASSERT_TRUE(fh.ok());
    const auto data = pattern(200 * kKB);
    ASSERT_TRUE(runFor(sim, client->write(fh.value(), 0, data)).ok());
    std::vector<std::uint8_t> out(200 * kKB);
    auto n = runFor(sim, client->read(fh.value(), 0, out));
    ASSERT_TRUE(n.ok());
    EXPECT_EQ(out, data);
}

TEST_F(NasdNfsTest, ConcurrentCreatesInOneDirectoryKeepBoth)
{
    // Two clients create in the root at once: the namespace core runs
    // one mutation at a time, so the second store keeps the first
    // entry and no object is left unnamed.
    const auto objects = [&] {
        std::size_t n = 0;
        for (auto &d : drives)
            n += runFor(sim, d->store().listObjects(0)).value().size();
        return n;
    };
    const std::size_t before = objects();
    const auto root = fm->rootHandle();
    NasdNfsClient other(net, client_node, *fm, {drives[0].get(),
                                                drives[1].get()});
    std::optional<bool> a_ok, b_ok;
    const auto create = [](NasdNfsClient &c, NasdNfsFh dir, std::string name,
                           std::optional<bool> &ok) -> Task<void> {
        const auto made = co_await c.create(dir, std::move(name));
        ok = made.ok();
    };
    sim.spawn(create(*client, root, "a", a_ok));
    sim.spawn(create(other, root, "b", b_ok));
    sim.run();
    ASSERT_EQ(a_ok, true);
    ASSERT_EQ(b_ok, true);
    auto listing = runFor(sim, client->readdir(root));
    ASSERT_TRUE(listing.ok());
    std::vector<std::string> names;
    for (const auto &e : listing.value())
        names.push_back(e.name);
    std::ranges::sort(names);
    EXPECT_EQ(names, (std::vector<std::string>{"a", "b"}));
    EXPECT_EQ(objects(), before + 2);
}

TEST_F(NasdNfsTest, DataPathBypassesFileManager)
{
    const auto root = fm->rootHandle();
    const auto fh = runFor(sim, client->create(root, "direct")).value();
    const auto data = pattern(512 * kKB);
    ASSERT_TRUE(runFor(sim, client->write(fh, 0, data)).ok());

    const auto fm_calls_before = client->fmCalls();
    std::vector<std::uint8_t> out(512 * kKB);
    (void)runFor(sim, client->read(fh, 0, out));
    // The capability is cached from create: zero FM involvement.
    EXPECT_EQ(client->fmCalls(), fm_calls_before);
}

TEST_F(NasdNfsTest, RoundRobinPlacementUsesAllDrives)
{
    const auto root = fm->rootHandle();
    std::vector<NasdNfsFh> handles;
    for (int i = 0; i < 4; ++i) {
        handles.push_back(
            runFor(sim, client->create(root, "f" + std::to_string(i))).value());
    }
    bool drive0 = false;
    bool drive1 = false;
    for (const auto &fh : handles) {
        drive0 = drive0 || fh.drive == 0;
        drive1 = drive1 || fh.drive == 1;
    }
    EXPECT_TRUE(drive0);
    EXPECT_TRUE(drive1);
}

TEST_F(NasdNfsTest, AttrsMapToObjectAttributes)
{
    const auto root = fm->rootHandle();
    const auto fh = runFor(sim, client->create(root, "sized")).value();
    ASSERT_TRUE(runFor(sim, client->write(fh, 0, pattern(12345))).ok());
    auto attrs = runFor(sim, client->getattr(fh));
    ASSERT_TRUE(attrs.ok());
    EXPECT_EQ(attrs.value().size, 12345u); // from NASD object attrs
    EXPECT_EQ(attrs.value().mode, 0644u);  // from fs-specific field
}

TEST_F(NasdNfsTest, SetattrGoesThroughFileManager)
{
    const auto root = fm->rootHandle();
    const auto fh = runFor(sim, client->create(root, "m")).value();
    const auto fm_before = client->fmCalls();
    ASSERT_TRUE(runFor(sim, client->setattr(fh, 0700, 5, 6)).ok());
    EXPECT_GT(client->fmCalls(), fm_before);
    auto attrs = runFor(sim, client->getattr(fh));
    EXPECT_EQ(attrs.value().mode, 0700u);
    EXPECT_EQ(attrs.value().uid, 5u);
}

TEST_F(NasdNfsTest, LookupPiggybacksCapability)
{
    const auto root = fm->rootHandle();
    const auto created = runFor(sim, client->create(root, "pig")).value();
    ASSERT_TRUE(runFor(sim, client->write(created, 0, pattern(1000))).ok());

    // A different client machine looks the file up, then reads it
    // without any further FM traffic.
    auto &node2 = net.addNode("client2", net::alphaStation255(),
                              net::oc3Link(), net::dceRpcCosts());
    std::vector<NasdDrive *> raw;
    for (auto &d : drives)
        raw.push_back(d.get());
    NasdNfsClient other(net, node2, *fm, raw);
    auto fh = runFor(sim, other.lookup(root, "pig", false));
    ASSERT_TRUE(fh.ok());
    const auto fm_calls = other.fmCalls();
    std::vector<std::uint8_t> out(1000);
    auto n = runFor(sim, other.read(fh.value(), 0, out));
    ASSERT_TRUE(n.ok());
    EXPECT_EQ(n.value(), 1000u);
    EXPECT_EQ(other.fmCalls(), fm_calls); // no extra FM round trip
}

TEST_F(NasdNfsTest, RevocationForcesCapabilityRefresh)
{
    const auto root = fm->rootHandle();
    const auto fh = runFor(sim, client->create(root, "rev")).value();
    ASSERT_TRUE(runFor(sim, client->write(fh, 0, pattern(1000))).ok());

    // The FM revokes (bumps the object version). The client's cached
    // capability is now stale; its next read must refresh via the FM
    // and still succeed.
    ASSERT_TRUE(runFor(sim, [](NasdNfsFileManager &m, NasdNfsFh h)
                           -> Task<NfsResult<void>> {
        auto r = co_await m.serveRevoke(h);
        if (r.status != NfsStatus::kOk)
            co_return util::Err{r.status};
        co_return NfsResult<void>{};
    }(*fm, fh)).ok());

    const auto fm_before = client->fmCalls();
    std::vector<std::uint8_t> out(1000);
    auto n = runFor(sim, client->read(fh, 0, out));
    ASSERT_TRUE(n.ok());
    EXPECT_EQ(n.value(), 1000u);
    EXPECT_GT(client->fmCalls(), fm_before); // had to re-fetch
}

TEST_F(NasdNfsTest, RemoveUpdatesDirectory)
{
    const auto root = fm->rootHandle();
    (void)runFor(sim, client->create(root, "gone"));
    ASSERT_TRUE(runFor(sim, client->remove(root, "gone")).ok());
    auto found = runFor(sim, client->lookup(root, "gone", false));
    ASSERT_FALSE(found.ok());
    EXPECT_EQ(found.error(), NfsStatus::kNoEnt);
}

TEST_F(NasdNfsTest, MkdirNestsNamespaces)
{
    const auto root = fm->rootHandle();
    const auto sub = runFor(sim, client->mkdir(root, "dir")).value();
    const auto leaf = runFor(sim, client->create(sub, "leaf")).value();
    auto found = runFor(sim, client->lookup(sub, "leaf", false));
    ASSERT_TRUE(found.ok());
    EXPECT_EQ(found.value(), leaf);

    auto listing = runFor(sim, client->readdir(root));
    ASSERT_TRUE(listing.ok());
    ASSERT_EQ(listing.value().size(), 1u);
    EXPECT_TRUE(listing.value()[0].is_directory);
}

// A directory object holds a u32 live length, then back-to-back
// entries (u32 drive, u64 oid, u8 is_dir, u8 name length, name);
// decoding must reject every truncation of a valid encoding instead of
// reading past the end, ignore bytes past the live length, and reject
// an entry naming a drive outside the namespace.
TEST(NasdDirectoryCodecTest, RoundTripsAndRejectsEveryTruncation)
{
    const std::vector<NasdDirEntry> entries{{"alpha", {1, 0x1234}, false},
                                            {"d", {0, 0x100}, true},
                                            {"", {7, 9}, false}};
    const auto raw = encodeDirectory(entries);
    ASSERT_EQ(raw.size(), 4 + 3 * 14u + 5 + 1);
    auto back = decodeDirectory(raw, 8);
    ASSERT_TRUE(back.ok());
    ASSERT_EQ(back.value().size(), entries.size());
    for (std::size_t i = 0; i < entries.size(); ++i) {
        EXPECT_EQ(back.value()[i].name, entries[i].name);
        EXPECT_EQ(back.value()[i].fh, entries[i].fh);
        EXPECT_EQ(back.value()[i].is_directory, entries[i].is_directory);
    }

    // Only the empty object (an empty directory) is whole: every other
    // prefix stops inside the header or short of the live length.
    const std::vector<std::size_t> boundaries{0};
    for (std::size_t n = 0; n < raw.size(); ++n) {
        const auto cut = decodeDirectory(
            std::span<const std::uint8_t>(raw.data(), n), 8);
        const bool whole = std::find(boundaries.begin(), boundaries.end(),
                                     n) != boundaries.end();
        EXPECT_EQ(cut.ok(), whole) << "prefix of " << n << " bytes";
        if (!cut.ok()) {
            EXPECT_EQ(cut.error(), NfsStatus::kIoError);
        }
    }

    // Bytes past the live length are dead: stale bytes after the
    // listing change nothing, and a live length covering only the
    // first entry (4-byte header + 14 + "alpha") hides the rest.
    auto stale = raw;
    stale.insert(stale.end(), {0xde, 0xad, 0xbe, 0xef, 1, 2, 3});
    auto with_stale = decodeDirectory(stale, 8);
    ASSERT_TRUE(with_stale.ok());
    EXPECT_EQ(with_stale.value().size(), entries.size());
    stale[0] = 19;
    stale[1] = 0;
    auto first = decodeDirectory(stale, 8);
    ASSERT_TRUE(first.ok());
    ASSERT_EQ(first.value().size(), 1u);
    EXPECT_EQ(first.value()[0].name, "alpha");
    // A live length ending inside an entry is corrupt.
    stale[0] = 20;
    auto inside = decodeDirectory(stale, 8);
    ASSERT_FALSE(inside.ok());
    EXPECT_EQ(inside.error(), NfsStatus::kIoError);

    // The last entry names drive 7: corrupt in a namespace on 7 drives.
    const auto beyond = decodeDirectory(raw, 7);
    ASSERT_FALSE(beyond.ok());
    EXPECT_EQ(beyond.error(), NfsStatus::kIoError);
}

TEST_F(NasdNfsTest, CorruptDirectoryIsAnIoError)
{
    const auto root = fm->rootHandle();
    const auto dir = runFor(sim, client->mkdir(root, "d")).value();
    // A live length of 6 bytes over one entry's drive and half its
    // object id: the listing ends inside an entry's fixed fields.
    const std::vector<std::uint8_t> truncated{6, 0, 0, 0, // live length
                                              0, 0, 0, 0, 0x10, 0x20};
    ASSERT_TRUE(runFor(sim, client->write(dir, 0, truncated)).ok());

    auto found = runFor(sim, client->lookup(dir, "x"));
    ASSERT_FALSE(found.ok());
    EXPECT_EQ(found.error(), NfsStatus::kIoError);
}

// Regression (PR 6 sweep): readChunk/writeChunk released the window
// permit by hand on each exit path; the capability-failure bail-out
// was one manual release away from exhausting the window. The
// ScopedPermit conversion makes the restore structural — this test
// pins it by failing more chunks than the window holds slots.
TEST_F(NasdNfsTest, WindowPermitRestoredAfterCapabilityFailure)
{
    const std::uint32_t window = client->windowPermits();
    ASSERT_GT(window, 0u);

    const NasdNfsFh bogus{0, 999999}; // never created anywhere
    std::vector<std::uint8_t> out(4 * kKB);
    std::vector<std::uint8_t> data(4 * kKB, 0x5a);
    for (std::uint32_t i = 0; i < window + 2; ++i) {
        auto r = runFor(sim, client->read(bogus, 0, out));
        ASSERT_FALSE(r.ok());
        auto w = runFor(sim, client->write(bogus, 0, data));
        ASSERT_FALSE(w.ok());
        // Every failed chunk must hand its slot back immediately.
        EXPECT_EQ(client->windowPermits(), window);
    }

    // And the client is still fully functional afterwards.
    const auto root = fm->rootHandle();
    auto fh = runFor(sim, client->create(root, "after-failures"));
    ASSERT_TRUE(fh.ok());
    ASSERT_TRUE(runFor(sim, client->write(fh.value(), 0, data)).ok());
    auto n = runFor(sim, client->read(fh.value(), 0, out));
    ASSERT_TRUE(n.ok());
    EXPECT_EQ(out, data);
    EXPECT_EQ(client->windowPermits(), window);
}

// A handle is checked where it enters the manager or the client: one
// naming drive 2 of this 2-drive namespace is stale everywhere, and
// nothing indexes past the drive list.
TEST_F(NasdNfsTest, HandleNamingNoDriveIsStale)
{
    const NasdNfsFh bad{kDrives, fm->rootHandle().oid};
    const auto stale = [](const auto &r) {
        return !r.ok() && r.error() == NfsStatus::kStale;
    };
    std::vector<std::uint8_t> buf(4 * kKB, 0x5a);
    EXPECT_TRUE(stale(runFor(sim, client->lookup(bad, "x"))));
    EXPECT_TRUE(stale(runFor(sim, client->create(bad, "x"))));
    EXPECT_TRUE(stale(runFor(sim, client->mkdir(bad, "x"))));
    EXPECT_TRUE(stale(runFor(sim, client->remove(bad, "x"))));
    EXPECT_TRUE(stale(runFor(sim, client->readdir(bad))));
    EXPECT_TRUE(stale(runFor(sim, client->getattr(bad))));
    EXPECT_TRUE(stale(runFor(sim, client->setattr(bad, 0600, 0, 0))));
    EXPECT_TRUE(stale(runFor(sim, client->read(bad, 0, buf))));
    EXPECT_TRUE(stale(runFor(sim, client->write(bad, 0, buf))));
    // The manager checks for itself, whatever a client sends it.
    EXPECT_EQ(runFor(sim, fm->serveGetCap(bad, true)).status,
              NfsStatus::kStale);
    EXPECT_EQ(runFor(sim, fm->serveRevoke(bad)).status, NfsStatus::kStale);
}

} // namespace
} // namespace nasd::fs
