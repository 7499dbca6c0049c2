/**
 * @file
 * Tests for NASD-AFS: local directory parsing, whole-file caching,
 * callback breaks on write capability issue, reader blocking while a
 * writer is active, and quota escrow settlement.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "fs/afs/afs.h"
#include "net/presets.h"
#include "sim/simulator.h"
#include "util/units.h"

namespace nasd::fs {
namespace {

using sim::Simulator;
using sim::Task;
using util::kKB;
using util::kMB;

class AfsTest : public ::testing::Test
{
  protected:
    static constexpr int kDrives = 2;

    AfsTest()
        : fm_node(net.addNode("afs-fm", net::alphaStation500(),
                              net::oc3Link(), net::dceRpcCosts()))
    {
        for (int i = 0; i < kDrives; ++i) {
            drives.push_back(std::make_unique<NasdDrive>(
                sim, net,
                prototypeDriveConfig("nasd" + std::to_string(i), i + 1)));
            raw.push_back(drives.back().get());
        }
        fm = std::make_unique<AfsFileManager>(sim, net, fm_node, raw, 0,
                                              64 * kMB);
        runTask(sim, fm->initialize(512 * kMB));
        client_a = makeClient("alice", 1);
        client_b = makeClient("bob", 2);
    }

    std::unique_ptr<AfsClient>
    makeClient(const std::string &name, std::uint32_t id)
    {
        auto &node = net.addNode(name, net::alphaStation255(),
                                 net::oc3Link(), net::dceRpcCosts());
        return std::make_unique<AfsClient>(net, node, *fm, raw, id);
    }

    std::vector<std::uint8_t>
    pattern(std::size_t n, std::uint8_t seed = 1)
    {
        std::vector<std::uint8_t> v(n);
        for (std::size_t i = 0; i < n; ++i)
            v[i] = static_cast<std::uint8_t>(seed + i * 29);
        return v;
    }

    Simulator sim;
    net::Network net{sim};
    net::NetNode &fm_node;
    std::vector<std::unique_ptr<NasdDrive>> drives;
    std::vector<NasdDrive *> raw;
    std::unique_ptr<AfsFileManager> fm;
    std::unique_ptr<AfsClient> client_a;
    std::unique_ptr<AfsClient> client_b;
};

TEST_F(AfsTest, CreateLookupLocalParse)
{
    const auto root = fm->rootFid();
    auto fid = runFor(sim, client_a->create(root, "paper.tex"));
    ASSERT_TRUE(fid.ok());
    auto found = runFor(sim, client_a->lookup(root, "paper.tex"));
    ASSERT_TRUE(found.ok());
    EXPECT_EQ(found.value(), fid.value());
}

TEST_F(AfsTest, ConcurrentCreatesInOneDirectoryKeepBoth)
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
    const auto root = fm->rootFid();
    std::optional<bool> a_ok, b_ok;
    const auto create = [](AfsClient &c, AfsFid dir, std::string name,
                           std::optional<bool> &ok) -> Task<void> {
        const auto made = co_await c.create(dir, std::move(name));
        ok = made.ok();
    };
    sim.spawn(create(*client_a, root, "a", a_ok));
    sim.spawn(create(*client_b, root, "b", b_ok));
    sim.run();
    ASSERT_EQ(a_ok, true);
    ASSERT_EQ(b_ok, true);
    auto listing = runFor(sim, client_a->readdir(root));
    ASSERT_TRUE(listing.ok());
    std::vector<std::string> names;
    for (const auto &e : listing.value())
        names.push_back(e.name);
    std::ranges::sort(names);
    EXPECT_EQ(names, (std::vector<std::string>{"a", "b"}));
    EXPECT_EQ(objects(), before + 2);
}

TEST_F(AfsTest, WriteReadThroughDrives)
{
    const auto root = fm->rootFid();
    const auto fid = runFor(sim, client_a->create(root, "f")).value();
    const auto data = pattern(100 * kKB);
    ASSERT_TRUE(runFor(sim, client_a->write(fid, 0, data)).ok());

    std::vector<std::uint8_t> out(100 * kKB);
    auto n = runFor(sim, client_b->read(fid, 0, out));
    ASSERT_TRUE(n.ok());
    EXPECT_EQ(n.value(), 100 * kKB);
    EXPECT_EQ(out, data);
}

TEST_F(AfsTest, WholeFileCachingServesRepeatsLocally)
{
    const auto root = fm->rootFid();
    const auto fid = runFor(sim, client_a->create(root, "hot")).value();
    ASSERT_TRUE(runFor(sim, client_a->write(fid, 0, pattern(64 * kKB))).ok());

    std::vector<std::uint8_t> out(64 * kKB);
    (void)runFor(sim, client_b->read(fid, 0, out)); // miss: fetches
    const auto misses = client_b->cacheMisses();

    const sim::Tick t0 = sim.now();
    (void)runFor(sim, client_b->read(fid, 0, out)); // hit: local
    (void)runFor(sim, client_b->read(fid, 16 * kKB, out)); // hit
    EXPECT_EQ(client_b->cacheMisses(), misses);
    EXPECT_GE(client_b->cacheHits(), 2u);
    EXPECT_EQ(sim.now(), t0); // no simulated time: purely local
}

TEST_F(AfsTest, WriteBreaksReadersCallback)
{
    const auto root = fm->rootFid();
    const auto fid = runFor(sim, client_a->create(root, "shared")).value();
    ASSERT_TRUE(
        runFor(sim, client_a->write(fid, 0, pattern(10 * kKB, 1))).ok());

    std::vector<std::uint8_t> out(10 * kKB);
    (void)runFor(sim, client_b->read(fid, 0, out)); // b caches + callback
    const auto broken_before = fm->callbacksBroken();

    // a writes: b's callback must break, and b's next read must see
    // the new data.
    ASSERT_TRUE(
        runFor(sim, client_a->write(fid, 0, pattern(10 * kKB, 99))).ok());
    EXPECT_GT(fm->callbacksBroken(), broken_before);

    auto n = runFor(sim, client_b->read(fid, 0, out));
    ASSERT_TRUE(n.ok());
    EXPECT_EQ(out, pattern(10 * kKB, 99));
}

TEST_F(AfsTest, QuotaEscrowSettlesToActualSize)
{
    const auto root = fm->rootFid();
    const auto fid = runFor(sim, client_a->create(root, "q")).value();
    const auto used_before = fm->quotaUsedBytes();
    // Write 100 KB; escrow reserves ~1 MB during the write, but the
    // books settle to the actual size afterwards.
    ASSERT_TRUE(runFor(sim, client_a->write(fid, 0, pattern(100 * kKB))).ok());
    EXPECT_EQ(fm->quotaUsedBytes() - used_before, 100 * kKB);
}

TEST_F(AfsTest, QuotaDeniesWhenExhausted)
{
    const auto root = fm->rootFid();
    const auto fid = runFor(sim, client_a->create(root, "big")).value();
    // Volume quota is 64 MB; fill most of it.
    ASSERT_TRUE(runFor(sim, client_a->write(fid, 0, pattern(8 * kMB))).ok());
    const auto fid2 = runFor(sim, client_a->create(root, "big2")).value();
    // Each write escrows ~1 MB + the data; writing 60 MB more in one
    // escrowed range must fail at capability-issue time.
    std::vector<std::uint8_t> huge(60 * kMB, 1);
    auto r = runFor(sim, [](AfsFileManager &m, AfsFid f)
                        -> Task<NfsStatus> {
        auto reply = co_await m.serveFetchCap(f, true, 1);
        co_return reply.status;
    }(*fm, fid2));
    // 1 MB escrow fits; the deny happens when the drive write exceeds
    // the escrowed byte range instead.
    auto wrote = runFor(sim, client_a->write(fid2, 0, huge));
    EXPECT_FALSE(wrote.ok());
    (void)r;
}

TEST_F(AfsTest, RemoveReclaimsQuota)
{
    const auto root = fm->rootFid();
    const auto fid = runFor(sim, client_a->create(root, "bye")).value();
    ASSERT_TRUE(runFor(sim, client_a->write(fid, 0, pattern(kMB))).ok());
    const auto used = fm->quotaUsedBytes();
    ASSERT_TRUE(runFor(sim, client_a->remove(root, "bye")).ok());
    EXPECT_LT(fm->quotaUsedBytes(), used);
    auto found = runFor(sim, client_a->lookup(root, "bye"));
    EXPECT_FALSE(found.ok());
}

TEST_F(AfsTest, DirectoryChangeBreaksDirCallback)
{
    const auto root = fm->rootFid();
    (void)runFor(sim, client_a->create(root, "one"));
    // b parses the directory (caches it with a callback).
    (void)runFor(sim, client_b->lookup(root, "one"));
    // a creates another file; b's cached directory must be broken so
    // its next lookup sees the new entry.
    (void)runFor(sim, client_a->create(root, "two"));
    auto found = runFor(sim, client_b->lookup(root, "two"));
    ASSERT_TRUE(found.ok());
}

// A destroyed client leaves the manager's callback list: the break a
// later directory change sends must not reach it through a freed
// pointer.
TEST_F(AfsTest, DestroyedClientGetsNoCallbackBreak)
{
    const auto root = fm->rootFid();
    {
        auto gone = makeClient("carol", 3);
        ASSERT_TRUE(runFor(sim, gone->readdir(root)).ok());
    }
    const auto breaks = fm->callbacksBroken();
    ASSERT_TRUE(runFor(sim, client_a->create(root, "after")).ok());
    EXPECT_EQ(fm->callbacksBroken(), breaks);
    EXPECT_TRUE(runFor(sim, client_b->lookup(root, "after")).ok());
}

TEST_F(AfsTest, ReaderWaitsForActiveWriter)
{
    const auto root = fm->rootFid();
    const auto fid = runFor(sim, client_a->create(root, "contended")).value();
    ASSERT_TRUE(runFor(sim, client_a->write(fid, 0, pattern(kKB))).ok());

    // Writer (a) takes a write capability and holds it for 5 ms before
    // relinquishing; a concurrent reader (b) must not get its callback
    // until the writer is done.
    sim::Tick reader_got_cap = 0;
    sim::Tick writer_released = 0;

    sim.spawn([](Simulator &s, AfsFileManager &m, AfsFid f,
                 sim::Tick &released) -> Task<void> {
        auto cap = co_await m.serveFetchCap(f, true, 1);
        (void)cap;
        co_await s.delay(sim::msec(5));
        (void)co_await m.serveReleaseCap(f, 1);
        released = s.now();
    }(sim, *fm, fid, writer_released));

    sim.spawn([](Simulator &s, AfsFileManager &m, AfsFid f,
                 sim::Tick &got) -> Task<void> {
        co_await s.delay(sim::msec(1)); // writer is already active
        auto cap = co_await m.serveFetchCap(f, false, 2);
        (void)cap;
        got = s.now();
    }(sim, *fm, fid, reader_got_cap));

    sim.run();
    EXPECT_GE(reader_got_cap, writer_released);
}

TEST_F(AfsTest, ExpiredWriteCapUnblocksReaders)
{
    const auto root = fm->rootFid();
    const auto fid = runFor(sim, client_a->create(root, "crashcase")).value();
    ASSERT_TRUE(runFor(sim, client_a->write(fid, 0, pattern(kKB))).ok());

    // Writer takes a capability and "crashes" (never relinquishes).
    sim.spawn([](AfsFileManager &m, AfsFid f) -> Task<void> {
        (void)co_await m.serveFetchCap(f, true, 1);
    }(*fm, fid));
    sim.run();

    // After the write capability lifetime passes, a reader succeeds:
    // expiration bounds the waiting time (paper, Section 5.1).
    sim.runUntil(sim.now() + fm->writeCapLifetimeNs() + sim::msec(1));
    std::vector<std::uint8_t> out(kKB);
    auto n = runFor(sim, client_b->read(fid, 0, out));
    ASSERT_TRUE(n.ok());
    EXPECT_EQ(n.value(), kKB);
}

TEST_F(AfsTest, CorruptDirectoryIsAnIoError)
{
    const auto root = fm->rootFid();
    const auto dir = runFor(sim, client_a->mkdir(root, "d")).value();
    // A live length of 16 bytes: a whole entry header naming a 9-byte
    // name, then 2 of its bytes.
    std::vector<std::uint8_t> truncated(4 + 14, 0);
    truncated[0] = 16;
    truncated[4 + 13] = 9;
    truncated.push_back('a');
    truncated.push_back('b');
    ASSERT_TRUE(runFor(sim, client_a->write(dir, 0, truncated)).ok());

    // The second client parses the directory locally.
    auto found = runFor(sim, client_b->lookup(dir, "x"));
    ASSERT_FALSE(found.ok());
    EXPECT_EQ(found.error(), NfsStatus::kIoError);
}

// A directory that still names a file is not removed: its child would
// be left with no name pointing to it.
TEST_F(AfsTest, RemoveNonEmptyDirectoryIsRefused)
{
    const auto root = fm->rootFid();
    const auto dir = runFor(sim, client_a->mkdir(root, "d")).value();
    const auto child = runFor(sim, client_a->create(dir, "child")).value();

    auto removed = runFor(sim, client_a->remove(root, "d"));
    ASSERT_FALSE(removed.ok());
    EXPECT_EQ(removed.error(), NfsStatus::kNotEmpty);
    auto found = runFor(sim, client_b->lookup(dir, "child"));
    ASSERT_TRUE(found.ok());
    EXPECT_EQ(found.value(), child);
    auto named = runFor(sim, client_b->lookup(root, "d"));
    ASSERT_TRUE(named.ok());
    EXPECT_EQ(named.value(), dir);

    // Emptied (its object keeps its bytes, its listing is empty), it goes.
    ASSERT_TRUE(runFor(sim, client_a->remove(dir, "child")).ok());
    ASSERT_TRUE(runFor(sim, client_a->remove(root, "d")).ok());
    auto gone = runFor(sim, client_b->lookup(root, "d"));
    ASSERT_FALSE(gone.ok());
    EXPECT_EQ(gone.error(), NfsStatus::kNoEnt);
}

TEST_F(AfsTest, FetchCapForMissingFidAddsNoState)
{
    const std::size_t tracked = fm->trackedFiles();
    const AfsFid missing{1, 999999};
    EXPECT_EQ(runFor(sim, fm->serveFetchCap(missing, false, 1)).status,
              NfsStatus::kNoEnt);
    EXPECT_EQ(runFor(sim, fm->serveFetchCap(missing, true, 1)).status,
              NfsStatus::kNoEnt);
    EXPECT_EQ(runFor(sim, fm->serveReleaseCap(missing, 1)).status,
              NfsStatus::kOk);
    EXPECT_EQ(fm->trackedFiles(), tracked);
}

// A reader blocked behind a writer is released when the file is
// removed, and fails: the file is gone.
TEST_F(AfsTest, RemoveEndsReaderWaitingBehindWriter)
{
    const auto root = fm->rootFid();
    const auto fid = runFor(sim, client_a->create(root, "doomed")).value();
    ASSERT_TRUE(runFor(sim, client_a->write(fid, 0, pattern(kKB))).ok());

    // Writer 1 takes a write capability and never gives it back.
    sim.spawn([](AfsFileManager &m, AfsFid f) -> Task<void> {
        (void)co_await m.serveFetchCap(f, true, 1);
    }(*fm, fid));
    sim.run();

    std::optional<NfsStatus> reader;
    sim.spawn([](AfsFileManager &m, AfsFid f,
                 std::optional<NfsStatus> &out) -> Task<void> {
        out = (co_await m.serveFetchCap(f, false, 2)).status;
    }(*fm, fid, reader));
    sim.run();
    ASSERT_FALSE(reader.has_value()); // blocked behind the writer

    ASSERT_TRUE(runFor(sim, client_a->remove(root, "doomed")).ok());
    ASSERT_TRUE(reader.has_value());
    EXPECT_EQ(*reader, NfsStatus::kNoEnt);
    EXPECT_EQ(fm->quotaUsedBytes(), 0u);
}

// A fid is checked where it enters the manager or a client: one naming
// drive 2 of this 2-drive namespace is stale everywhere, and nothing
// indexes past the drive list.
TEST_F(AfsTest, FidNamingNoDriveIsStale)
{
    const AfsFid bad{kDrives, fm->rootFid().oid};
    const auto stale = [](const auto &r) {
        return !r.ok() && r.error() == NfsStatus::kStale;
    };
    std::vector<std::uint8_t> buf(4 * kKB, 0x5a);
    EXPECT_TRUE(stale(runFor(sim, client_a->read(bad, 0, buf))));
    EXPECT_TRUE(stale(runFor(sim, client_a->write(bad, 0, buf))));
    EXPECT_TRUE(stale(runFor(sim, client_a->readdir(bad))));
    EXPECT_TRUE(stale(runFor(sim, client_a->lookup(bad, "x"))));
    EXPECT_TRUE(stale(runFor(sim, client_a->create(bad, "x"))));
    EXPECT_TRUE(stale(runFor(sim, client_a->mkdir(bad, "x"))));
    EXPECT_TRUE(stale(runFor(sim, client_a->remove(bad, "x"))));
    // The manager checks for itself, whatever a client sends it.
    EXPECT_EQ(runFor(sim, fm->serveFetchCap(bad, true, 1, 0)).status,
              NfsStatus::kStale);
    EXPECT_EQ(runFor(sim, fm->serveReleaseCap(bad, 1)).status,
              NfsStatus::kStale);
}

} // namespace
} // namespace nasd::fs
