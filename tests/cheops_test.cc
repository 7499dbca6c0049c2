/**
 * @file
 * Tests for Cheops (striped logical objects, capability sets,
 * revocation) and NASD PFS (name service, parallel byte-range I/O,
 * and the communicator/mailbox layer).
 */
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cheops/cheops.h"
#include "net/presets.h"
#include "pfs/comm.h"
#include "pfs/pfs.h"
#include "rig/cluster.h"
#include "sim/simulator.h"
#include "util/trace.h"
#include "util/units.h"

namespace nasd::cheops {
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
        v[i] = static_cast<std::uint8_t>(seed + i * 23);
    return v;
}

class CheopsTest : public ::testing::Test, public rig::NasdCluster
{
  protected:
    CheopsTest() : NasdCluster({.drives = 4, .partition_bytes = 512 * kMB}) {}

    net::NetNode &client_node = clientNode("client");
    std::unique_ptr<CheopsClient> client =
        std::make_unique<CheopsClient>(net, client_node, storage(), raw);
};

TEST_F(CheopsTest, CreateProducesComponentPerDrive)
{
    auto id = runFor(sim, client->create(64 * kKB, 0));
    ASSERT_TRUE(id.ok());
    auto map = runFor(sim, client->open(id.value(), false));
    ASSERT_TRUE(map.ok());
    EXPECT_EQ(map.value()->components.size(), 4u);
    EXPECT_EQ(map.value()->stripe_unit_bytes, 64 * kKB);
}

TEST_F(CheopsTest, PartialStripeCount)
{
    auto id = runFor(sim, client->create(64 * kKB, 2));
    ASSERT_TRUE(id.ok());
    auto map = runFor(sim, client->open(id.value(), false));
    ASSERT_TRUE(map.ok());
    EXPECT_EQ(map.value()->components.size(), 2u);
}

TEST_F(CheopsTest, StripedWriteReadRoundTrip)
{
    const auto id = runFor(sim, client->create(64 * kKB, 0)).value();
    // 1 MB spans all four components several times.
    const auto data = pattern(kMB, 7);
    ASSERT_TRUE(runFor(sim, client->write(id, 0, data)).ok());

    std::vector<std::uint8_t> out(kMB);
    auto n = runFor(sim, client->read(id, 0, out));
    ASSERT_TRUE(n.ok());
    EXPECT_EQ(n.value().bytes, kMB);
    EXPECT_FALSE(n.value().degraded());
    EXPECT_EQ(out, data);
}

TEST_F(CheopsTest, UnalignedRangeRoundTrip)
{
    const auto id = runFor(sim, client->create(64 * kKB, 0)).value();
    const auto data = pattern(300 * kKB, 9);
    ASSERT_TRUE(runFor(sim, client->write(id, 12345, data)).ok());
    std::vector<std::uint8_t> out(300 * kKB);
    auto n = runFor(sim, client->read(id, 12345, out));
    ASSERT_TRUE(n.ok());
    EXPECT_EQ(n.value().bytes, 300 * kKB);
    EXPECT_EQ(out, data);
}

TEST_F(CheopsTest, DataLandsOnAllDrives)
{
    const auto id = runFor(sim, client->create(64 * kKB, 0)).value();
    ASSERT_TRUE(runFor(sim, client->write(id, 0, pattern(kMB))).ok());
    for (auto &d : drives)
        EXPECT_GT(d->store().stats().writes.value(), 0u);
}

TEST_F(CheopsTest, SizeReconstructsLogicalLength)
{
    const auto id = runFor(sim, client->create(64 * kKB, 0)).value();
    ASSERT_TRUE(runFor(sim, client->write(id, 0, pattern(999 * kKB))).ok());
    auto s = runFor(sim, client->size(id));
    ASSERT_TRUE(s.ok());
    EXPECT_EQ(s.value(), 999 * kKB);
}

TEST_F(CheopsTest, OpenIsOneControlMessageThenDirect)
{
    const auto id = runFor(sim, client->create(64 * kKB, 0)).value();
    ASSERT_TRUE(runFor(sim, client->write(id, 0, pattern(kMB))).ok());
    const auto calls = client->managerCalls();
    std::vector<std::uint8_t> out(kMB);
    (void)runFor(sim, client->read(id, 0, out));
    (void)runFor(sim, client->read(id, 0, out));
    EXPECT_EQ(client->managerCalls(), calls); // map cached: no manager
}

TEST_F(CheopsTest, RemoveFreesComponents)
{
    const auto id = runFor(sim, client->create(64 * kKB, 0)).value();
    ASSERT_TRUE(runFor(sim, client->write(id, 0, pattern(kMB))).ok());
    ASSERT_TRUE(runFor(sim, client->remove(id)).ok());
    for (auto &d : drives) {
        auto info = d->store().partitionInfo(0);
        EXPECT_EQ(info.value().object_count, 0u);
    }
}

TEST_F(CheopsTest, RevokeInvalidatesCapabilitySet)
{
    const auto id = runFor(sim, client->create(64 * kKB, 0)).value();
    ASSERT_TRUE(runFor(sim, client->write(id, 0, pattern(64 * kKB))).ok());

    auto revoked = runFor(sim, [](CheopsManager &m, LogicalObjectId lid)
                              -> Task<CheopsStatus> {
        auto r = co_await m.serveRevoke(lid);
        co_return r.status;
    }(storage(), id));
    ASSERT_EQ(revoked, CheopsStatus::kOk);

    // The client's cached capability set is now useless.
    std::vector<std::uint8_t> out(64 * kKB);
    auto n = runFor(sim, client->read(id, 0, out));
    ASSERT_FALSE(n.ok());

    // A fresh client (fresh open, new capability set) succeeds.
    CheopsClient fresh(net, client_node, storage(), raw);
    auto n2 = runFor(sim, fresh.read(id, 0, out));
    ASSERT_TRUE(n2.ok());
    EXPECT_EQ(n2.value().bytes, 64 * kKB);
}

TEST_F(CheopsTest, ParallelReadBeatsSingleDrive)
{
    // Striped object over 4 drives vs over 1 drive: large cached reads
    // should be much faster striped.
    const auto wide = runFor(sim, client->create(512 * kKB, 4)).value();
    const auto narrow = runFor(sim, client->create(512 * kKB, 1)).value();
    const auto data = pattern(2 * kMB);
    ASSERT_TRUE(runFor(sim, client->write(wide, 0, data)).ok());
    ASSERT_TRUE(runFor(sim, client->write(narrow, 0, data)).ok());

    std::vector<std::uint8_t> out(2 * kMB);
    (void)runFor(sim, client->read(wide, 0, out)); // warm
    (void)runFor(sim, client->read(narrow, 0, out));

    auto t0 = sim.now();
    (void)runFor(sim, client->read(wide, 0, out));
    const auto wide_time = sim.now() - t0;
    t0 = sim.now();
    (void)runFor(sim, client->read(narrow, 0, out));
    const auto narrow_time = sim.now() - t0;
    EXPECT_LT(wide_time, narrow_time);
}

/** Spans of one op recorded while tracing is installed. */
class CheopsSpanTest : public CheopsTest
{
  protected:
    CheopsSpanTest() { util::setTracer(&tracer); }
    ~CheopsSpanTest() override { util::setTracer(nullptr); }

    /** The only recorded span named @p name. */
    const util::Tracer::Span *
    only(const std::string &name) const
    {
        const util::Tracer::Span *found = nullptr;
        for (const auto &s : tracer.spans()) {
            if (s.name == name) {
                EXPECT_EQ(found, nullptr) << "second " << name << " span";
                found = &s;
            }
        }
        return found;
    }

    util::Tracer tracer;
};

TEST_F(CheopsSpanTest, StripedWriteSpanEnclosesItsDriveWrites)
{
    const auto id = runFor(sim, client->create(64 * kKB, 0)).value();
    ASSERT_TRUE(runFor(sim, client->write(id, 0, pattern(256 * kKB))).ok());

    const auto *op = only("cheops/write");
    ASSERT_NE(op, nullptr);
    EXPECT_GT(op->end_ns, op->begin_ns);
    std::size_t children = 0;
    for (const auto &s : tracer.spans()) {
        if (s.name != "nasd/write" || s.parent_span != op->ctx.span_id)
            continue;
        ++children;
        EXPECT_GE(s.begin_ns, op->begin_ns);
        EXPECT_LE(s.end_ns, op->end_ns);
    }
    EXPECT_EQ(children, 4u); // one 64 KB unit per drive
}

TEST_F(CheopsSpanTest, FailedOpenStillClosesTheOpSpan)
{
    // No such object: the manager round trip fails the op, and the
    // span still covers it.
    std::vector<std::uint8_t> out(64 * kKB);
    ASSERT_FALSE(runFor(sim, client->read(42, 0, out)).ok());
    ASSERT_FALSE(runFor(sim, client->write(42, 0, out)).ok());
    for (const char *name : {"cheops/read", "cheops/write"}) {
        const auto *op = only(name);
        ASSERT_NE(op, nullptr) << name;
        EXPECT_GT(op->end_ns, op->begin_ns) << name;
    }
}

} // namespace
} // namespace cheops

// ------------------------------------------------------------------- PFS

namespace nasd::pfs {
namespace {

using sim::Simulator;
using sim::Task;
using util::kKB;
using util::kMB;

class PfsTest : public ::testing::Test, public rig::NasdCluster
{
  protected:
    PfsTest() : NasdCluster({.drives = 4, .partition_bytes = 512 * kMB}) {}

    std::vector<std::uint8_t>
    pattern(std::size_t n, std::uint8_t seed = 1)
    {
        std::vector<std::uint8_t> v(n);
        for (std::size_t i = 0; i < n; ++i)
            v[i] = static_cast<std::uint8_t>(seed + i * 23);
        return v;
    }

    net::NetNode &client_node = clientNode("client");
    std::unique_ptr<PfsClient> client =
        std::make_unique<PfsClient>(net, client_node, pfs(), raw);
};

TEST_F(PfsTest, CreateOpenByName)
{
    auto handle = runFor(sim, client->open("dataset", true, true));
    ASSERT_TRUE(handle.ok());
    // Reopen resolves to the same logical object.
    auto again = runFor(sim, client->open("dataset", false, false));
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again.value().object, handle.value().object);
}

TEST_F(PfsTest, MissingFileFails)
{
    auto handle = runFor(sim, client->open("ghost", false, false));
    ASSERT_FALSE(handle.ok());
    EXPECT_EQ(handle.error(), PfsStatus::kNoSuchFile);
}

TEST_F(PfsTest, ByteRangeRoundTrip)
{
    auto handle = runFor(sim, client->open("f", true, true)).value();
    const auto data = pattern(3 * kMB, 5);
    ASSERT_TRUE(runFor(sim, client->write(handle, 0, data)).ok());
    std::vector<std::uint8_t> out(3 * kMB);
    auto n = runFor(sim, client->read(handle, 0, out));
    ASSERT_TRUE(n.ok());
    EXPECT_EQ(out, data);
    auto s = runFor(sim, client->size(handle));
    EXPECT_EQ(s.value(), 3 * kMB);
}

// One read of 32 MB over four drives asks each drive for 8 MB, more
// than one DCE client can take from a drive inside one 2 s attempt
// deadline. The drive client cuts it into pieces, each with its own
// deadline, so the read succeeds.
TEST_F(PfsTest, OneReadOf32MBOverFourDrives)
{
    auto handle = runFor(sim, client->open("big", true, true)).value();
    const auto data = pattern(32 * kMB, 9);
    const std::span<const std::uint8_t> all(data);
    for (std::uint64_t at = 0; at < data.size(); at += 2 * kMB)
        ASSERT_TRUE(
            runFor(sim, client->write(handle, at, all.subspan(at, 2 * kMB)))
                .ok());
    std::vector<std::uint8_t> out(32 * kMB);
    auto n = runFor(sim, client->read(handle, 0, out));
    ASSERT_TRUE(n.ok()) << toString(n.error());
    EXPECT_EQ(n.value(), 32 * kMB);
    EXPECT_TRUE(out == data);
}

TEST_F(PfsTest, UnlinkRemoves)
{
    (void)runFor(sim, client->open("tmp", true, true));
    ASSERT_TRUE(runFor(sim, client->unlink("tmp")).ok());
    auto handle = runFor(sim, client->open("tmp", false, false));
    ASSERT_FALSE(handle.ok());
}

TEST_F(PfsTest, TwoClientsShareAFile)
{
    auto w = runFor(sim, client->open("shared", true, true)).value();
    const auto data = pattern(kMB, 3);
    ASSERT_TRUE(runFor(sim, client->write(w, 0, data)).ok());

    auto &node2 = net.addNode("client2", net::alphaStation255(),
                              net::oc3Link(), net::dceRpcCosts());
    PfsClient other(net, node2, pfs(), raw);
    auto r = runFor(sim, other.open("shared", false, false)).value();
    std::vector<std::uint8_t> out(kMB);
    auto n = runFor(sim, other.read(r, 0, out));
    ASSERT_TRUE(n.ok());
    EXPECT_EQ(out, data);
}

TEST_F(PfsTest, CommunicatorBarrierSynchronizes)
{
    std::vector<net::NetNode *> ranks;
    for (int i = 0; i < 3; ++i) {
        ranks.push_back(&net.addNode("rank" + std::to_string(i),
                                     net::alphaStation255(), net::oc3Link(),
                                     net::dceRpcCosts()));
    }
    Communicator comm(net, ranks);
    std::vector<sim::Tick> done(3);
    for (int i = 0; i < 3; ++i) {
        sim.spawn([](Simulator &s, Communicator &c, sim::Tick delay,
                     sim::Tick &out) -> Task<void> {
            co_await s.delay(delay);
            co_await c.barrier();
            out = s.now();
        }(sim, comm, sim::msec(i * 10), done[i]));
    }
    sim.run();
    EXPECT_EQ(done[0], done[2]);
    EXPECT_EQ(done[1], done[2]);
}

TEST_F(PfsTest, MailboxDeliversInOrderWithWireCost)
{
    std::vector<net::NetNode *> ranks;
    for (int i = 0; i < 2; ++i) {
        ranks.push_back(&net.addNode("mrank" + std::to_string(i),
                                     net::alphaStation255(), net::oc3Link(),
                                     net::dceRpcCosts()));
    }
    Communicator comm(net, ranks);
    Mailbox<int> box(comm);

    std::vector<int> received;
    sim.spawn([](Communicator &c, Mailbox<int> &b,
                 std::vector<int> &out) -> Task<void> {
        (void)c;
        out.push_back(co_await b.recv(1));
        out.push_back(co_await b.recv(1));
    }(comm, box, received));
    sim.spawn([](Communicator &c, Mailbox<int> &b) -> Task<void> {
        (void)c;
        co_await b.send(0, 1, 42, 1000);
        co_await b.send(0, 1, 43, 1000);
    }(comm, box));
    sim.run();
    EXPECT_EQ(received, (std::vector<int>{42, 43}));
    EXPECT_GT(sim.now(), 0u); // the wire cost was paid
}

// Regression (PR 6 sweep): Mailbox::recv used a raw ->acquire(), which
// silently swallowed the time a rank spent blocked waiting for a
// message. The timedAcquire conversion makes that wait observable.
TEST_F(PfsTest, MailboxReportsRecvWait)
{
    std::vector<net::NetNode *> ranks;
    for (int i = 0; i < 2; ++i) {
        ranks.push_back(&net.addNode("wrank" + std::to_string(i),
                                     net::alphaStation255(), net::oc3Link(),
                                     net::dceRpcCosts()));
    }
    Communicator comm(net, ranks);
    Mailbox<int> box(comm);

    int got = 0;
    sim.spawn([](Mailbox<int> &b, int &out) -> Task<void> {
        out = co_await b.recv(1); // blocks until the send lands
    }(box, got));
    sim.spawn([](Simulator &s, Mailbox<int> &b) -> Task<void> {
        co_await s.delay(1000);
        co_await b.send(0, 1, 7, 100);
    }(sim, box));
    sim.run();
    EXPECT_EQ(got, 7);
    // The receiver was parked at least for the sender's 1000ns nap
    // plus the wire time of the 100-byte message.
    EXPECT_GE(box.recvWaitNs(), 1000u);
}

} // namespace
} // namespace nasd::pfs
