/**
 * @file
 * Fault injection and redundancy: failed drives reject requests;
 * RAID-5 Cheops objects (mirrored at width 1) keep serving reads and
 * absorbing writes in degraded mode, and fence a component that missed
 * a write until a rebuild replaces it; unmirrored objects fail
 * visibly.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "cheops/cheops.h"
#include "net/presets.h"
#include "rig/cluster.h"
#include "sim/simulator.h"
#include "util/flight_recorder.h"
#include "util/units.h"

namespace nasd::cheops {
namespace {

using sim::Task;
using util::kKB;
using util::kMB;

std::vector<std::uint8_t>
pattern(std::size_t n, std::uint8_t seed = 1)
{
    std::vector<std::uint8_t> v(n);
    for (std::size_t i = 0; i < n; ++i)
        v[i] = static_cast<std::uint8_t>(seed + i * 37);
    return v;
}

class RedundancyTest : public ::testing::Test, public rig::NasdCluster
{
  protected:
    static constexpr int kDrives = 4;

    RedundancyTest()
        : NasdCluster({.drives = kDrives, .partition_bytes = 512 * kMB})
    {
    }

    /** A two-way mirror: RAID-5 of width 1, so each row holds one
     *  data unit and its parity copy, on drives 0 and 1. */
    LogicalObjectId
    createMirror()
    {
        return runFor(sim, client->create(64 * kKB, 1, 0,
                                          Redundancy::kParity))
            .value();
    }

    /** Every byte of component @p c, read from its drive directly. */
    std::vector<std::uint8_t>
    componentBytes(const ComponentRef &c)
    {
        NasdClient direct(net, client_node, *drives[c.drive]);
        CredentialFactory cred(c.capability);
        auto attrs = runFor(sim, direct.getAttr(cred));
        EXPECT_TRUE(attrs.ok()) << "nasd" << c.drive;
        if (!attrs.ok())
            return {};
        auto bytes = runFor(sim, direct.read(cred, 0, attrs.value().size));
        EXPECT_TRUE(bytes.ok()) << "nasd" << c.drive;
        return bytes.ok() ? std::move(bytes.value())
                          : std::vector<std::uint8_t>{};
    }

    /** Read every component of kParity object @p id from its drive and
     *  check that each row XORs to zero (holes read as zeros). */
    void
    expectRowsConsistent(LogicalObjectId id)
    {
        CheopsClient fresh(net, client_node, storage(), raw);
        auto map = runFor(sim, fresh.open(id, false));
        ASSERT_TRUE(map.ok());
        ASSERT_LT(map.value()->dead_component, 0) << "a component is dead";
        std::vector<std::uint8_t> fold;
        for (const auto &c : map.value()->components) {
            const auto bytes = componentBytes(c);
            fold.resize(std::max(fold.size(), bytes.size()), 0);
            for (std::size_t i = 0; i < bytes.size(); ++i)
                fold[i] ^= bytes[i];
        }
        const auto bad = static_cast<std::size_t>(
            std::ranges::find_if(fold, [](std::uint8_t b) { return b; }) -
            fold.begin());
        EXPECT_EQ(bad, fold.size())
            << "row " << bad / map.value()->stripe_unit_bytes
            << " does not XOR to zero";
    }

    net::NetNode &client_node = clientNode("client");
    std::unique_ptr<CheopsClient> client =
        std::make_unique<CheopsClient>(net, client_node, storage(), raw);
};

// --------------------------------------------------------- drive failure

TEST_F(RedundancyTest, FailedDriveRejectsEverything)
{
    CapabilityIssuer issuer(drives[0]->config().master_key, 1);
    NasdClient direct(net, client_node, *drives[0]);

    CapabilityPublic pc;
    pc.partition = 0;
    pc.object_id = kPartitionControlObject;
    pc.rights = kRightCreate;
    CredentialFactory pcred(issuer.mint(pc));
    const ObjectId oid = runFor(sim, direct.create(pcred, 0)).value();

    CapabilityPublic po;
    po.partition = 0;
    po.object_id = oid;
    po.rights = kRightRead | kRightWrite | kRightGetAttr;
    CredentialFactory cred(issuer.mint(po));
    ASSERT_TRUE(runFor(sim, direct.write(cred, 0, pattern(kKB))).ok());

    drives[0]->setFailed(true);
    auto r = runFor(sim, direct.read(cred, 0, kKB));
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error(), NasdStatus::kDriveFailed);
    auto w = runFor(sim, direct.write(cred, 0, pattern(kKB)));
    ASSERT_FALSE(w.ok());
    auto a = runFor(sim, direct.getAttr(cred));
    ASSERT_FALSE(a.ok());

    // Recovery: requests succeed again.
    drives[0]->setFailed(false);
    EXPECT_TRUE(runFor(sim, direct.read(cred, 0, kKB)).ok());
}

TEST_F(RedundancyTest, UnmirroredObjectLosesDataPathOnFailure)
{
    const auto id =
        runFor(sim, client->create(64 * kKB, 0, 0, Redundancy::kNone)).value();
    ASSERT_TRUE(runFor(sim, client->write(id, 0, pattern(512 * kKB))).ok());

    drives[1]->setFailed(true);
    std::vector<std::uint8_t> out(512 * kKB);
    auto r = runFor(sim, client->read(id, 0, out));
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error(), CheopsStatus::kDriveError);
}

// -------------------------------------------------------------- mirroring

TEST_F(RedundancyTest, MirroredCreateAllocatesReplicas)
{
    const auto id = createMirror();
    auto map = runFor(sim, client->open(id, false));
    ASSERT_TRUE(map.ok());
    EXPECT_EQ(map.value()->redundancy, Redundancy::kParity);
    // One data unit and its copy per row, never on the same drive.
    ASSERT_EQ(map.value()->components.size(), 2u);
    EXPECT_NE(map.value()->components[0].drive,
              map.value()->components[1].drive);
    for (std::uint64_t row = 0; row < 4; ++row) {
        EXPECT_NE(layout::parityComponent(row, 1),
                  layout::dataComponent(row, 0, 1));
    }
}

TEST_F(RedundancyTest, MirroredRoundTrip)
{
    const auto id = createMirror();
    const auto data = pattern(700 * kKB, 9);
    ASSERT_TRUE(runFor(sim, client->write(id, 0, data)).ok());
    std::vector<std::uint8_t> out(700 * kKB);
    auto n = runFor(sim, client->read(id, 0, out));
    ASSERT_TRUE(n.ok());
    EXPECT_FALSE(n.value().degraded());
    EXPECT_EQ(out, data);
}

TEST_F(RedundancyTest, WritesLandOnBothCopies)
{
    const auto id = createMirror();
    const auto data = pattern(kMB);
    ASSERT_TRUE(runFor(sim, client->write(id, 0, data)).ok());
    // Row r sits at offset r * su of both components, as data on one
    // and as its parity copy on the other: each holds every byte.
    auto map = runFor(sim, client->open(id, false)).value();
    for (const auto &c : map->components)
        EXPECT_EQ(componentBytes(c), data) << "nasd" << c.drive;
}

TEST_F(RedundancyTest, DegradedReadSurvivesSingleDriveFailure)
{
    const auto id = createMirror();
    const auto data = pattern(kMB, 5);
    ASSERT_TRUE(runFor(sim, client->write(id, 0, data)).ok());

    drives[1]->setFailed(true);
    std::vector<std::uint8_t> out(kMB);
    auto n = runFor(sim, client->read(id, 0, out));
    ASSERT_TRUE(n.ok());
    EXPECT_TRUE(n.value().degraded());
    EXPECT_EQ(out, data);
}

TEST_F(RedundancyTest, DegradedReadSurvivesAnySingleFailure)
{
    // Property over which drive fails.
    for (int victim = 0; victim < kDrives; ++victim) {
        for (auto &d : drives)
            d->setFailed(false);
        const auto id = createMirror();
        const auto data = pattern(512 * kKB,
                                  static_cast<std::uint8_t>(victim + 1));
        ASSERT_TRUE(runFor(sim, client->write(id, 0, data)).ok());

        drives[victim]->setFailed(true);
        std::vector<std::uint8_t> out(512 * kKB);
        auto n = runFor(sim, client->read(id, 0, out));
        ASSERT_TRUE(n.ok()) << "victim drive " << victim;
        EXPECT_EQ(out, data) << "victim drive " << victim;
    }
}

TEST_F(RedundancyTest, DegradedWriteThenRecoveredRead)
{
    const auto id = createMirror();
    ASSERT_TRUE(runFor(sim, client->write(id, 0, pattern(kMB, 1))).ok());

    // Write while one drive is down: succeeds on the surviving copy.
    drives[1]->setFailed(true);
    const auto updated = pattern(kMB, 77);
    ASSERT_TRUE(runFor(sim, client->write(id, 0, updated)).ok());

    // Reads while degraded see the update, and so do reads after the
    // drive comes back: its copy missed the write and stays fenced.
    std::vector<std::uint8_t> out(kMB);
    ASSERT_TRUE(runFor(sim, client->read(id, 0, out)).ok());
    EXPECT_EQ(out, updated);
    drives[1]->setFailed(false);
    std::fill(out.begin(), out.end(), 0);
    auto n = runFor(sim, client->read(id, 0, out));
    ASSERT_TRUE(n.ok());
    EXPECT_TRUE(n.value().degraded());
    EXPECT_EQ(out, updated);
}

TEST_F(RedundancyTest, DoubleFaultOnAPairLosesData)
{
    const auto id = createMirror();
    ASSERT_TRUE(runFor(sim, client->write(id, 0, pattern(kMB))).ok());

    // The two copies live on drives 0 and 1: failing both kills every
    // stripe unit.
    drives[0]->setFailed(true);
    drives[1]->setFailed(true);
    std::vector<std::uint8_t> out(kMB);
    auto r = runFor(sim, client->read(id, 0, out));
    ASSERT_FALSE(r.ok());
}

TEST_F(RedundancyTest, MirrorRequiresTwoDrives)
{
    // A one-drive manager has nowhere to put the copy.
    std::vector<NasdDrive *> one = {raw[0]};
    auto &node = net.addNode("mgr1", net::alphaStation500(),
                             net::oc3Link(), net::dceRpcCosts());
    CheopsManager small(sim, net, node, one, 1);
    runTask(sim, small.initialize(64 * kMB));
    CheopsClient c(net, client_node, small, one);
    auto id = runFor(sim, c.create(64 * kKB, 1, 0, Redundancy::kParity));
    ASSERT_FALSE(id.ok());
}

TEST_F(RedundancyTest, RemoveCleansUpReplicas)
{
    const auto id = createMirror();
    ASSERT_TRUE(runFor(sim, client->write(id, 0, pattern(kMB))).ok());
    ASSERT_TRUE(runFor(sim, client->remove(id)).ok());
    for (auto &d : drives) {
        auto info = d->store().partitionInfo(0);
        EXPECT_EQ(info.value().object_count, 0u);
        EXPECT_EQ(info.value().used_bytes, 0u);
    }
}

TEST_F(RedundancyTest, MirroringCostsOneExtraWrite)
{
    // Timing sanity: mirrored writes are slower than unmirrored ones
    // on one drive (two copies move), and they read nothing: every
    // write covers its row's whole parity footprint.
    const auto plain =
        runFor(sim, client->create(64 * kKB, 1, 0, Redundancy::kNone))
            .value();
    const auto mirrored = createMirror();
    const auto data = pattern(kMB);

    sim::Tick t0 = sim.now();
    ASSERT_TRUE(runFor(sim, client->write(plain, 0, data)).ok());
    const sim::Tick plain_write = sim.now() - t0;
    const auto driveReads = [this] {
        std::uint64_t n = 0;
        for (auto &d : drives)
            n += d->store().stats().reads.value();
        return n;
    };
    const std::uint64_t reads = driveReads();
    t0 = sim.now();
    // Sub-unit pieces as well as whole rows.
    ASSERT_TRUE(runFor(sim, client->write(mirrored, 0, data)).ok());
    ASSERT_TRUE(runFor(sim, client->write(mirrored, 1000,
                                          std::span(data).first(5000)))
                    .ok());
    const sim::Tick mirrored_write = sim.now() - t0;
    EXPECT_GT(mirrored_write, plain_write);
    EXPECT_EQ(driveReads(), reads);
}

// ------------------------------------------------------- open upgrades

TEST_F(RedundancyTest, WriteUpgradesAReadOnlyOpenInPlace)
{
    const auto id =
        runFor(sim, client->create(64 * kKB, 0, 0, Redundancy::kNone)).value();
    const auto data = pattern(512 * kKB, 3);
    ASSERT_TRUE(runFor(sim, client->write(id, 0, data)).ok());

    CheopsClient reader(net, client_node, storage(), raw);
    ASSERT_TRUE(runFor(sim, reader.open(id, /*want_write=*/false)).ok());

    // Every first attempt of the striped read is lost, so its
    // component transfers stay suspended until their deadlines and
    // then retry through the open's credential factories.
    net::FaultPlan lossy;
    lossy.drop_probability = 1.0;
    net.setFaultPlan(lossy);
    std::vector<std::uint8_t> out(data.size());
    std::optional<bool> read_ok;
    sim.spawn([](Task<util::Result<ReadOutcome, CheopsStatus>> t,
                 std::optional<bool> &ok) -> Task<void> {
        ok = (co_await std::move(t)).ok();
    }(reader.read(id, 0, out), read_ok));
    sim.runUntil(sim.now() + sim::msec(100));
    ASSERT_FALSE(read_ok.has_value());
    net.clearFaultPlan();

    // The same client writes while the read is suspended: the open is
    // upgraded to writable under the read's feet.
    std::optional<bool> write_ok;
    sim.spawn([](Task<util::Result<void, CheopsStatus>> t,
                 std::optional<bool> &ok) -> Task<void> {
        ok = (co_await std::move(t)).ok();
    }(reader.write(id, 0, std::span(data).first(64 * kKB)), write_ok));
    sim.runUntil(sim.now() + sim::msec(500));
    ASSERT_TRUE(write_ok.value_or(false));
    ASSERT_FALSE(read_ok.has_value());

    sim.run();
    ASSERT_TRUE(read_ok.value_or(false));
    EXPECT_EQ(out, data);
}

TEST_F(RedundancyTest, RemoveWhileAStripedReadIsSuspended)
{
    const auto id =
        runFor(sim, client->create(64 * kKB, 0, 0, Redundancy::kNone)).value();
    const auto data = pattern(512 * kKB, 5);
    ASSERT_TRUE(runFor(sim, client->write(id, 0, data)).ok());

    // Every first attempt of the striped read is lost, so its component
    // transfers stay suspended until their deadlines.
    net::FaultPlan lossy;
    lossy.drop_probability = 1.0;
    net.setFaultPlan(lossy);
    std::vector<std::uint8_t> out(data.size());
    std::optional<bool> read_ok;
    sim.spawn([](Task<util::Result<ReadOutcome, CheopsStatus>> t,
                 std::optional<bool> &ok) -> Task<void> {
        ok = (co_await std::move(t)).ok();
    }(client->read(id, 0, out), read_ok));
    sim.runUntil(sim.now() + sim::msec(100));
    ASSERT_FALSE(read_ok.has_value());
    net.clearFaultPlan();

    // The same client removes the object under the read's feet: the
    // components go away, and the read's retries must fail cleanly
    // through the open state it still holds.
    std::optional<bool> remove_ok;
    sim.spawn([](Task<util::Result<void, CheopsStatus>> t,
                 std::optional<bool> &ok) -> Task<void> {
        ok = (co_await std::move(t)).ok();
    }(client->remove(id), remove_ok));
    sim.runUntil(sim.now() + sim::msec(500));
    ASSERT_TRUE(remove_ok.value_or(false));
    ASSERT_FALSE(read_ok.has_value());

    sim.run();
    ASSERT_TRUE(read_ok.has_value());
    EXPECT_FALSE(*read_ok);
}

// ------------------------------------------------------ parity (RAID-5)

class ParityTest : public RedundancyTest
{
  protected:
    static constexpr std::uint64_t kSu = 32 * kKB;

    /** Create a kParity object of @p width data units per row. */
    LogicalObjectId
    createParity(std::uint32_t width = 0)
    {
        return runFor(sim, client->create(kSu, width, 0, Redundancy::kParity))
            .value();
    }

    /** The drive index no component of @p id lives on. */
    std::uint32_t
    spareDrive(LogicalObjectId id)
    {
        auto map = runFor(sim, client->open(id, false)).value();
        std::vector<bool> used(drives.size(), false);
        for (const auto &c : map->components)
            used[c.drive] = true;
        for (std::uint32_t i = 0; i < used.size(); ++i) {
            if (!used[i])
                return i;
        }
        ADD_FAILURE() << "no spare drive";
        return 0;
    }
};

TEST_F(ParityTest, CreateAllocatesRotatingParityComponent)
{
    const auto id = createParity(2);
    auto map = runFor(sim, client->open(id, false));
    ASSERT_TRUE(map.ok());
    EXPECT_EQ(map.value()->redundancy, Redundancy::kParity);
    // width data units + 1 parity, all on distinct drives, none dead.
    ASSERT_EQ(map.value()->components.size(), 3u);
    EXPECT_EQ(map.value()->dead_component, -1);
    for (std::size_t i = 0; i < map.value()->components.size(); ++i) {
        for (std::size_t j = i + 1; j < map.value()->components.size();
             ++j) {
            EXPECT_NE(map.value()->components[i].drive,
                      map.value()->components[j].drive);
        }
    }
    // Left-symmetric rotation: parity moves every row.
    EXPECT_NE(layout::parityComponent(0, 2),
              layout::parityComponent(1, 2));
}

TEST_F(ParityTest, RoundTrip)
{
    const auto id = createParity();
    const auto data = pattern(700 * kKB, 9);
    ASSERT_TRUE(runFor(sim, client->write(id, 0, data)).ok());
    std::vector<std::uint8_t> out(700 * kKB);
    auto n = runFor(sim, client->read(id, 0, out));
    ASSERT_TRUE(n.ok());
    EXPECT_FALSE(n.value().degraded());
    EXPECT_EQ(out, data);
}

TEST_F(ParityTest, RmwFswBoundaryOffsetsKeepParityConsistent)
{
    // Width 2: one row is 64 KB of data. Apply writes at every kind of
    // boundary — full-stripe, sub-unit, unit-crossing, row-crossing —
    // against a host-side model, then verify both the healthy read AND
    // a degraded read. The degraded read XORs parity back in, so it
    // fails if any RMW left parity stale.
    const auto id = createParity(2);
    const std::uint64_t row_bytes = 2 * kSu;
    std::vector<std::uint8_t> model(5 * row_bytes, 0);

    const std::pair<std::uint64_t, std::uint64_t> cases[] = {
        {0, row_bytes},                  // aligned full-stripe write
        {row_bytes + 5000, 1000},        // small RMW inside one unit
        {kSu - 100, 200},                // crossing a unit boundary
        {2 * row_bytes - 300, 600},      // crossing a row boundary
        {3 * row_bytes, row_bytes},      // second aligned FSW
        {10, 2 * row_bytes},             // partial + full + partial rows
    };
    std::uint8_t seed = 40;
    for (const auto &[off, len] : cases) {
        const auto chunk = pattern(len, seed++);
        ASSERT_TRUE(runFor(sim, client->write(id, off, chunk)).ok());
        std::copy(chunk.begin(), chunk.end(),
                  model.begin() + static_cast<std::ptrdiff_t>(off));
    }

    std::vector<std::uint8_t> out(model.size());
    auto healthy = runFor(sim, client->read(id, 0, out));
    ASSERT_TRUE(healthy.ok());
    EXPECT_EQ(out, model);
    expectRowsConsistent(id);

    auto map = runFor(sim, client->open(id, false)).value();
    drives[map->components[1].drive]->setFailed(true);
    std::fill(out.begin(), out.end(), 0);
    auto degraded = runFor(sim, client->read(id, 0, out));
    ASSERT_TRUE(degraded.ok());
    EXPECT_TRUE(degraded.value().degraded());
    EXPECT_EQ(out, model);
    EXPECT_GT(client->reconstructedUnits(), 0u);
}

TEST_F(ParityTest, DegradedReadSurvivesAnySingleFailure)
{
    for (int victim = 0; victim < kDrives; ++victim) {
        for (auto &d : drives)
            d->setFailed(false);
        const auto id = createParity(); // 3 data + parity over 4 drives
        const auto data = pattern(512 * kKB,
                                  static_cast<std::uint8_t>(victim + 1));
        ASSERT_TRUE(runFor(sim, client->write(id, 0, data)).ok());

        drives[victim]->setFailed(true);
        std::vector<std::uint8_t> out(512 * kKB);
        auto n = runFor(sim, client->read(id, 0, out));
        ASSERT_TRUE(n.ok()) << "victim drive " << victim;
        EXPECT_EQ(out, data) << "victim drive " << victim;
    }
}

TEST_F(ParityTest, DegradedWriteUpdatesSurvivorsAndParity)
{
    const auto id = createParity(2);
    const std::uint64_t row_bytes = 2 * kSu;
    const auto data = pattern(4 * row_bytes, 11);
    ASSERT_TRUE(runFor(sim, client->write(id, 0, data)).ok());

    auto map = runFor(sim, client->open(id, false)).value();
    const auto victim_drive = map->components[0].drive;
    drives[victim_drive]->setFailed(true);

    // An unaligned degraded write: the row recompute path must fold the
    // new bytes into parity using only the survivors.
    auto updated = data;
    const auto chunk = pattern(50 * kKB, 99);
    const std::uint64_t off = kSu + 1234; // touches the dead component's rows
    ASSERT_TRUE(runFor(sim, client->write(id, off, chunk)).ok());
    std::copy(chunk.begin(), chunk.end(),
              updated.begin() + static_cast<std::ptrdiff_t>(off));

    std::vector<std::uint8_t> out(updated.size());
    auto n = runFor(sim, client->read(id, 0, out));
    ASSERT_TRUE(n.ok());
    EXPECT_TRUE(n.value().degraded());
    EXPECT_EQ(out, updated);
}

TEST_F(ParityTest, DegradedWriteIntoDeadUnitRebuildsParity)
{
    // The write covers the tail of a row's first data unit, which lives
    // on the failed drive, and the head of its second. The new parity
    // must fold in the dead unit's untouched head (reconstructed from
    // the old row) and its new tail; a degraded read checks both.
    const auto id = createParity(2);
    const std::uint64_t row_bytes = 2 * kSu;
    auto model = pattern(4 * row_bytes, 17);
    ASSERT_TRUE(runFor(sim, client->write(id, 0, model)).ok());

    const std::uint64_t row = 1;
    auto map = runFor(sim, client->open(id, false)).value();
    const std::uint32_t dead = layout::dataComponent(row, 0, 2);
    drives[map->components[dead].drive]->setFailed(true);

    const std::uint64_t off = row * row_bytes + kSu / 2;
    const auto chunk = pattern(kSu, 77);
    ASSERT_TRUE(runFor(sim, client->write(id, off, chunk)).ok());
    std::copy(chunk.begin(), chunk.end(),
              model.begin() + static_cast<std::ptrdiff_t>(off));

    std::vector<std::uint8_t> out(model.size());
    auto n = runFor(sim, client->read(id, 0, out));
    ASSERT_TRUE(n.ok());
    EXPECT_TRUE(n.value().degraded());
    EXPECT_EQ(out, model);
}

TEST_F(ParityTest, DoubleFailureLosesData)
{
    const auto id = createParity();
    ASSERT_TRUE(runFor(sim, client->write(id, 0, pattern(kMB))).ok());
    auto map = runFor(sim, client->open(id, false)).value();
    drives[map->components[0].drive]->setFailed(true);
    drives[map->components[1].drive]->setFailed(true);
    std::vector<std::uint8_t> out(kMB);
    auto r = runFor(sim, client->read(id, 0, out));
    ASSERT_FALSE(r.ok());
}

TEST_F(ParityTest, ParityRequiresTwoDrives)
{
    // One drive cannot keep a row's parity apart from its data; two
    // drives hold width 1, a mirror.
    for (const std::uint32_t n : {1u, 2u}) {
        std::vector<NasdDrive *> some(raw.begin(), raw.begin() + n);
        auto &node = net.addNode("mgr" + std::to_string(n),
                                 net::alphaStation500(), net::oc3Link(),
                                 net::dceRpcCosts());
        CheopsManager small(sim, net, node, some, n);
        runTask(sim, small.initialize(64 * kMB));
        CheopsClient c(net, client_node, small, some);
        auto id = runFor(sim, c.create(kSu, 0, 0, Redundancy::kParity));
        ASSERT_EQ(id.ok(), n == 2) << n << " drives";
        if (n == 2) {
            auto map = runFor(sim, c.open(id.value(), false));
            ASSERT_TRUE(map.ok());
            EXPECT_EQ(map.value()->components.size(), 2u);
        }
    }
}

TEST_F(ParityTest, ReturningDriveServesNoBytesItMissed)
{
    // A row write that goes degraded names the component it missed
    // dead: once its drive is back, no client — the writer or a fresh
    // one — is served its stale unit, at any width.
    for (const std::uint32_t width : {1u, 2u}) {
        for (auto &d : drives)
            d->setFailed(false);
        auto created =
            runFor(sim, client->create(kSu, width, 0, Redundancy::kParity));
        ASSERT_TRUE(created.ok()) << "width " << width;
        const auto id = created.value();
        auto model = pattern(4 * width * kSu, 61);
        ASSERT_TRUE(runFor(sim, client->write(id, 0, model)).ok());

        auto map = runFor(sim, client->open(id, false)).value();
        const std::uint32_t victim = layout::dataComponent(0, 0, width);
        const auto victim_drive = map->components[victim].drive;
        drives[victim_drive]->setFailed(true);
        const auto chunk = pattern(kSu, 62);
        ASSERT_TRUE(runFor(sim, client->write(id, 0, chunk)).ok());
        std::copy(chunk.begin(), chunk.end(), model.begin());
        drives[victim_drive]->setFailed(false);

        CheopsClient fresh(net, client_node, storage(), raw);
        for (CheopsClient *reader : {client.get(), &fresh}) {
            std::vector<std::uint8_t> out(model.size());
            auto n = runFor(sim, reader->read(id, 0, out));
            ASSERT_TRUE(n.ok()) << "width " << width;
            EXPECT_TRUE(n.value().degraded()) << "width " << width;
            EXPECT_EQ(out, model) << "width " << width;
            EXPECT_EQ(runFor(sim, reader->open(id, false))
                          .value()
                          ->dead_component,
                      victim);
        }
    }
}

TEST_F(ParityTest, StaleMapWriterKeepsRowsConsistent)
{
    // A client that opened before another client named a component
    // dead meets the mark's fence at its next survivor op: it refreshes
    // and writes degraded, instead of folding the returned drive's
    // stale unit into parity as "old" data.
    const auto id = createParity(2);
    auto model = pattern(8 * 2 * kSu, 71);
    ASSERT_TRUE(runFor(sim, client->write(id, 0, model)).ok());
    CheopsClient stale(net, client_node, storage(), raw);
    ASSERT_TRUE(runFor(sim, stale.open(id, true)).ok());

    auto map = runFor(sim, client->open(id, false)).value();
    const auto victim_drive =
        map->components[layout::dataComponent(0, 0, 2)].drive;
    drives[victim_drive]->setFailed(true);
    const auto chunk = pattern(kSu, 72);
    ASSERT_TRUE(runFor(sim, client->write(id, 0, chunk)).ok());
    std::copy(chunk.begin(), chunk.end(), model.begin());
    drives[victim_drive]->setFailed(false);

    const auto small = pattern(1000, 73);
    ASSERT_TRUE(runFor(sim, stale.write(id, 100, small)).ok());
    std::copy(small.begin(), small.end(), model.begin() + 100);

    CheopsClient fresh(net, client_node, storage(), raw);
    std::vector<std::uint8_t> out(model.size());
    ASSERT_TRUE(runFor(sim, fresh.read(id, 0, out)).ok());
    EXPECT_EQ(out, model);

    ASSERT_TRUE(runFor(sim, client->startRebuild(
                                id, layout::dataComponent(0, 0, 2),
                                victim_drive))
                    .ok());
    sim.run();
    expectRowsConsistent(id);
    ASSERT_TRUE(runFor(sim, fresh.read(id, 0, out)).ok());
    EXPECT_EQ(out, model);
}

TEST_F(ParityTest, RebuildMovesComponentToSpare)
{
    const auto id = createParity(2); // 3 components, 1 spare drive left
    const auto data = pattern(12 * 2 * kSu, 3);
    ASSERT_TRUE(runFor(sim, client->write(id, 0, data)).ok());

    const std::uint32_t spare = spareDrive(id);
    auto before = runFor(sim, client->open(id, false)).value();
    const std::uint32_t victim_comp = 0;
    const auto victim_drive = before->components[victim_comp].drive;
    drives[victim_drive]->setFailed(true);

    ASSERT_TRUE(
        runFor(sim, client->startRebuild(id, victim_comp, spare, {})).ok());
    sim.run(); // drain the rebuild engine

    auto prog = storage().rebuildProgress(id);
    EXPECT_TRUE(prog.known);
    EXPECT_FALSE(prog.active);
    EXPECT_EQ(prog.rows_done, prog.rows_total);
    EXPECT_GT(prog.bytes_reconstructed, 0u);
    EXPECT_GT(prog.finished_at, prog.started_at);

    // Reads come back healthy from the spare — the victim stays dead.
    std::vector<std::uint8_t> out(data.size());
    auto n = runFor(sim, client->read(id, 0, out));
    ASSERT_TRUE(n.ok());
    EXPECT_EQ(out, data);
    auto after = runFor(sim, client->open(id, false)).value();
    EXPECT_EQ(after->components[victim_comp].drive, spare);
}

TEST_F(ParityTest, RebuildRejectsSpareSharingASpindle)
{
    const auto id = createParity(2);
    ASSERT_TRUE(runFor(sim, client->write(id, 0, pattern(4 * kSu))).ok());
    auto map = runFor(sim, client->open(id, false)).value();
    // A surviving component's drive cannot be the rebuild target.
    auto r = runFor(sim, 
        client->startRebuild(id, 0, map->components[1].drive, {}));
    ASSERT_FALSE(r.ok());
}

TEST_F(ParityTest, RebuildCompletesWhileWriting)
{
    const auto id = createParity(2);
    const std::uint64_t row_bytes = 2 * kSu;
    const auto data = pattern(16 * row_bytes, 7);
    ASSERT_TRUE(runFor(sim, client->write(id, 0, data)).ok());

    const std::uint32_t spare = spareDrive(id);
    auto map = runFor(sim, client->open(id, false)).value();
    const std::uint32_t victim_comp = 1;
    drives[map->components[victim_comp].drive]->setFailed(true);

    // Throttle the engine so foreground writes interleave with it:
    // one row per 2 ms of simulated time.
    RebuildThrottle throttle;
    throttle.token_interval_ns = 2'000'000;
    throttle.burst = 1;
    ASSERT_TRUE(
        runFor(sim, client->startRebuild(id, victim_comp, spare, throttle))
            .ok());

    // Overwrite everything while the engine runs. The first component
    // write trips the rebuild fence (version bump), refreshes, and the
    // rest of the update runs under the rebuild lock with write-through
    // to the spare — rows the engine already passed still get the new
    // bytes.
    const auto updated = pattern(16 * row_bytes, 123);
    ASSERT_TRUE(runFor(sim, client->write(id, 0, updated)).ok());
    sim.run();

    auto prog = storage().rebuildProgress(id);
    EXPECT_TRUE(prog.known);
    EXPECT_FALSE(prog.active);
    EXPECT_EQ(prog.rows_done, prog.rows_total);

    std::vector<std::uint8_t> out(updated.size());
    auto n = runFor(sim, client->read(id, 0, out));
    ASSERT_TRUE(n.ok());
    EXPECT_EQ(out, updated);
    expectRowsConsistent(id);
}

TEST_F(ParityTest, MirrorDivergenceFencedUntilRebuilt)
{
    // A mirror write that lands on one side only must not let later
    // reads serve the stale copy as if it were current.
    const auto id = createParity(1);
    const auto v1 = pattern(4 * kSu, 41);
    ASSERT_TRUE(runFor(sim, client->write(id, 0, v1)).ok());

    auto map = runFor(sim, client->open(id, false)).value();
    const auto primary = map->components[0].drive;
    const auto mirror = map->components[1].drive;
    // Make v1 durable on both sides, then lose the mirror.
    (void)runFor(sim, drives[primary]->serveFlush());
    (void)runFor(sim, drives[mirror]->serveFlush());
    drives[mirror]->crash();

    // The overwrite reaches the primary only; the client reports the
    // mirror's component dead.
    const auto v2 = pattern(4 * kSu, 42);
    ASSERT_TRUE(runFor(sim, client->write(id, 0, v2)).ok());
    EXPECT_EQ(runFor(sim, client->open(id, false)).value()->dead_component,
              1);

    // The mirror comes back with pre-divergence bytes; then the
    // primary — the only good copy — goes down.
    runTask(sim, drives[mirror]->restart());
    (void)runFor(sim, drives[primary]->serveFlush());
    drives[primary]->crash();

    // The dead component is sent nothing, so the read errors out
    // instead of silently returning v1.
    std::vector<std::uint8_t> out(v2.size());
    auto stale = runFor(sim, client->read(id, 0, out));
    ASSERT_FALSE(stale.ok());

    // No rebuild can heal while the only good copy is down, and only
    // the dead component may be rebuilt.
    ASSERT_FALSE(runFor(sim, client->startRebuild(id, 1, mirror)).ok());
    runTask(sim, drives[primary]->restart());
    ASSERT_FALSE(runFor(sim, client->startRebuild(id, 0, 2)).ok());

    // With the primary back, a rebuild onto the returned drive copies
    // v2 across, lifts the fence and removes the stale object;
    // afterwards the mirror alone serves the new bytes.
    ASSERT_TRUE(runFor(sim, client->startRebuild(id, 1, mirror)).ok());
    sim.run();
    EXPECT_EQ(runFor(sim, drives[mirror]->store().listObjects(0))
                  .value()
                  .size(),
              1u);
    expectRowsConsistent(id);
    // The writer's next read meets the completion's fence on the
    // primary and refreshes onto the rebuilt map.
    ASSERT_TRUE(runFor(sim, client->read(id, 0, out)).ok());
    EXPECT_EQ(out, v2);
    drives[primary]->crash();
    std::fill(out.begin(), out.end(), 0);
    auto healed = runFor(sim, client->read(id, 0, out));
    ASSERT_TRUE(healed.ok());
    EXPECT_TRUE(healed.value().degraded());
    EXPECT_EQ(out, v2);
}

/** An aborted rebuild: the spare it allocated is removed again, and
 *  the abort is journaled. */
class RebuildAbortTest : public ParityTest
{
  protected:
    /** Start a throttled rebuild of component 0 onto the spare drive
     *  and run until the engine has done @p rows rows. */
    void
    startRebuildAndRun(LogicalObjectId id, std::uint64_t rows)
    {
        spare = spareDrive(id);
        spare_objects = listSpare();
        // The manager node's journal is process-wide: count from here.
        const auto &journal = storage().node().flightJournal();
        for (std::size_t i = 0; i < journal.size(); ++i)
            journal_mark = std::max(journal_mark, journal.at(i).seq);
        auto map = runFor(sim, client->open(id, false)).value();
        survivor = map->components[1].drive;
        drives[map->components[0].drive]->setFailed(true);

        RebuildThrottle throttle;
        throttle.token_interval_ns = 2'000'000;
        throttle.burst = 1;
        sim.spawn([](Task<util::Result<void, CheopsStatus>> t,
                     bool &ok) -> Task<void> {
            ok = (co_await std::move(t)).ok();
        }(client->startRebuild(id, 0, spare, throttle), started));
        for (int step = 0;
             step < 1000 &&
             !(started && storage().rebuildProgress(id).rows_done >= rows);
             ++step)
            sim.runUntil(sim.now() + 1'000'000);
        ASSERT_TRUE(started);
        const auto prog = storage().rebuildProgress(id);
        ASSERT_TRUE(prog.active);
        ASSERT_GE(prog.rows_done, rows);
        ASSERT_LT(prog.rows_done, prog.rows_total);
    }

    /** The spare partition's objects (runs the simulator dry). */
    std::vector<ObjectId>
    listSpare()
    {
        return runFor(sim, drives[spare]->store().listObjects(0)).value();
    }

    /** Run until the engine reports itself inactive. */
    void
    runUntilInactive(LogicalObjectId id)
    {
        for (int step = 0; step < 1000 && storage().rebuildProgress(id).active;
             ++step)
            sim.runUntil(sim.now() + 1'000'000);
        const auto prog = storage().rebuildProgress(id);
        EXPECT_FALSE(prog.active);
        EXPECT_LT(prog.rows_done, prog.rows_total);
        EXPECT_GE(prog.finished_at, prog.started_at);
    }

    /** Events of kind @p name journaled at @p node (the manager by
     *  default) since the rebuild started. */
    std::size_t
    journaled(std::string_view name, net::NetNode *node = nullptr)
    {
        std::size_t n = 0;
        const auto &journal = (node ? *node : storage().node()).flightJournal();
        for (std::size_t i = 0; i < journal.size(); ++i) {
            const auto &e = journal.at(i);
            n += e.seq > journal_mark && util::frEventName(e.kind) == name;
        }
        return n;
    }

    /** Run @p task to completion in 1 ms steps, so a throttled
     *  rebuild is still running when it returns. */
    template <typename T>
    T
    runStepped(Task<T> task)
    {
        std::optional<T> result;
        sim.spawn([](Task<T> t, std::optional<T> &out) -> Task<void> {
            out = co_await std::move(t);
        }(std::move(task), result));
        for (int step = 0; step < 1000 && !result; ++step)
            sim.runUntil(sim.now() + 1'000'000);
        EXPECT_TRUE(result.has_value());
        return std::move(*result);
    }

    std::uint32_t spare = 0;
    std::uint32_t survivor = 0;
    std::vector<ObjectId> spare_objects;
    std::uint64_t journal_mark = 0;
    bool started = false;
};

TEST_F(RebuildAbortTest, SecondFailureRemovesTheSpare)
{
    const auto id = createParity(2);
    ASSERT_TRUE(
        runFor(sim, client->write(id, 0, pattern(16 * 2 * kSu, 5))).ok());
    startRebuildAndRun(id, 3);

    // A second survivor dies: the row cannot be reconstructed.
    drives[survivor]->setFailed(true);
    runUntilInactive(id);
    EXPECT_EQ(listSpare(), spare_objects);
    EXPECT_EQ(journaled("rebuild_abort"), 1u);
    EXPECT_EQ(journaled("rebuild_complete"), 0u);
}

TEST_F(RebuildAbortTest, RemovedObjectRemovesTheSpare)
{
    const auto id = createParity(2);
    ASSERT_TRUE(
        runFor(sim, client->write(id, 0, pattern(16 * 2 * kSu, 6))).ok());
    startRebuildAndRun(id, 2);

    // The failed drive keeps its component, so the remove reports
    // kDriveError; the object is gone from the manager either way.
    EXPECT_FALSE(runFor(sim, client->remove(id)).ok());
    runUntilInactive(id);
    EXPECT_EQ(listSpare(), spare_objects);
    EXPECT_EQ(journaled("rebuild_abort"), 1u);
}

TEST_F(RebuildAbortTest, AbortFencesClientsHoldingTheRebuildingMap)
{
    const auto id = createParity(2);
    ASSERT_TRUE(
        runFor(sim, client->write(id, 0, pattern(64 * 2 * kSu, 7))).ok());
    startRebuildAndRun(id, 3);

    // A write during the rebuild leaves the client holding the
    // writable `rebuilding` map.
    const auto during = pattern(2 * kSu, 8);
    ASSERT_TRUE(runStepped(client->write(id, 0, during)).ok());
    EXPECT_GE(journaled("write_through", &client_node), 1u);
    ASSERT_TRUE(runStepped(client->open(id, true)).value()->rebuilding);

    // A second failure aborts the rebuild and removes the spare; then
    // the survivor comes back, so the object is writable again.
    drives[survivor]->setFailed(true);
    runUntilInactive(id);
    drives[survivor]->setFailed(false);
    EXPECT_EQ(listSpare(), spare_objects);
    const std::size_t through = journaled("write_through", &client_node);
    const std::size_t refreshed = journaled("map_refresh", &client_node);

    // The stale client is refused the rebuild lock, refreshes onto the
    // post-abort map and writes degraded; nothing goes to the spare.
    const auto after = pattern(2 * kSu, 9);
    ASSERT_TRUE(runFor(sim, client->write(id, 0, after)).ok());
    EXPECT_EQ(journaled("write_through", &client_node), through);
    EXPECT_GT(journaled("map_refresh", &client_node), refreshed);
    EXPECT_FALSE(runFor(sim, client->open(id, true)).value()->rebuilding);
    EXPECT_EQ(listSpare(), spare_objects);

    std::vector<std::uint8_t> out(after.size());
    ASSERT_TRUE(runFor(sim, client->read(id, 0, out)).ok());
    EXPECT_EQ(out, after);
}

TEST_F(RebuildAbortTest, StaleClientWritesWhileTheSpareIsBeingRemoved)
{
    const auto id = createParity(2);
    ASSERT_TRUE(
        runFor(sim, client->write(id, 0, pattern(64 * 2 * kSu, 12))).ok());
    startRebuildAndRun(id, 3);
    ASSERT_TRUE(runStepped(client->write(id, 0, pattern(2 * kSu, 13))).ok());
    ASSERT_TRUE(runStepped(client->open(id, true)).value()->rebuilding);

    // Step to the abort fence. The spare removal is then on its way,
    // and a job queued ahead of it on the spare's CPU (shorter than the
    // RPC deadline) keeps it in flight while the stale client writes.
    const std::size_t fences = journaled("version_fence");
    drives[survivor]->setFailed(true);
    for (int step = 0;
         step < 200'000 && journaled("version_fence") == fences; ++step)
        sim.runUntil(sim.now() + 1'000);
    ASSERT_GT(journaled("version_fence"), fences);
    sim.spawn(drives[spare]->node().cpu().occupy(sim::msec(500)));
    drives[survivor]->setFailed(false);
    const std::size_t through = journaled("write_through", &client_node);

    const auto after = pattern(2 * kSu, 14);
    ASSERT_TRUE(runStepped(client->write(id, 0, after)).ok());
    EXPECT_TRUE(storage().rebuildProgress(id).active); // removal still running
    EXPECT_EQ(journaled("write_through", &client_node), through);
    EXPECT_FALSE(runStepped(client->open(id, true)).value()->rebuilding);

    runUntilInactive(id);
    EXPECT_EQ(listSpare(), spare_objects);
    std::vector<std::uint8_t> out(after.size());
    ASSERT_TRUE(runFor(sim, client->read(id, 0, out)).ok());
    EXPECT_EQ(out, after);
}

TEST_F(RebuildAbortTest, CompletedRebuildRefusesTheLock)
{
    // A client opened during the rebuild still holds the `rebuilding`
    // map after it completes. Its next row write is refused the
    // rebuild lock and refreshes once; no component op of the row
    // meets the survivors' version fence (each would refresh again).
    const auto id = createParity(2);
    ASSERT_TRUE(
        runFor(sim, client->write(id, 0, pattern(16 * 2 * kSu, 19))).ok());
    startRebuildAndRun(id, 3);
    CheopsClient late(net, client_node, storage(), raw);
    ASSERT_TRUE(runStepped(late.open(id, true)).value()->rebuilding);
    sim.run();
    ASSERT_EQ(journaled("rebuild_complete"), 1u);

    const std::size_t locks = journaled("row_lock_acquire");
    const std::size_t refreshes = journaled("cap_refresh", &client_node);
    const auto row = pattern(2 * kSu, 20);
    ASSERT_TRUE(runFor(sim, late.write(id, 0, row)).ok());
    EXPECT_EQ(journaled("row_lock_acquire"), locks);
    EXPECT_EQ(journaled("cap_refresh", &client_node), refreshes + 1);
    EXPECT_FALSE(runFor(sim, late.open(id, true)).value()->rebuilding);

    std::vector<std::uint8_t> out(row.size());
    ASSERT_TRUE(runFor(sim, late.read(id, 0, out)).ok());
    EXPECT_EQ(out, row);
    expectRowsConsistent(id);
}

TEST_F(RebuildAbortTest, RebuildAfterAnAbortAdmitsClients)
{
    const auto id = createParity(2);
    ASSERT_TRUE(
        runFor(sim, client->write(id, 0, pattern(64 * 2 * kSu, 15))).ok());
    startRebuildAndRun(id, 3);
    drives[survivor]->setFailed(true);
    runUntilInactive(id);
    drives[survivor]->setFailed(false);

    // The object rebuilds again; a write during that rebuild takes its
    // lock and writes through to the new spare.
    started = false;
    startRebuildAndRun(id, 3);
    const auto during = pattern(2 * kSu, 16);
    ASSERT_TRUE(runStepped(client->write(id, 0, during)).ok());
    EXPECT_GE(journaled("write_through", &client_node), 1u);

    sim.run();
    const auto prog = storage().rebuildProgress(id);
    EXPECT_FALSE(prog.active);
    EXPECT_EQ(prog.rows_done, prog.rows_total);
    EXPECT_EQ(journaled("rebuild_complete"), 1u);
    std::vector<std::uint8_t> out(during.size());
    ASSERT_TRUE(runFor(sim, client->read(id, 0, out)).ok());
    EXPECT_EQ(out, during);
}

} // namespace
} // namespace nasd::cheops
