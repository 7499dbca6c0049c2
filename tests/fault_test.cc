/**
 * @file
 * End-to-end fault injection: message drop/duplicate/delay plans,
 * drive crash and restart, network partitions, and capability expiry
 * mid-stream — driven through the raw NASD client, Cheops, NFS, and
 * AFS. Every scenario uses a fixed Rng seed so failures replay
 * bit-for-bit.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "cheops/cheops.h"
#include "fs/afs/afs.h"
#include "fs/nfs/nasd_nfs.h"
#include "nasd/capability.h"
#include "nasd/client.h"
#include "nasd/drive.h"
#include "net/network.h"
#include "net/presets.h"
#include "rig/cluster.h"
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
        v[i] = static_cast<std::uint8_t>(seed + i * 13);
    return v;
}

/** A quick retry policy so fault scenarios finish in simulated ms. */
DriveRetryPolicy
fastPolicy(int attempts, sim::Tick timeout = sim::msec(50))
{
    DriveRetryPolicy p;
    p.timeout = timeout;
    p.max_attempts = attempts;
    p.backoff_base = sim::msec(2);
    p.backoff_cap = sim::msec(20);
    return p;
}

// ------------------------------------------------------ raw drive RPCs

class DriveFaultTest : public ::testing::Test, public rig::DriveRig
{
  protected:
    DriveFaultTest() : DriveRig(prototypeDriveConfig("nasd0", 1), 256 * kMB) {}

    CredentialFactory
    objectCred(ObjectId oid)
    {
        return credential(oid, kRightRead | kRightWrite | kRightGetAttr |
                                   kRightSetAttr | kRightRemove |
                                   kRightVersion);
    }

    net::NetNode &node = client.node();
};

TEST_F(DriveFaultTest, DropTimeoutRetrySucceeds)
{
    const ObjectId oid = createObject();
    auto cred = objectCred(oid);
    const auto data = pattern(8 * kKB);
    ASSERT_TRUE(runFor(sim, client.write(cred, 0, data)).ok());

    client.setPolicy(fastPolicy(6));
    net::FaultPlan plan;
    plan.drop_probability = 0.2;
    plan.seed = 9;
    net.setFaultPlan(plan);

    // A lossy network costs retries, never answers: every read still
    // returns the right bytes.
    for (int i = 0; i < 25; ++i) {
        auto r = runFor(sim, client.read(cred, 0, 8 * kKB));
        ASSERT_TRUE(r.ok()) << "read " << i;
        EXPECT_EQ(r.value(), data);
    }
    EXPECT_GT(node.faults_dropped.value() + drive.node().faults_dropped.value(),
              0u);
    EXPECT_GT(node.rpc_timeouts.value(), 0u);
}

TEST_F(DriveFaultTest, CrashedDriveRejectsThenRestartServes)
{
    const ObjectId oid = createObject();
    auto cred = objectCred(oid);
    const auto data = pattern(16 * kKB, 5);
    ASSERT_TRUE(runFor(sim, client.write(cred, 0, data)).ok());
    runTask(sim, client.flush()); // push write-behind to media

    drive.crash();
    auto while_down = runFor(sim, client.read(cred, 0, 16 * kKB));
    ASSERT_FALSE(while_down.ok());
    EXPECT_EQ(while_down.error(), NasdStatus::kDriveUnavailable);

    runTask(sim, drive.restart());
    auto after = runFor(sim, client.read(cred, 0, 16 * kKB));
    ASSERT_TRUE(after.ok());
    EXPECT_EQ(after.value(), data);
}

TEST_F(DriveFaultTest, CrashWhileInTheStoreRejectsTheOp)
{
    // After a restart the object's inode is cold, so a getattr reads
    // it from the media; the drive crashes while that read is on the
    // media. An op already inside the store is rejected like any other.
    const ObjectId oid = createObject();
    auto cred = objectCred(oid);
    ASSERT_TRUE(runFor(sim, client.write(cred, 0, pattern(4 * kKB))).ok());
    runTask(sim, client.flush());
    drive.crash();
    runTask(sim, drive.restart());

    const RequestParams params{OpCode::kGetAttr, 0, oid, 0, 0};
    std::optional<AttrResponse> resp;
    sim.spawn([](NasdDrive &d, RequestCredential c, RequestParams p,
                 std::optional<AttrResponse> &out) -> Task<void> {
        out = co_await d.serveGetAttr(c, p);
    }(drive, cred.forRequest(params), params, resp));
    // The capability check takes tens of microseconds, a media read
    // milliseconds.
    sim.runUntil(sim.now() + sim::msec(1));
    ASSERT_FALSE(resp.has_value()) << "getattr left the store too soon";
    drive.crash();
    sim.run();

    ASSERT_TRUE(resp.has_value());
    EXPECT_EQ(resp->status, NasdStatus::kDriveUnavailable);
}

TEST_F(DriveFaultTest, ProbeReportsLivenessAndFreeSpace)
{
    // Healthy: free space is the partition quota minus allocations.
    auto before = runFor(sim, client.probe(0));
    ASSERT_TRUE(before.ok());
    EXPECT_EQ(before.value().drive_id, drive.config().drive_id);
    EXPECT_GT(before.value().free_bytes, 0u);

    const ObjectId oid = createObject();
    auto cred = objectCred(oid);
    ASSERT_TRUE(runFor(sim, client.write(cred, 0, pattern(64 * kKB))).ok());
    auto after = runFor(sim, client.probe(0));
    ASSERT_TRUE(after.ok());
    EXPECT_LT(after.value().free_bytes, before.value().free_bytes);

    // A crashed drive answers unavailable (fast reply, not a hang);
    // restart makes the probe serve again.
    drive.crash();
    auto down = runFor(sim, client.probe(0));
    ASSERT_FALSE(down.ok());
    EXPECT_EQ(down.error(), NasdStatus::kDriveUnavailable);
    runTask(sim, drive.restart());
    EXPECT_TRUE(runFor(sim, client.probe(0)).ok());
}

TEST_F(DriveFaultTest, PartitionSurfacesTimeoutThenHeals)
{
    const ObjectId oid = createObject();
    auto cred = objectCred(oid);
    ASSERT_TRUE(runFor(sim, client.write(cred, 0, pattern(4 * kKB))).ok());

    client.setPolicy(fastPolicy(2, sim::msec(30)));
    net.partitionNode(drive.node());
    const auto timeouts_before = node.rpc_timeouts.value();
    auto r = runFor(sim, client.read(cred, 0, 4 * kKB));
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error(), NasdStatus::kTimeout);
    EXPECT_GE(node.rpc_timeouts.value(), timeouts_before + 2);

    net.healNode(drive.node());
    auto healed = runFor(sim, client.read(cred, 0, 4 * kKB));
    ASSERT_TRUE(healed.ok());
    EXPECT_EQ(healed.value(), pattern(4 * kKB));
}

TEST_F(DriveFaultTest, DuplicateDeliveryWriteNotDoubleApplied)
{
    const ObjectId oid = createObject();
    auto cred = objectCred(oid);

    net::FaultPlan plan;
    plan.duplicate_probability = 1.0;
    plan.seed = 3;
    net.setFaultPlan(plan);

    // Both copies of the write request reach the drive; the nonce
    // window must reject the second so the op applies exactly once.
    const auto data = pattern(8 * kKB, 21);
    ASSERT_TRUE(runFor(sim, client.write(cred, 0, data)).ok());
    EXPECT_GE(drive.replaysRejected(), 1u);

    auto attrs = runFor(sim, client.getAttr(cred));
    ASSERT_TRUE(attrs.ok());
    EXPECT_EQ(attrs.value().size, 8 * kKB);
    auto r = runFor(sim, client.read(cred, 0, 8 * kKB));
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value(), data);
}

// Every write message is held past the deadline, so write() times out
// while all of its attempts are still on their way to the drive. The
// caller then overwrites and frees its buffer; the attempts that land
// afterwards must still write the bytes the caller passed.
TEST_F(DriveFaultTest, StaleWriteAttemptLandsTheCallersBytes)
{
    const ObjectId oid = createObject();
    auto cred = objectCred(oid);
    const auto data = pattern(8 * kKB, 47);

    client.setPolicy(fastPolicy(2));
    net::FaultPlan plan;
    plan.delay_probability = 1.0;
    plan.delay_min = sim::msec(120);
    plan.delay_max = sim::msec(120);
    plan.seed = 5;
    net.setFaultPlan(plan);

    StoreResult<void> wrote{};
    runTask(sim, [](NasdClient &c, CredentialFactory &cr,
                    const std::vector<std::uint8_t> &bytes,
                    StoreResult<void> &out) -> Task<void> {
        auto buf = std::make_unique<std::vector<std::uint8_t>>(bytes);
        out = co_await c.write(cr, 0, *buf);
        std::fill(buf->begin(), buf->end(), 0xee);
        buf.reset();
    }(client, cred, data, wrote));
    ASSERT_FALSE(wrote.ok());
    EXPECT_EQ(wrote.error(), NasdStatus::kTimeout);
    EXPECT_GE(node.rpc_late_replies.value(), 1u);

    net.clearFaultPlan();
    auto r = runFor(sim, client.read(cred, 0, data.size()));
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value(), data);
}

// Without faults every attempt's delivery is over when write() returns,
// so no write keeps a copy of its bytes, pieces of a cut one included.
TEST_F(DriveFaultTest, FaultFreeWriteKeepsNothing)
{
    const ObjectId oid = createObject();
    auto cred = objectCred(oid);
    for (const std::size_t n : {std::size_t{0}, 4 * kKB, 2 * kMB, 5 * kMB})
        ASSERT_TRUE(runFor(sim, client.write(cred, 0, pattern(n))).ok());
    EXPECT_EQ(client.keptWrites(), 0u);
}

TEST_F(DriveFaultTest, TimeoutRacesLateReply)
{
    const ObjectId oid = createObject();
    auto cred = objectCred(oid);
    ASSERT_TRUE(runFor(sim, client.write(cred, 0, pattern(kKB))).ok());

    client.setPolicy(fastPolicy(2));
    net::FaultPlan plan;
    plan.delay_probability = 1.0;
    plan.delay_min = sim::msec(120);
    plan.delay_max = sim::msec(120);
    plan.seed = 5;
    net.setFaultPlan(plan);

    // Every message is held past the 50 ms deadline: the caller gets a
    // typed timeout and the replies that straggle in afterwards are
    // counted, not delivered.
    auto r = runFor(sim, client.read(cred, 0, kKB));
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error(), NasdStatus::kTimeout);
    EXPECT_GE(node.rpc_late_replies.value(), 1u);
}

TEST_F(DriveFaultTest, SpanReadUnderTimeoutsAndDuplicatesHoldsObjectBytes)
{
    const ObjectId oid = createObject();
    auto cred = objectCred(oid);
    const auto data = pattern(24 * kKB, 9);
    ASSERT_TRUE(runFor(sim, client.write(cred, 0, data)).ok());

    // Every message is duplicated and some are held past the deadline,
    // so attempts time out and late and duplicate replies keep
    // arriving after the read has returned.
    client.setPolicy(fastPolicy(8, sim::msec(40)));
    net::FaultPlan plan;
    plan.duplicate_probability = 1.0;
    plan.delay_probability = 0.3;
    plan.delay_min = sim::msec(30);
    plan.delay_max = sim::msec(60);
    plan.seed = 11;
    net.setFaultPlan(plan);

    for (int i = 0; i < 10; ++i) {
        std::vector<std::uint8_t> buf(32 * kKB, 0xa5);
        std::vector<std::uint8_t> after_return;
        StoreResult<std::uint64_t> got = util::Err{NasdStatus::kTimeout};
        runTask(sim, [](NasdClient &c, CredentialFactory &cr,
                        std::vector<std::uint8_t> &b,
                        StoreResult<std::uint64_t> &out,
                        std::vector<std::uint8_t> &snapshot,
                        Simulator &s) -> Task<void> {
            out = co_await c.read(cr, 1000, std::span(b));
            snapshot = b;
            // Let every straggling attempt finish: none may touch the
            // caller's buffer once read() has returned.
            co_await s.delay(sim::sec(2));
        }(client, cred, buf, got, after_return, sim));
        ASSERT_TRUE(got.ok()) << "read " << i;
        const std::uint64_t n = data.size() - 1000;
        ASSERT_EQ(got.value(), n);
        EXPECT_EQ(buf, after_return) << "read " << i;
        EXPECT_TRUE(std::equal(data.begin() + 1000, data.end(), buf.begin()));
        EXPECT_TRUE(std::all_of(buf.begin() + static_cast<std::ptrdiff_t>(n),
                                buf.end(),
                                [](std::uint8_t b) { return b == 0xa5; }));
    }
    EXPECT_GT(node.rpc_timeouts.value(), 0u);
    EXPECT_GT(node.rpc_late_replies.value(), 0u);
    EXPECT_GT(node.faults_duplicated.value() +
                  drive.node().faults_duplicated.value(),
              0u);
}

// A timed-out attempt that is still inside the store when read()
// returns must not land its bytes afterwards. The test above cannot
// tell: its stale attempts read the same bytes as the winner. Here the
// object is rewritten once read() has returned, so a stale attempt
// that still copied would change the caller's buffer.
TEST(StaleAttemptTest, SlowAttemptNeverLandsAfterTheReadReturns)
{
    DriveConfig cfg = prototypeDriveConfig("nasd0", 1);
    cfg.store.data_cache_bytes = 128 * kKB;
    rig::DriveRig rig(std::move(cfg), 256 * kMB);
    const ObjectId oid = rig.createObject();
    auto cred = rig.credential(oid, kRightRead | kRightWrite);
    const auto winner = pattern(64 * kKB, 3);
    const auto rewrite = pattern(64 * kKB, 101);
    ASSERT_TRUE(runFor(rig.sim, rig.client.write(cred, 0, winner)).ok());
    // Push the object out of the 128 KB drive cache, so the first
    // attempt has to go to the disk.
    const ObjectId filler = rig.createObject();
    auto filler_cred = rig.credential(filler, kRightWrite);
    ASSERT_TRUE(runFor(rig.sim, rig.client.write(filler_cred, 0,
                                                 pattern(256 * kKB, 7)))
                    .ok());
    runTask(rig.sim, rig.client.flush());

    rig.drive.slowDown(40.0);
    rig.client.setPolicy(fastPolicy(4, sim::msec(100)));
    const auto &reads = rig.drive.store().stats().reads;
    const std::uint64_t reads_before = reads.value();

    // Attempt 1 misses and waits on the slowed disk past its deadline.
    // Meanwhile a write of the same bytes makes the object resident,
    // so attempt 2 is served from the drive cache and wins instead of
    // queueing behind attempt 1.
    rig.sim.spawn([](NasdClient &c, CredentialFactory &cr,
                     const std::vector<std::uint8_t> &same,
                     Simulator &s) -> Task<void> {
        co_await s.delay(sim::msec(30));
        const auto w = co_await c.write(cr, 0, same);
        EXPECT_TRUE(w.ok());
    }(rig.client, cred, winner, rig.sim));

    std::vector<std::uint8_t> buf(64 * kKB, 0xa5);
    std::vector<std::uint8_t> at_return;
    std::uint64_t reads_at_return = 0;
    StoreResult<std::uint64_t> got = util::Err{NasdStatus::kTimeout};
    runTask(rig.sim,
            [](NasdClient &c, CredentialFactory &cr,
               std::vector<std::uint8_t> &b,
               const std::vector<std::uint8_t> &next,
               StoreResult<std::uint64_t> &out,
               std::vector<std::uint8_t> &snapshot, const util::Counter &r,
               std::uint64_t &r_at_return, Simulator &s) -> Task<void> {
                out = co_await c.read(cr, 0, std::span(b));
                snapshot = b;
                r_at_return = r.value();
                const auto w = co_await c.write(cr, 0, next);
                EXPECT_TRUE(w.ok());
                // Attempt 1 finishes its disk read in here, after the
                // rewrite: it must not touch the buffer.
                co_await s.delay(sim::sec(2));
            }(rig.client, cred, buf, rewrite, got, at_return, reads,
              reads_at_return, rig.sim));

    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value(), winner.size());
    EXPECT_TRUE(at_return == winner);
    EXPECT_TRUE(buf == at_return);
    // Attempt 1 was still inside the store when read() returned, and
    // finished its store read during the wait.
    EXPECT_EQ(reads_at_return, reads_before + 1);
    EXPECT_EQ(reads.value(), reads_before + 2);
    EXPECT_GE(rig.client.node().rpc_timeouts.value(), 1u);
}

TEST_F(DriveFaultTest, DroppedSendStillChargesSender)
{
    const ObjectId oid = createObject();
    auto cred = objectCred(oid);
    ASSERT_TRUE(runFor(sim, client.write(cred, 0, pattern(4 * kKB))).ok());

    client.setPolicy(fastPolicy(4, sim::msec(20)));
    net::FaultPlan plan;
    plan.drop_probability = 1.0;
    plan.seed = 1;
    net.setFaultPlan(plan);

    // A dropped frame is free for the switch, not for the sender: each
    // of the four attempts pays the full protocol send cost again.
    const auto instr_before = node.cpu().instructionsRetired();
    auto r = runFor(sim, client.read(cred, 0, 4 * kKB));
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error(), NasdStatus::kTimeout);
    const auto delta = node.cpu().instructionsRetired() - instr_before;
    EXPECT_GE(delta, 4 * node.costs().send_base_instr);
}

// ------------------------------------------------------------- Cheops

class CheopsFaultTest : public ::testing::Test, public rig::NasdCluster
{
  protected:
    static constexpr int kDrives = 4;

    CheopsFaultTest()
        : NasdCluster({.drives = kDrives, .partition_bytes = 512 * kMB})
    {
    }

    /** A kParity object of width 2 (drives 0-2; drive 3 stays spare)
     *  holding @p rows full rows. */
    cheops::LogicalObjectId
    createParity(std::uint64_t rows)
    {
        const auto id = runFor(sim, client->create(32 * kKB, 2, 0,
                                                   cheops::Redundancy::kParity))
                            .value();
        EXPECT_TRUE(
            runFor(sim, client->write(id, 0, pattern(rows * 64 * kKB, 3)))
                .ok());
        return id;
    }

    /** Delay every drive message by 300 ms (inside the 2 s attempt
     *  deadline) from now on. */
    void
    delayMessages()
    {
        net::FaultPlan plan;
        plan.delay_probability = 1.0;
        plan.delay_min = sim::msec(300);
        plan.delay_max = sim::msec(300);
        plan.seed = 31;
        net.setFaultPlan(plan);
    }

    /** Once @p drive sends a delayed reply (a request there was
     *  served), heal the network and remove object @p id at the
     *  manager; the remove finishes while that reply is on its way. */
    Task<void>
    removeOnReply(cheops::LogicalObjectId id, NasdDrive &drive,
                  std::optional<cheops::CheopsStatus> &out)
    {
        const auto before = drive.node().faults_delayed.value();
        for (int step = 0; step < 1'000'000 &&
                           drive.node().faults_delayed.value() == before;
             ++step)
            co_await sim.delay(sim::usec(10));
        net.clearFaultPlan();
        const auto reply = co_await storage().serveRemove(id);
        out = reply.status;
    }

    /** Run @p handler at the manager with every drive message delayed,
     *  and removeOnReply() at @p drive. @return the handler's status
     *  and the remove's. */
    template <typename Reply>
    std::pair<cheops::CheopsStatus, cheops::CheopsStatus>
    removeDuring(cheops::LogicalObjectId id, Task<Reply> handler,
                 NasdDrive &drive)
    {
        std::optional<cheops::CheopsStatus> served, removed;
        sim.spawn([](Task<Reply> t,
                     std::optional<cheops::CheopsStatus> &out) -> Task<void> {
            const Reply reply = co_await std::move(t);
            out = reply.status;
        }(std::move(handler), served));
        sim.spawn(removeOnReply(id, drive, removed));
        delayMessages();
        sim.run();
        EXPECT_TRUE(served.has_value() && removed.has_value());
        return {served.value_or(cheops::CheopsStatus::kOk),
                removed.value_or(cheops::CheopsStatus::kOk)};
    }

    /** Objects left on every drive's partition. */
    std::size_t
    objectsOnDrives()
    {
        std::size_t n = 0;
        for (auto &d : drives)
            n += d->store().partitionInfo(0).value().object_count;
        return n;
    }

    net::NetNode &client_node = clientNode("client");
    std::unique_ptr<cheops::CheopsClient> client =
        std::make_unique<cheops::CheopsClient>(net, client_node, storage(),
                                               raw);
};

// A manager handler that a remove overtakes between two of its drive
// RPCs looks its object up again and answers kNoSuchObject; it never
// touches the erased table entry (each test below stops under ASan at
// a handler that kept a pointer into the table).

TEST_F(CheopsFaultTest, RemoveOverlappingARemoveRemovesOnce)
{
    const std::size_t empty = objectsOnDrives();
    const auto id = createParity(4);
    const auto [first, second] =
        removeDuring(id, storage().serveRemove(id), *drives[0]);
    EXPECT_EQ(first, cheops::CheopsStatus::kOk);
    EXPECT_EQ(second, cheops::CheopsStatus::kNoSuchObject);
    EXPECT_EQ(objectsOnDrives(), empty);
}

TEST_F(CheopsFaultTest, SizeOverlappingARemoveFindsNoObject)
{
    const auto id = createParity(4);
    const auto [size, removed] =
        removeDuring(id, storage().serveGetSize(id), *drives[0]);
    EXPECT_EQ(size, cheops::CheopsStatus::kNoSuchObject);
    EXPECT_EQ(removed, cheops::CheopsStatus::kOk);
}

TEST_F(CheopsFaultTest, RevokeOverlappingARemoveFindsNoObject)
{
    const auto id = createParity(4);
    const auto [revoked, removed] =
        removeDuring(id, storage().serveRevoke(id), *drives[0]);
    EXPECT_EQ(revoked, cheops::CheopsStatus::kNoSuchObject);
    (void)removed; // component 0's bump beat the remove's capability
}

TEST_F(CheopsFaultTest, RebuildStartOverlappingARemoveFindsNoObject)
{
    // The remove lands between the spare probe (drive 3) and the fence.
    const auto id = createParity(4);
    drives[0]->setFailed(true);
    const auto [started, removed] = removeDuring(
        id, storage().serveStartRebuild(id, 0, 3, {}), *drives[3]);
    EXPECT_EQ(started, cheops::CheopsStatus::kNoSuchObject);
    EXPECT_EQ(removed, cheops::CheopsStatus::kDriveError); // drive 0 is down
    EXPECT_FALSE(storage().rebuildProgress(id).known);
}

TEST_F(CheopsFaultTest, RebuildCompletionOverlappingARemoveFindsNoObject)
{
    // The rebuild's last row runs with every drive message delayed; the
    // remove lands while the completion's fence waits for the first
    // survivor's bump reply.
    const auto id = createParity(32);
    drives[0]->setFailed(true);
    cheops::RebuildThrottle throttle;
    throttle.token_interval_ns = sim::msec(2);
    std::optional<cheops::CheopsStatus> started, removed;
    sim.spawn([](Task<cheops::CheopsStatusReply> t,
                 std::optional<cheops::CheopsStatus> &out) -> Task<void> {
        const auto reply = co_await std::move(t);
        out = reply.status;
    }(storage().serveStartRebuild(id, 0, 3, throttle), started));
    const auto progress = [&] { return storage().rebuildProgress(id); };
    for (int step = 0; step < 100'000 && !(started && progress().rows_done +
                                                          1 >=
                                                      progress().rows_total);
         ++step)
        sim.runUntil(sim.now() + sim::usec(10));
    ASSERT_EQ(started, cheops::CheopsStatus::kOk);
    ASSERT_TRUE(progress().active);
    delayMessages();
    for (int step = 0;
         step < 1'000'000 && progress().rows_done < progress().rows_total;
         ++step)
        sim.runUntil(sim.now() + sim::usec(10));
    sim.spawn(removeOnReply(id, *drives[1], removed));
    sim.run();
    EXPECT_EQ(removed, cheops::CheopsStatus::kDriveError); // drive 0 is down
    EXPECT_FALSE(progress().active);
    EXPECT_EQ(runFor(sim, client->size(id)).error(),
              cheops::CheopsStatus::kNoSuchObject);
}

TEST_F(CheopsFaultTest, DriveCrashServedDegradedFromMirror)
{
    // RAID-5 of width 1: each row's unit and its copy on nasd0 and nasd1.
    const auto id =
        runFor(sim, client->create(64 * kKB, 1, 0,
                                   cheops::Redundancy::kParity))
            .value();
    const auto data = pattern(512 * kKB, 31);
    ASSERT_TRUE(runFor(sim, client->write(id, 0, data)).ok());

    // A healthy read is not degraded.
    std::vector<std::uint8_t> out(512 * kKB);
    auto healthy = runFor(sim, client->read(id, 0, out));
    ASSERT_TRUE(healthy.ok());
    EXPECT_FALSE(healthy.value().degraded());

    drives[0]->crash();
    std::fill(out.begin(), out.end(), 0);
    auto degraded = runFor(sim, client->read(id, 0, out));
    ASSERT_TRUE(degraded.ok());
    EXPECT_TRUE(degraded.value().degraded());
    EXPECT_EQ(degraded.value().bytes, 512 * kKB);
    EXPECT_EQ(out, data);
}

/** A component I/O path that meets an expired capability set. */
enum class ExpiredPath {
    kStripedRead,
    kStripedWrite,
    kWidth1Write,          ///< both copies take the bytes
    kWidth1WriteNasd0Down, ///< nasd0 misses the write and is fenced
    kWidth1DegradedRead,   ///< the reconstructing read refreshes
    kParityRmw,
    kParityFullRow,
};

class CheopsCapExpiryTest : public CheopsFaultTest,
                            public ::testing::WithParamInterface<ExpiredPath>
{
  protected:
    /** Read the whole object with drive @p down failed (-1: none). */
    std::vector<std::uint8_t>
    readAll(cheops::LogicalObjectId id, std::size_t n, int down = -1)
    {
        if (down >= 0)
            drives[static_cast<std::size_t>(down)]->setFailed(true);
        std::vector<std::uint8_t> out(n);
        auto r = runFor(sim, client->read(id, 0, out));
        if (down >= 0)
            drives[static_cast<std::size_t>(down)]->setFailed(false);
        EXPECT_TRUE(r.ok());
        return out;
    }
};

TEST_P(CheopsCapExpiryTest, RefreshedOnceThenServed)
{
    const ExpiredPath path = GetParam();
    const bool mirrored = path == ExpiredPath::kWidth1Write ||
                          path == ExpiredPath::kWidth1WriteNasd0Down ||
                          path == ExpiredPath::kWidth1DegradedRead;
    const bool parity = path == ExpiredPath::kParityRmw ||
                        path == ExpiredPath::kParityFullRow;
    // Mirrored objects are RAID-5 of width 1, on nasd0 and nasd1. The
    // parity object is 3 data units + parity per 192 KB row.
    const auto redundancy = mirrored || parity ? cheops::Redundancy::kParity
                                               : cheops::Redundancy::kNone;
    const auto id = runFor(sim, client->create(64 * kKB, mirrored ? 1 : 0,
                                               0, redundancy))
                        .value();
    auto model = pattern(384 * kKB, 17);
    ASSERT_TRUE(runFor(sim, client->write(id, 0, model)).ok());
    ASSERT_EQ(readAll(id, model.size()), model);

    // Outlive the component capability set (1 h lifetime); the next
    // component op must refresh the set through the manager, once, and
    // then succeed.
    sim.runUntil(sim.now() + sim::sec(3601));
    const auto mgr_calls = client->managerCalls();
    const auto update = [&](std::uint64_t offset, std::size_t n) {
        const auto bytes = pattern(n, 99);
        std::copy(bytes.begin(), bytes.end(),
                  model.begin() + static_cast<std::ptrdiff_t>(offset));
        EXPECT_TRUE(runFor(sim, client->write(id, offset, bytes)).ok());
    };
    switch (path) {
      case ExpiredPath::kStripedRead:
      case ExpiredPath::kWidth1DegradedRead: {
        const bool down = path == ExpiredPath::kWidth1DegradedRead;
        if (down)
            drives[0]->setFailed(true);
        std::vector<std::uint8_t> out(model.size());
        auto r = runFor(sim, client->read(id, 0, out));
        drives[0]->setFailed(false);
        ASSERT_TRUE(r.ok());
        EXPECT_EQ(r.value().degraded(), down);
        EXPECT_EQ(out, model);
        break;
      }
      case ExpiredPath::kStripedWrite:
      case ExpiredPath::kWidth1Write:
        update(8 * kKB, 200 * kKB);
        break;
      case ExpiredPath::kWidth1WriteNasd0Down:
        drives[0]->setFailed(true);
        update(8 * kKB, 200 * kKB);
        break;
      case ExpiredPath::kParityRmw:
        update(8 * kKB, 16 * kKB); // inside one data unit of row 0
        break;
      case ExpiredPath::kParityFullRow:
        update(192 * kKB, 192 * kKB); // exactly row 1
        break;
    }
    EXPECT_GT(client->managerCalls(), mgr_calls);

    if (path == ExpiredPath::kWidth1WriteNasd0Down) {
        // nasd0 missed the write and is fenced; nasd1 serves the new
        // bytes.
        EXPECT_EQ(readAll(id, model.size(), 0), model);
        return;
    }
    drives[0]->setFailed(false);
    EXPECT_EQ(readAll(id, model.size()), model);
    if (mirrored) {
        // Both sides hold the bytes: each serves them alone.
        EXPECT_EQ(readAll(id, model.size(), 0), model);
        EXPECT_EQ(readAll(id, model.size(), 1), model);
    }
    if (parity) {
        // The parity written after the refresh reconstructs every unit.
        for (int d = 0; d < kDrives; ++d)
            EXPECT_EQ(readAll(id, model.size(), d), model) << "nasd" << d;
    }
}

void
PrintTo(ExpiredPath path, std::ostream *os)
{
    static const char *const kNames[] = {
        "StripedRead",          "StripedWrite", "MirroredWrite",
        "MirroredWritePrimaryDown", "MirroredDegradedRead",
        "ParityRmw",            "ParityFullRow"};
    *os << kNames[static_cast<int>(path)];
}

INSTANTIATE_TEST_SUITE_P(
    Paths, CheopsCapExpiryTest,
    ::testing::Values(ExpiredPath::kStripedRead, ExpiredPath::kStripedWrite,
                      ExpiredPath::kWidth1Write,
                      ExpiredPath::kWidth1WriteNasd0Down,
                      ExpiredPath::kWidth1DegradedRead,
                      ExpiredPath::kParityRmw, ExpiredPath::kParityFullRow));

TEST_F(CheopsFaultTest, ParityVersionMismatchRetriedOnlyOnce)
{
    // Bump one parity component's version on the drive behind the
    // manager's back: every capability the manager mints for it now
    // fails with kVersionMismatch, even after a refresh.
    const auto id = runFor(sim, client->create(64 * kKB, 0, 0,
                                               cheops::Redundancy::kParity))
                        .value();
    const auto data = pattern(192 * kKB, 23); // one full row
    ASSERT_TRUE(runFor(sim, client->write(id, 0, data)).ok());
    auto map = runFor(sim, client->open(id, false)).value();
    // Row 0's first data unit lives on component 0.
    ASSERT_EQ(cheops::layout::dataComponent(0, 0, 3), 0u);
    const auto &victim = map->components[0];
    CapabilityIssuer issuer(drives[victim.drive]->config().master_key,
                            drives[victim.drive]->id());
    CapabilityPublic pub;
    pub.object_id = victim.oid;
    pub.rights = kRightSetAttr;
    CredentialFactory cred(issuer.mint(pub));
    NasdClient direct(net, client_node, *drives[victim.drive]);
    SetAttrRequest bump;
    bump.bump_version = true;
    ASSERT_TRUE(runFor(sim, direct.setAttr(cred, bump)).ok());

    // Reading that unit: the component read refreshes once and retries
    // (1 call), the map reprobe refreshes (1), its read refreshes once
    // more (1), and the unit is then rebuilt from the survivors.
    const auto mgr_calls = client->managerCalls();
    std::vector<std::uint8_t> out(64 * kKB);
    auto r = runFor(sim, client->read(id, 0, out));
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r.value().degraded());
    EXPECT_TRUE(std::equal(out.begin(), out.end(), data.begin()));
    EXPECT_EQ(client->managerCalls() - mgr_calls, 3u);
}

// ---------------------------------------------------------------- NFS

class NfsFaultTest : public ::testing::Test
{
  protected:
    static constexpr int kDrives = 2;

    NfsFaultTest()
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
        fm = std::make_unique<fs::NasdNfsFileManager>(sim, net, fm_node,
                                                      raw, 0);
        runTask(sim, fm->initialize(512 * kMB));
        client = std::make_unique<fs::NasdNfsClient>(net, client_node, *fm,
                                                     raw);
    }

    Simulator sim;
    net::Network net{sim};
    net::NetNode &fm_node;
    net::NetNode &client_node;
    std::vector<std::unique_ptr<NasdDrive>> drives;
    std::unique_ptr<fs::NasdNfsFileManager> fm;
    std::unique_ptr<fs::NasdNfsClient> client;
};

TEST_F(NfsFaultTest, CapExpiryMidStreamRefreshedTransparently)
{
    const auto root = fm->rootHandle();
    const auto fh = runFor(sim, client->create(root, "longlived")).value();
    const auto data = pattern(64 * kKB, 3);
    ASSERT_TRUE(runFor(sim, client->write(fh, 0, data)).ok());

    std::vector<std::uint8_t> out(64 * kKB);
    ASSERT_TRUE(runFor(sim, client->read(fh, 0, out)).ok());

    // Outlive the 600 s capability; the cached credential is now
    // stale, and the next read must re-fetch it from the file manager
    // without surfacing an error.
    sim.runUntil(sim.now() + sim::sec(601));
    const auto fm_calls = client->fmCalls();
    std::fill(out.begin(), out.end(), 0);
    auto n = runFor(sim, client->read(fh, 0, out));
    ASSERT_TRUE(n.ok());
    EXPECT_EQ(out, data);
    EXPECT_GT(client->fmCalls(), fm_calls);
}

TEST_F(NfsFaultTest, NonCapabilityErrorPropagatesWithoutRefresh)
{
    const auto root = fm->rootHandle();
    const auto fh = runFor(sim, client->create(root, "doomed")).value();
    ASSERT_TRUE(runFor(sim, client->write(fh, 0, pattern(8 * kKB))).ok());
    std::vector<std::uint8_t> out(8 * kKB);
    ASSERT_TRUE(runFor(sim, client->read(fh, 0, out)).ok());

    // An I/O failure is not a stale capability: it must come back as
    // an error, not trigger a pointless capability refresh.
    for (auto &d : drives)
        d->setFailed(true);
    const auto fm_calls = client->fmCalls();
    auto n = runFor(sim, client->read(fh, 0, out));
    ASSERT_FALSE(n.ok());
    EXPECT_EQ(n.error(), fs::NfsStatus::kIoError);
    EXPECT_EQ(client->fmCalls(), fm_calls);
}

/**
 * Fail @p dir_drive the moment @p new_drive holds one more object than
 * it does now: a file manager's create has just made its object there,
 * and its directory update comes next.
 */
Task<void>
failOnNextCreate(Simulator &s, NasdDrive *new_drive, NasdDrive *dir_drive)
{
    const auto objects = [new_drive] {
        return new_drive->store().partitionInfo(0).value().object_count;
    };
    const std::uint32_t before = objects();
    for (int i = 0; i < 10000; ++i) {
        if (objects() > before) {
            dir_drive->setFailed(true);
            co_return;
        }
        co_await s.delay(sim::usec(100));
    }
}

std::size_t
objectsOn(Simulator &sim, NasdDrive &drive)
{
    return runFor(sim, drive.store().listObjects(0)).value().size();
}

/**
 * Fail @p drive for exactly its @p k-th request from now: it goes down
 * once it has answered k-1 requests and comes back once it has turned
 * one more away, or after half a simulated second. A file manager's
 * namespace operation sends a drive one request at a time, and each
 * answer shows as a change of the drive's sent bytes.
 */
Task<void>
failKthRequest(Simulator &s, NasdDrive *drive, int k)
{
    const auto sent = [drive] { return drive->node().bytes_sent.value(); };
    std::uint64_t last = sent();
    int answered = 0;
    for (int i = 0; i < 50000; ++i) {
        if (sent() != last) {
            last = sent();
            ++answered;
        }
        if (answered == k - 1 && !drive->failed()) {
            drive->setFailed(true);
        } else if (answered == k) {
            break;
        }
        co_await s.delay(sim::usec(10));
    }
    drive->setFailed(false);
}

TEST_F(NfsFaultTest, FailedCreateLeavesNoObject)
{
    // Placement round-robins from drive 0, which also holds the root
    // directory: "kept" lands beside it and "lost" on drive 1.
    const auto root = fm->rootHandle();
    ASSERT_TRUE(runFor(sim, client->create(root, "kept")).ok());
    const std::size_t before = objectsOn(sim, *drives[1]);

    sim.spawn(failOnNextCreate(sim, drives[1].get(), drives[0].get()));
    ASSERT_FALSE(runFor(sim, client->create(root, "lost")).ok());
    EXPECT_EQ(objectsOn(sim, *drives[1]), before);

    // The directory never named "lost", and the manager does not
    // remember that it did.
    drives[0]->setFailed(false);
    auto found = runFor(sim, client->lookup(root, "lost"));
    ASSERT_FALSE(found.ok());
    EXPECT_EQ(found.error(), fs::NfsStatus::kNoEnt);
}

// Fail the new directory's drive at each request a mkdir makes of it
// in turn (create, attributes, then the clean-up remove). A mkdir that
// fails leaves no entry and no object; one that succeeds names a
// directory.
TEST_F(NfsFaultTest, FailedMkdirLeavesNoEntry)
{
    const auto root = fm->rootHandle();
    NasdDrive &target = *drives[1];
    int failed = 0;
    for (int k = 1; k <= 4; ++k) {
        // Placement round-robins: pad until the next object is drive 1's.
        for (int pad = 0;; ++pad) {
            const auto name =
                "pad" + std::to_string(k) + "." + std::to_string(pad);
            const auto fh = runFor(sim, client->create(root, name));
            ASSERT_TRUE(fh.ok());
            if (fh.value().drive == 0)
                break;
        }
        const std::string name = "d" + std::to_string(k);
        const std::size_t before = objectsOn(sim, target);
        sim.spawn(failKthRequest(sim, &target, k));
        const auto made = runFor(sim, client->mkdir(root, name));
        sim.run();
        ASSERT_FALSE(target.failed());

        const auto listing = runFor(sim, client->readdir(root));
        ASSERT_TRUE(listing.ok());
        const auto it = std::ranges::find(listing.value(), name,
                                          &fs::NasdDirEntry::name);
        if (made.ok()) {
            ASSERT_NE(it, listing.value().end()) << "request " << k;
            EXPECT_TRUE(it->is_directory) << "request " << k;
            const auto attrs = runFor(sim, client->getattr(made.value()));
            ASSERT_TRUE(attrs.ok());
            EXPECT_TRUE(attrs.value().is_directory) << "request " << k;
        } else {
            ++failed;
            EXPECT_EQ(it, listing.value().end()) << "request " << k;
            EXPECT_EQ(objectsOn(sim, target), before) << "request " << k;
        }
    }
    EXPECT_GE(failed, 2); // the create and the attributes were refused
}

// Fail the directory's drive at each request a remove makes of it in
// turn. The removed file's object goes first, but a failed store of the
// shorter listing leaves the old one: every other name still resolves.
TEST_F(NfsFaultTest, FailedRemoveStoreKeepsEveryEntry)
{
    const auto root = fm->rootHandle();
    NasdDrive &dir_drive = *drives[root.drive];
    // Placement round-robins from drive 0: after "first", each round's
    // victim lands on drive 1 and is never the listing's last entry.
    std::vector<std::string> kept{"first"};
    ASSERT_TRUE(runFor(sim, client->create(root, "first")).ok());
    int failed = 0;
    for (int k = 1; k <= 4; ++k) {
        const std::string victim = "victim" + std::to_string(k);
        const std::string keep = "keep" + std::to_string(k);
        const auto made = runFor(sim, client->create(root, victim));
        ASSERT_TRUE(made.ok());
        ASSERT_EQ(made.value().drive, 1u);
        ASSERT_TRUE(runFor(sim, client->create(root, keep)).ok());
        kept.push_back(keep);

        sim.spawn(failKthRequest(sim, &dir_drive, k));
        const auto removed = runFor(sim, client->remove(root, victim));
        sim.run();
        ASSERT_FALSE(dir_drive.failed());
        if (!removed.ok())
            ++failed;
        for (const auto &name : kept) {
            EXPECT_TRUE(runFor(sim, client->lookup(root, name)).ok())
                << name << " after request " << k << " failed";
        }
    }
    EXPECT_GE(failed, 1); // the store was refused
}

// ---------------------------------------------------------------- AFS

class AfsFaultTest : public ::testing::Test
{
  protected:
    static constexpr int kDrives = 2;

    AfsFaultTest()
        : fm_node(net.addNode("afs-fm", net::alphaStation500(),
                              net::oc3Link(), net::dceRpcCosts()))
    {
        for (int i = 0; i < kDrives; ++i) {
            drives.push_back(std::make_unique<NasdDrive>(
                sim, net,
                prototypeDriveConfig("nasd" + std::to_string(i), i + 1)));
            raw.push_back(drives.back().get());
        }
        fm = std::make_unique<fs::AfsFileManager>(sim, net, fm_node, raw,
                                                  0, 64 * kMB);
        runTask(sim, fm->initialize(512 * kMB));
        client_a = makeClient("alice", 1);
        client_b = makeClient("bob", 2);
    }

    std::unique_ptr<fs::AfsClient>
    makeClient(const std::string &name, std::uint32_t id)
    {
        auto &n = net.addNode(name, net::alphaStation255(), net::oc3Link(),
                              net::dceRpcCosts());
        return std::make_unique<fs::AfsClient>(net, n, *fm, raw, id);
    }

    Simulator sim;
    net::Network net{sim};
    net::NetNode &fm_node;
    std::vector<std::unique_ptr<NasdDrive>> drives;
    std::vector<NasdDrive *> raw;
    std::unique_ptr<fs::AfsFileManager> fm;
    std::unique_ptr<fs::AfsClient> client_a;
    std::unique_ptr<fs::AfsClient> client_b;
};

TEST_F(AfsFaultTest, WriteCapExpiryRefreshedOnce)
{
    const auto root = fm->rootFid();
    const auto fid = runFor(sim, client_a->create(root, "slow")).value();

    // A short capability lifetime plus a delayed network: the write
    // capability expires while the store request is in flight, so the
    // drive rejects it and the client must refresh and retry.
    fm->setWriteCapLifetime(sim::msec(10));
    net::FaultPlan plan;
    plan.delay_probability = 1.0;
    plan.delay_min = sim::msec(50);
    plan.delay_max = sim::msec(50);
    plan.seed = 11;
    net.setFaultPlan(plan);

    // Heal the network once the drive has sent its (delayed) rejection
    // so the refreshed attempt travels a healthy path.
    NasdDrive *data_drive = raw[fid.drive];
    sim.spawn([](Simulator &s, net::Network &n,
                 NasdDrive *d) -> Task<void> {
        for (int i = 0; i < 1000; ++i) {
            if (d->node().faults_delayed.value() >= 1) {
                n.clearFaultPlan();
                co_return;
            }
            co_await s.delay(sim::msec(1));
        }
    }(sim, net, data_drive));

    const auto data = pattern(16 * kKB, 9);
    auto wrote = runFor(sim, client_a->write(fid, 0, data));
    ASSERT_TRUE(wrote.ok());

    std::vector<std::uint8_t> out(16 * kKB);
    auto n = runFor(sim, client_b->read(fid, 0, out));
    ASSERT_TRUE(n.ok());
    EXPECT_EQ(out, data);
}

TEST_F(AfsFaultTest, FailedDriveIsAnIoError)
{
    const auto root = fm->rootFid();
    const auto fid = runFor(sim, client_a->create(root, "lost")).value();
    ASSERT_TRUE(runFor(sim, client_a->write(fid, 0, pattern(4 * kKB))).ok());

    // A failed drive is an I/O error, not a permission problem.
    raw[fid.drive]->setFailed(true);
    std::vector<std::uint8_t> out(4 * kKB);
    auto n = runFor(sim, client_b->read(fid, 0, out));
    ASSERT_FALSE(n.ok());
    EXPECT_EQ(n.error(), fs::NfsStatus::kIoError);
}

TEST_F(AfsFaultTest, RemoveReportsAFailedDirectoryWrite)
{
    // Placement round-robins from drive 0, which also holds the root
    // directory: "kept" lands beside it and "victim" on drive 1.
    const auto root = fm->rootFid();
    ASSERT_TRUE(runFor(sim, client_a->create(root, "kept")).ok());
    const auto victim = runFor(sim, client_a->create(root, "victim")).value();
    ASSERT_NE(victim.drive, root.drive);

    // Fail the directory's drive the moment the victim's drive has
    // removed it: the file manager's directory rewrite comes next.
    sim.spawn([](Simulator &s, NasdDrive *victim_drive, ObjectId oid,
                 NasdDrive *dir_drive) -> Task<void> {
        for (int i = 0; i < 10000; ++i) {
            if (!victim_drive->store().peekVersion(0, oid).ok()) {
                dir_drive->setFailed(true);
                co_return;
            }
            co_await s.delay(sim::usec(100));
        }
    }(sim, raw[victim.drive], victim.oid, raw[root.drive]));

    auto removed = runFor(sim, client_a->remove(root, "victim"));
    ASSERT_FALSE(removed.ok());
    EXPECT_EQ(removed.error(), fs::NfsStatus::kIoError);
}

TEST_F(AfsFaultTest, FailedCreateLeavesNoObject)
{
    const auto root = fm->rootFid();
    ASSERT_TRUE(runFor(sim, client_a->create(root, "kept")).ok());
    const std::size_t before = objectsOn(sim, *raw[1]);
    const std::size_t tracked = fm->trackedFiles();

    sim.spawn(failOnNextCreate(sim, raw[1], raw[root.drive]));
    ASSERT_FALSE(runFor(sim, client_a->create(root, "lost")).ok());
    EXPECT_EQ(objectsOn(sim, *raw[1]), before);
    EXPECT_EQ(fm->trackedFiles(), tracked);
}


// Fail the directory's drive at each request a create makes of it in
// turn (the directory's attributes, its read, then its store). The
// store is one write, so a failed one keeps the old listing: after the
// drive heals every earlier name still resolves, and a failed create
// leaves no object behind.
TEST_F(AfsFaultTest, FailedDirectoryStoreKeepsEveryEntry)
{
    const auto root = fm->rootFid();
    NasdDrive &dir_drive = *raw[root.drive];
    std::vector<std::string> names;
    std::vector<std::unique_ptr<fs::AfsClient>> checkers;
    int failed = 0;
    for (int k = 1; k <= 4; ++k) {
        // Placement round-robins: pad until the next object is drive 1's.
        for (int pad = 0;; ++pad) {
            const auto name =
                "pad" + std::to_string(k) + "." + std::to_string(pad);
            const auto fid = runFor(sim, client_a->create(root, name));
            ASSERT_TRUE(fid.ok());
            names.push_back(name);
            if (fid.value().drive == 0)
                break;
        }
        const std::string name = "n" + std::to_string(k);
        const std::size_t before = objectsOn(sim, *raw[1]);
        sim.spawn(failKthRequest(sim, &dir_drive, k));
        const auto made = runFor(sim, client_a->create(root, name));
        sim.run();
        ASSERT_FALSE(dir_drive.failed());
        if (made.ok()) {
            names.push_back(name);
        } else {
            ++failed;
            EXPECT_EQ(objectsOn(sim, *raw[1]), before) << "request " << k;
        }

        // A client with nothing cached parses the drive's listing; it
        // stays registered for callbacks, so it lives as long as the FM.
        checkers.push_back(makeClient("check" + std::to_string(k), 10 + k));
        const auto &fresh = checkers.back();
        for (const auto &n : names) {
            EXPECT_TRUE(runFor(sim, fresh->lookup(root, n)).ok())
                << n << " after request " << k << " failed";
        }
        if (!made.ok()) {
            EXPECT_FALSE(runFor(sim, fresh->lookup(root, name)).ok());
        }
    }
    EXPECT_GE(failed, 3); // the attributes, the read and the store
}

// The shrinking case: fail the directory's drive at each request a
// remove makes of it in turn. A failed store of the shorter listing
// keeps the old one, so every other name still resolves.
TEST_F(AfsFaultTest, FailedRemoveStoreKeepsEveryEntry)
{
    const auto root = fm->rootFid();
    NasdDrive &dir_drive = *raw[root.drive];
    // Placement round-robins from drive 0: after "first", each round's
    // victim lands on drive 1 and is never the listing's last entry.
    std::vector<std::string> kept{"first"};
    ASSERT_TRUE(runFor(sim, client_a->create(root, "first")).ok());
    std::vector<std::unique_ptr<fs::AfsClient>> checkers;
    int failed = 0;
    for (int k = 1; k <= 4; ++k) {
        const std::string victim = "victim" + std::to_string(k);
        const std::string keep = "keep" + std::to_string(k);
        const auto made = runFor(sim, client_a->create(root, victim));
        ASSERT_TRUE(made.ok());
        ASSERT_EQ(made.value().drive, 1u);
        ASSERT_TRUE(runFor(sim, client_a->create(root, keep)).ok());
        kept.push_back(keep);

        sim.spawn(failKthRequest(sim, &dir_drive, k));
        const auto removed = runFor(sim, client_a->remove(root, victim));
        sim.run();
        ASSERT_FALSE(dir_drive.failed());
        if (!removed.ok())
            ++failed;
        checkers.push_back(makeClient("check" + std::to_string(k), 10 + k));
        for (const auto &name : kept) {
            EXPECT_TRUE(runFor(sim, checkers.back()->lookup(root, name)).ok())
                << name << " after request " << k << " failed";
        }
    }
    EXPECT_GE(failed, 3); // the attributes, the read and the store
}

// A read fetch whose attribute reply is still on its way back while a
// whole remove of the file settles must not track the removed file.
TEST_F(AfsFaultTest, FetchOverlappingARemoveTracksNothing)
{
    const auto root = fm->rootFid();
    ASSERT_TRUE(runFor(sim, client_a->create(root, "first")).ok());
    const auto fid = runFor(sim, client_a->create(root, "doomed")).value();
    ASSERT_NE(fid.drive, root.drive);
    const std::size_t tracked = fm->trackedFiles();

    // Delay every message by 300 ms (inside the 2 s attempt deadline)
    // until the file's drive has sent its delayed reply to the fetch,
    // then heal the network and remove the file.
    net::FaultPlan plan;
    plan.delay_probability = 1.0;
    plan.delay_min = sim::msec(300);
    plan.delay_max = sim::msec(300);
    plan.seed = 29;
    net.setFaultPlan(plan);

    std::optional<fs::NfsStatus> fetched;
    sim.spawn([](fs::AfsFileManager &m, fs::AfsFid f,
                 std::optional<fs::NfsStatus> &out) -> Task<void> {
        out = (co_await m.serveFetchCap(f, false, 2)).status;
    }(*fm, fid, fetched));
    std::optional<fs::NfsStatus> removed;
    sim.spawn([](Simulator &s, net::Network &n, fs::AfsFileManager &m,
                 fs::AfsFid dir, NasdDrive *d,
                 std::optional<fs::NfsStatus> &out) -> Task<void> {
        for (int i = 0; i < 100000; ++i) {
            if (d->node().faults_delayed.value() >= 1) {
                n.clearFaultPlan();
                out = (co_await m.serveRemove(dir, "doomed")).status;
                co_return;
            }
            co_await s.delay(sim::usec(10));
        }
    }(sim, net, *fm, root, raw[fid.drive], removed));
    sim.run();

    ASSERT_EQ(removed, fs::NfsStatus::kOk);
    ASSERT_TRUE(fetched.has_value());
    EXPECT_EQ(*fetched, fs::NfsStatus::kNoEnt);
    EXPECT_EQ(fm->trackedFiles(), tracked);
}

} // namespace
} // namespace nasd
