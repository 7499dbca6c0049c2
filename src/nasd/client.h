/**
 * @file
 * Client-side NASD driver (the "NASD driver" box of Figure 1).
 *
 * Wraps every drive request in RPC timing from a given client node,
 * attaches capability credentials, and converts wire responses into
 * Result values. One NasdClient binds one client machine to one drive;
 * higher layers (filesystems, Cheops) hold several.
 *
 * Every request takes one path (call): its OpSpec row (nasd/ops.h)
 * gives its frames and retry class, and each attempt carries a
 * deadline on the simulator clock so a dropped message surfaces as
 * NasdStatus::kTimeout instead of a hung coroutine. Idempotent
 * operations (read, same-bytes write, getAttr, list, flush, probe)
 * retry with capped exponential backoff and jitter; a fresh credential
 * (fresh nonce) is minted per attempt so retries pass the drive's
 * replay window. Non-idempotent operations (create, remove, clone,
 * setAttr, setKey, partition admin) get a single deadline-protected
 * attempt.
 *
 * A read or write larger than DriveRetryPolicy::max_transfer is cut
 * into pieces of at most that size, each its own RPC with its own
 * deadline and retry, with at most two of them in flight, so a large
 * request never asks one attempt to move more bytes than its deadline
 * allows.
 */
#ifndef NASD_NASD_CLIENT_H_
#define NASD_NASD_CLIENT_H_

#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "nasd/capability.h"
#include "nasd/drive.h"
#include "nasd/object_store.h"
#include "net/network.h"
#include "net/rpc.h"
#include "sim/task.h"
#include "sim/time.h"
#include "util/logging.h"
#include "util/rng.h"

namespace nasd {

/** Deadline and retry knobs for drive RPCs. */
struct DriveRetryPolicy
{
    sim::Tick timeout = sim::msec(2000);      ///< per-attempt deadline
    int max_attempts = 4;                     ///< for idempotent ops
    sim::Tick backoff_base = sim::msec(20);   ///< first retry delay
    sim::Tick backoff_cap = sim::msec(500);   ///< backoff ceiling
    /// Flush drains the whole write-behind queue; give it room.
    sim::Tick flush_timeout = sim::sec(120);
    /// Most bytes one read or write RPC carries. 2 MB is the largest
    /// request the benches issue, so none of theirs is cut.
    std::uint64_t max_transfer = 2 * 1024 * 1024;
};

/** RPC stub for one (client machine, drive) pair. */
class NasdClient
{
  public:
    NasdClient(net::Network &net, net::NetNode &node, NasdDrive &drive);

    net::NetNode &node() { return node_; }
    NasdDrive &drive() { return drive_; }

    const DriveRetryPolicy &policy() const { return policy_; }
    void
    setPolicy(const DriveRetryPolicy &policy)
    {
        NASD_ASSERT(policy.max_transfer > 0, "drive transfer cap is zero");
        policy_ = policy;
    }

    /** Read up to @p out.size() bytes at @p offset of the capability's
     *  object into @p out; returns the byte count read (short at end of
     *  object: the contiguous prefix that was read). The drive lands
     *  the bytes in @p out directly, and only the live attempt may
     *  write there (ReadLanding), so @p out is never touched after
     *  this returns. On an error its contents are unspecified.
     *  @p parent, when valid, makes the request a child span of the
     *  caller's trace (see util/trace.h). */
    sim::Task<StoreResult<std::uint64_t>>
    read(CredentialFactory &cred, std::uint64_t offset,
         std::span<std::uint8_t> out, util::TraceContext parent = {});

    /** read() into a fresh vector of the bytes read. */
    sim::Task<StoreResult<std::vector<std::uint8_t>>>
    read(CredentialFactory &cred, std::uint64_t offset,
         std::uint64_t length, util::TraceContext parent = {});

    /** Write @p data at @p offset of the capability's object. The
     *  drive reads the bytes from @p data itself (WriteSource); if an
     *  attempt is still in flight when this returns, it gets a copy, so
     *  @p data is never read after this returns. */
    sim::Task<StoreResult<void>> write(CredentialFactory &cred,
                                       std::uint64_t offset,
                                       std::span<const std::uint8_t> data,
                                       util::TraceContext parent = {});

    sim::Task<StoreResult<ObjectAttributes>>
    getAttr(CredentialFactory &cred);

    sim::Task<StoreResult<ObjectAttributes>>
    setAttr(CredentialFactory &cred, const SetAttrRequest &changes);

    /** Create an object (capability on the partition control object);
     *  @p capacity_hint bytes are preallocated. */
    sim::Task<StoreResult<ObjectId>> create(CredentialFactory &cred,
                                            std::uint64_t capacity_hint);

    sim::Task<StoreResult<void>> remove(CredentialFactory &cred);

    /** Construct a copy-on-write version of the capability's object. */
    sim::Task<StoreResult<ObjectId>> cloneVersion(CredentialFactory &cred);

    /** List object names (capability on the partition control object). */
    sim::Task<StoreResult<std::vector<ObjectId>>>
    listObjects(CredentialFactory &cred);

    /** Rotate the partition's working-key epoch, revoking every
     *  outstanding capability for it. */
    sim::Task<StoreResult<void>> setKey(CredentialFactory &cred);

    /** Writes that returned while an attempt was still in flight, so
     *  their bytes were copied for it (0 on a fault-free run). */
    std::uint64_t keptWrites() const { return kept_writes_; }

    /** Push the drive's write-behind data to media. */
    sim::Task<void> flush();

    /**
     * Liveness + free-space probe: is the drive answering, and how
     * much room does @p target have? A crashed drive surfaces as
     * kDriveUnavailable (fast reply) or kTimeout (lost message).
     */
    sim::Task<StoreResult<ProbeResponse>> probe(PartitionId target);

    /**
     * Partition administration (drive-owner capability on partition
     * 0's control object); quota in bytes.
     */
    sim::Task<StoreResult<void>> createPartition(CredentialFactory &cred,
                                                 PartitionId target,
                                                 std::uint64_t quota_bytes);
    sim::Task<StoreResult<void>> resizePartition(CredentialFactory &cred,
                                                 PartitionId target,
                                                 std::uint64_t quota_bytes);
    sim::Task<StoreResult<void>> removePartition(CredentialFactory &cred,
                                                 PartitionId target);

  private:
    /**
     * The one path of every drive request: each attempt mints a fresh
     * credential from @p cred (none when null: flush, probe), runs
     * @p serve (drive, Attempt) on the drive under a deadline, and is
     * retried if the op is idempotent. Returns the reply's status as
     * an error, or @p get applied to the reply. Ops whose OpSpec names
     * a client span open it as a child of @p parent. When @p live is
     * set, each attempt writes its number there as it is sent.
     */
    template <typename Resp, typename Serve, typename Get>
    sim::Task<StoreResult<
        std::remove_cvref_t<std::invoke_result_t<Get, Resp &&>>>>
    call(CredentialFactory *cred, RequestParams params, Serve serve,
         Get get, util::TraceContext parent = {},
         std::uint64_t *live = nullptr);

    /** read() and write() above max_transfer: pieces of at most that
     *  size, each one read() or write() call, two in flight. */
    sim::Task<StoreResult<std::uint64_t>>
    readPieces(CredentialFactory &cred, std::uint64_t offset,
               std::span<std::uint8_t> out, util::TraceContext parent);
    sim::Task<StoreResult<void>>
    writePieces(CredentialFactory &cred, std::uint64_t offset,
                std::span<const std::uint8_t> data,
                util::TraceContext parent);

    net::Network &net_;
    net::NetNode &node_;
    NasdDrive &drive_;
    DriveRetryPolicy policy_;
    util::Rng retry_rng_; ///< backoff jitter; seeded per (node, drive)
    std::uint64_t kept_writes_ = 0;
};

} // namespace nasd

#endif // NASD_NASD_CLIENT_H_
