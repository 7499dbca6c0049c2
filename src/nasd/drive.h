/**
 * @file
 * The NASD drive: object store + network personality + security.
 *
 * A NasdDrive owns its physical disks (the prototype used two
 * Medallists behind a striping driver), the object store living on
 * them, a network node (its embedded CPU and link), and the drive
 * secret keys.
 *
 * Every capability-carrying request takes one path (serveOp): open the
 * drive span, verify the capability, run the op's store step, reject
 * the op if the drive crashed meanwhile, charge the op's calibrated
 * instruction costs (its OpSpec row in nasd/ops.h) and count it. Flush
 * and probe carry no capability and have their own short handlers.
 *
 * Handlers here are server-side; NasdClient wraps them in RPC timing.
 */
#ifndef NASD_NASD_DRIVE_H_
#define NASD_NASD_DRIVE_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "crypto/keychain.h"
#include "disk/disk_model.h"
#include "disk/params.h"
#include "disk/striping.h"
#include "nasd/capability.h"
#include "nasd/costs.h"
#include "nasd/object_store.h"
#include "nasd/ops.h"
#include "nasd/types.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "util/attribution.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace nasd {

/** Everything needed to build one drive. */
struct DriveConfig
{
    std::string name = "nasd";
    DriveId drive_id = 1;
    crypto::Key master_key{};
    SecurityLevel security = SecurityLevel::kNone;
    DriveCostModel costs;
    StoreConfig store;

    /// Physical media: num_disks instances of disk_params striped at
    /// stripe_unit_bytes (prototype: 2 Medallists at 32 KB).
    disk::DiskParams disk_params;
    int num_disks = 2;
    std::uint64_t stripe_unit_bytes = 32 * 1024;

    net::CpuParams cpu{133.0, 2.2}; ///< prototype drive CPU
    net::LinkParams link{};         ///< OC-3 by default
    net::RpcCosts rpc{};            ///< DCE-weight stack by default
};

/** The prototype drive configuration from Section 4.2. */
DriveConfig prototypeDriveConfig(std::string name, DriveId id);

// Wire-format response types (plain structs so they cross the RPC
// layer without fuss).

/** Read reply: the bytes themselves landed in the caller's buffer
 *  (ReadLanding), so the reply carries only their count, which the
 *  reply message still charges on the wire. */
struct [[nodiscard]] ReadResponse
{
    NasdStatus status = NasdStatus::kOk;
    std::uint64_t length = 0;
};

struct [[nodiscard]] StatusResponse
{
    NasdStatus status = NasdStatus::kOk;
};

struct [[nodiscard]] AttrResponse
{
    NasdStatus status = NasdStatus::kOk;
    ObjectAttributes attrs;
};

struct [[nodiscard]] CreateResponse
{
    NasdStatus status = NasdStatus::kOk;
    ObjectId object_id = 0;
};

struct [[nodiscard]] ListResponse
{
    NasdStatus status = NasdStatus::kOk;
    std::vector<ObjectId> ids;
};

struct [[nodiscard]] ProbeResponse
{
    NasdStatus status = NasdStatus::kOk;
    DriveId drive_id = 0;
    std::uint64_t free_bytes = 0; ///< partition quota minus usage
};

/** Bytes a reply carries beyond its op's OpSpec::reply_bytes: a read's
 *  data and a list's ids. */
inline std::uint64_t
replyDataBytes(const ReadResponse &r)
{
    return r.length;
}

inline std::uint64_t
replyDataBytes(const ListResponse &r)
{
    return r.ids.size() * sizeof(ObjectId);
}

inline std::uint64_t
replyDataBytes(const auto &)
{
    return 0;
}

/** One network-attached secure disk. */
class NasdDrive
{
  public:
    NasdDrive(sim::Simulator &sim, net::Network &net, DriveConfig config);

    NasdDrive(const NasdDrive &) = delete;
    NasdDrive &operator=(const NasdDrive &) = delete;

    /** Format the object store (drive manufacturing / reinitialize). */
    sim::Task<void> format();

    DriveId id() const { return config_.drive_id; }
    const std::string &name() const { return config_.name; }
    net::NetNode &node() { return *node_; }
    sim::Simulator &simulator() { return sim_; }
    ObjectStore &store() { return *store_; }
    const DriveConfig &config() const { return config_; }
    SecurityLevel security() const { return config_.security; }
    void setSecurity(SecurityLevel level) { config_.security = level; }

    /** Fault injection: a failed drive rejects every request (after
     *  paying the wire cost of discovering it). */
    void
    setFailed(bool failed)
    {
        failed_ = failed;
        node_->flightJournal().record(sim_.now(),
                                      failed
                                          ? util::FrEvent::kDriveFailed
                                          : util::FrEvent::kDriveRecovered);
    }
    bool failed() const { return failed_; }

    /**
     * Fault injection: scale this drive's mechanical service time
     * (seek + rotation + media transfer) by @p factor >= 1.0, the
     * degrading-spindle model behind the bench --slow-drive knob.
     * Journals a kDriveSlowdown event so fleet reports can correlate
     * the straggler flag with the injected fault.
     */
    void slowDown(double factor);

    /**
     * Crash the drive: RAM state (nonce window, clean cache) is lost,
     * and every request — including ops already inside the store — is
     * rejected with kDriveUnavailable until restart().
     */
    void
    crash()
    {
        crashed_ = true;
        node_->flightJournal().record(sim_.now(),
                                      util::FrEvent::kDriveCrash);
    }
    bool crashed() const { return crashed_; }

    /**
     * Restart after a crash: rebuild the object store from the
     * persistent on-disk image (attributes, refcounts, and flushed data
     * survive; write-behind data that never reached media does not).
     */
    sim::Task<void> restart();

    /** Requests rejected by the nonce replay window (duplicates and
     *  stale retries). */
    std::uint64_t replaysRejected() const { return replays_rejected_.value(); }

    /** Capabilities verify() currently remembers (see verified_caps_). */
    std::size_t verifiedCapabilities() const { return verified_caps_.size(); }

    /** Metrics subtree for this drive's op counters ("<name>/ops"). */
    const std::string &metricPrefix() const { return metric_prefix_; }

    /** Aggregate raw media bandwidth (for benchmark reporting). */
    double rawMediaBytesPerSec() const;

    // Request handlers (Section 4.1's interface) -------------------------

    /**
     * Read params.length bytes into @p landing's buffer, as attempt
     * @p attempt: the store copies only while that attempt is live, so
     * a stale attempt pays its full cost and writes nothing. On an
     * error status the buffer's contents are unspecified.
     */
    sim::Task<ReadResponse> serveRead(RequestCredential cred,
                                      RequestParams params,
                                      std::shared_ptr<const ReadLanding> landing,
                                      std::uint64_t attempt);
    /**
     * Write @p source's bytes at params.offset. The store reads them
     * from @p source when they land, so a stale attempt lands the
     * caller's bytes even after the client kept a copy of them.
     */
    sim::Task<StatusResponse>
    serveWrite(RequestCredential cred, RequestParams params,
               std::shared_ptr<const WriteSource> source);
    sim::Task<AttrResponse> serveGetAttr(RequestCredential cred,
                                         RequestParams params);
    sim::Task<AttrResponse> serveSetAttr(RequestCredential cred,
                                         RequestParams params,
                                         SetAttrRequest changes);
    sim::Task<CreateResponse> serveCreate(RequestCredential cred,
                                          RequestParams params);
    sim::Task<StatusResponse> serveRemove(RequestCredential cred,
                                          RequestParams params);
    sim::Task<CreateResponse> serveClone(RequestCredential cred,
                                         RequestParams params);
    sim::Task<ListResponse> serveList(RequestCredential cred,
                                      RequestParams params);
    sim::Task<StatusResponse> serveSetKey(RequestCredential cred,
                                          RequestParams params);
    sim::Task<StatusResponse> serveFlush();

    /**
     * Liveness + free-space probe on one partition. Carries no
     * capability (it names no object and returns only allocator
     * totals); storage managers use it to qualify a spare drive
     * before allocating rebuild targets on it.
     */
    sim::Task<ProbeResponse> serveProbe(PartitionId target);

    /**
     * Partition administration over the wire. Authority is a
     * capability on the partition control object of partition 0 (the
     * drive's root partition) minted under the drive owner's keys;
     * params.length carries the quota in bytes for create/resize.
     */
    sim::Task<StatusResponse> serveCreatePartition(RequestCredential cred,
                                                   RequestParams params,
                                                   PartitionId target);
    sim::Task<StatusResponse> serveResizePartition(RequestCredential cred,
                                                   RequestParams params,
                                                   PartitionId target);
    sim::Task<StatusResponse> serveRemovePartition(RequestCredential cred,
                                                   RequestParams params,
                                                   PartitionId target);

    /** Operations completed (all types). */
    std::uint64_t opsServed() const { return ops_served_.value(); }

    /**
     * Verify a credential against the drive's keys and the request
     * parameters; charges verification CPU cost. kOk means the request
     * may proceed. Public so drive-resident extensions (Active Disks,
     * Section 6) enforce the same security as the built-in requests.
     */
    [[nodiscard]] sim::Task<NasdStatus> verify(const RequestCredential &cred,
                                 const RequestParams &params,
                                 std::uint8_t required_rights,
                                 std::uint64_t data_bytes,
                                 util::OpAttribution *attr = nullptr);

  private:
    /** Per-op-type registry instruments ("<drive>/ops/<op>/..."). */
    struct OpInstruments
    {
        util::Counter &count;
        /// Mergeable log-bucketed latency: per-drive op histograms
        /// roll up losslessly into fleet aggregates (util::FleetRollup).
        util::LogHistogram &latency_ns;
        /// Per-resource-class latency decomposition, accumulated at
        /// "<drive>/ops/<op>/attr/<class>_{wait,service}_ns".
        std::array<util::Counter *, util::kResourceClassCount> wait_ns;
        std::array<util::Counter *, util::kResourceClassCount> service_ns;
        /// Elapsed time no phase claimed (should stay near zero).
        util::Counter &other_ns;
    };

    /** Lazily create (and cache) the instruments for op type @p op. */
    OpInstruments &opInstruments(OpCode op);

    /**
     * Open the drive-side span for one request: a child of the trace
     * context the client put in @p params (no span when tracing is
     * off or the request carries no context).
     */
    util::ScopedSpan beginOp(OpCode op, const RequestParams &params);

    /**
     * Count the completed op and stamp its latency/span end. When
     * @p attr is set, its wait/service phases are flushed to the op's
     * attr counters (plus the unclaimed remainder to other_ns) and
     * annotated onto @p span.
     */
    void finishOp(OpCode op, sim::Tick start, util::ScopedSpan &span,
                  const util::OpAttribution *attr = nullptr,
                  std::uint64_t trace_id = 0);

    /**
     * The path of every capability-carrying request: open the span,
     * verify(), run @p step (the store call, given the params and the
     * op's OpTrace), reject the op with kDriveUnavailable if the drive
     * crashed while it was inside the store, store the step's value in
     * the reply's @p field, charge @p op's costs and count it. Every
     * exit closes the span; only a successful op is counted and timed.
     */
    template <typename Resp, typename Step, typename Field = std::nullptr_t>
    sim::Task<Resp> serveOp(OpCode op, RequestCredential cred,
                            RequestParams params, Step step,
                            Field field = nullptr);

    /** Charge @p spec's instruction costs for a completed store op that
     *  moved @p bytes. */
    sim::Task<void> chargeOpCost(const OpSpec &spec, std::uint64_t bytes,
                                 const OpTrace &trace,
                                 util::OpAttribution *attr);

    /// What verify() derives from a capability's public portion.
    struct VerifiedCapability
    {
        crypto::Digest private_key;
        crypto::HmacSha256 request_key; ///< keyed with private_key
    };

    struct EncodedHash
    {
        std::size_t operator()(const CapabilityPublic::Encoded &e) const;
    };

    /** The private portion of @p pub under this drive's keys, and a
     *  request-MAC context keyed with it. */
    VerifiedCapability deriveCapability(const CapabilityPublic &pub) const;

    /** Charge the keyed-digest cost over @p bytes (a request's
     *  argument frame and data, a read's outgoing data), per the
     *  configured security level. Callers skip it when security is
     *  off, so the common path allocates no coroutine frame for it. */
    sim::Task<void> chargeSecurityBytes(std::uint64_t bytes,
                                        util::OpAttribution *attr = nullptr);

    sim::Simulator &sim_;
    DriveConfig config_;
    std::string metric_prefix_; ///< registry subtree ("<name>/ops")
    crypto::KeyChain keychain_;
    net::NetNode *node_;

    std::vector<std::unique_ptr<disk::DiskModel>> disks_;
    std::unique_ptr<disk::StripingDriver> striped_;
    std::unique_ptr<ObjectStore> store_;

    /// Stores discarded by restart(). Kept alive until drive
    /// destruction: coroutines that entered the old store before the
    /// crash may still be suspended inside it.
    std::vector<std::unique_ptr<ObjectStore>> retired_stores_;

    /// Replay protection: highest nonce seen per capability (keyed by
    /// a 64-bit prefix of the private portion).
    std::unordered_map<std::uint64_t, std::uint64_t> nonce_window_;

    /// Capabilities whose request digest verified, by public portion.
    /// The private portion is a pure function of the public one under
    /// this drive's fixed keys, so an entry only saves re-deriving it;
    /// verify() still runs every check and recomputes every request
    /// digest. Bounded, and emptied on set-key, partition create and
    /// remove, and restart (it is RAM state, like nonce_window_).
    std::unordered_map<CapabilityPublic::Encoded, VerifiedCapability,
                       EncodedHash>
        verified_caps_;

    util::Counter &ops_served_;
    util::Counter &replays_rejected_;
    /// Indexed as kOpSpecs (opSpec()); empty until the op first completes.
    std::array<std::optional<OpInstruments>, kOpSpecs.size()> op_instruments_;
    bool failed_ = false;
    bool crashed_ = false;
};

} // namespace nasd

#endif // NASD_NASD_DRIVE_H_
