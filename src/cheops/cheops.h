/**
 * @file
 * Cheops: storage management by recursion on the object interface
 * (Section 5.2, organization 6 of Figure 2).
 *
 * A Cheops manager exports *logical* objects that are not directly
 * backed by data; each is striped over component NASD objects on many
 * drives. When a client opens a logical object, the manager replaces
 * the single capability a file manager would hand out with a *set* of
 * capabilities for the component objects — one extra control message,
 * after which the client transfers data directly to and from every
 * drive in parallel. Striping and redundancy happen on objects the
 * client is allowed to access, never on physical disk addresses, so
 * untrusted clients cannot corrupt anyone else's data (the contrast
 * with Zebra/xFS the paper draws).
 *
 * Three pieces, each checkable alone (DESIGN.md §7):
 *  - the layout (cheops/layout.h): pure stripe arithmetic the client
 *    interprets — which units a range touches, a row write's plan;
 *  - each object's health, healthy / dead(c) / rebuilding(c -> spare),
 *    which the manager changes in one place;
 *  - one fence per change of health or revoke: the map version
 *    advances, and the components that stay trusted get a new object
 *    version at their drives, so every capability minted before the
 *    change fails there and its holder refreshes its map (the paper's
 *    revocation by version, applied to the survivors).
 */
#ifndef NASD_CHEOPS_CHEOPS_H_
#define NASD_CHEOPS_CHEOPS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "cheops/layout.h"
#include "nasd/client.h"
#include "nasd/drive.h"
#include "nasd/managed_drives.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "sim/sync.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace nasd::cheops {

/** Identifies a logical (striped) object at the manager. */
using LogicalObjectId = std::uint64_t;

/** Cheops status codes. */
enum class [[nodiscard]] CheopsStatus : std::uint8_t {
    kOk = 0,
    kNoSuchObject,
    kStaleMap,   ///< client's layout map version is out of date
    kNoSpace,
    kDriveError,
    kAccess,
    kDegraded,   ///< success, but served from redundancy (not an error)
};

const char *toString(CheopsStatus status);

/** One component of a striped logical object. */
struct ComponentRef
{
    std::uint32_t drive = 0; ///< index into the drive set
    ObjectId oid = 0;
    Capability capability;   ///< minted per open
};

/** Redundancy scheme of a logical object (Section 5.2: "Redundancy
 *  and striping are done within the objects accessible with the
 *  client's set of capabilities"). */
enum class Redundancy : std::uint8_t {
    kNone = 0,
    /// RAID-5: rotating parity over stripe_count+1 components. At
    /// stripe_count 1 each row's parity unit is a copy of its one data
    /// unit: a two-way mirror.
    kParity,
};

/** The layout map + capability set handed to a client on open. */
struct CheopsMap
{
    LogicalObjectId id = 0;
    std::uint32_t map_version = 0;
    std::uint64_t stripe_unit_bytes = 0;
    std::vector<ComponentRef> components;
    Redundancy redundancy = Redundancy::kNone;
    /// kParity only: the object's one dead component (-1: none), named
    /// once a row write missed it or a rebuild replaces it. Its entry
    /// carries no capability and clients send it nothing: reads
    /// reconstruct its units and row writes take the degraded path.
    std::int64_t dead_component = -1;
    /// An online rebuild is reconstructing the dead component onto
    /// `rebuild_target`. While set, writes touching the dead
    /// component's stripe units must write through to the target, and
    /// every row update is bracketed by manager rebuild-lock RPCs so it
    /// serializes against the rebuild engine.
    bool rebuilding = false;
    ComponentRef rebuild_target;
};

/**
 * Result of a logical read: bytes delivered plus whether any stripe
 * unit had to be reconstructed from a redundancy component (degraded
 * success is still success — callers that only check ok() keep
 * working).
 */
struct ReadOutcome
{
    std::uint64_t bytes = 0;
    CheopsStatus status = CheopsStatus::kOk;

    bool degraded() const { return status == CheopsStatus::kDegraded; }
};

struct [[nodiscard]] OpenReply
{
    CheopsStatus status = CheopsStatus::kOk;
    CheopsMap map;
};

struct [[nodiscard]] CreateReply
{
    CheopsStatus status = CheopsStatus::kOk;
    LogicalObjectId id = 0;
};

struct [[nodiscard]] CheopsStatusReply
{
    CheopsStatus status = CheopsStatus::kOk;
};

struct [[nodiscard]] SizeReply
{
    CheopsStatus status = CheopsStatus::kOk;
    std::uint64_t size = 0;
};

struct [[nodiscard]] RebuildLockReply
{
    CheopsStatus status = CheopsStatus::kOk;
    std::uint64_t ticket = 0; ///< passed back to the unlock call
};

/** Pacing policy for the online rebuild engine: at most @p burst rows
 *  may be in flight within any @p token_interval_ns window. Tokens are
 *  permits of a semaphore acquired through the timedAcquire/
 *  scopedAcquire attribution hooks, so time the rebuild spends waiting
 *  for a token is observable (and distinguishable from time it spends
 *  queued behind foreground I/O at the drives). */
struct RebuildThrottle
{
    sim::Tick token_interval_ns = 0; ///< 0 = unthrottled
    std::uint32_t burst = 1;
};

/** Progress snapshot of a (possibly finished) rebuild. */
struct RebuildProgress
{
    bool known = false;  ///< a rebuild was ever started for the object
    bool active = false;
    std::uint64_t rows_done = 0;
    std::uint64_t rows_total = 0;
    std::uint64_t bytes_reconstructed = 0;
    std::uint64_t throttle_wait_ns = 0;
    sim::Tick started_at = 0;
    sim::Tick finished_at = 0; ///< 0 while active
};

/**
 * The Cheops storage manager (possibly co-located with a file
 * manager). Owns logical-to-component mappings and mints component
 * capability sets.
 */
class CheopsManager
{
  public:
    CheopsManager(sim::Simulator &sim, net::Network &net,
                  net::NetNode &node, std::vector<NasdDrive *> drives,
                  PartitionId partition);

    net::NetNode &node() { return node_; }

    /** Format drives and create partitions. */
    sim::Task<void> initialize(std::uint64_t partition_quota_bytes)
    {
        return drives_.format(partition_quota_bytes);
    }

    // Server-side handlers -------------------------------------------------

    /**
     * Create a logical object striped over @p stripe_count drives
     * (0 = all) with the given stripe unit. kParity adds one component
     * for the rotating parity and needs at least two drives; at
     * @p stripe_count 1 the object is mirrored.
     */
    sim::Task<CreateReply>
    serveCreate(std::uint64_t stripe_unit_bytes,
                std::uint32_t stripe_count, std::uint64_t capacity_hint,
                Redundancy redundancy = Redundancy::kNone);

    /** Hand out the layout map + capability set. */
    sim::Task<OpenReply> serveOpen(LogicalObjectId id, bool want_write);

    /** Remove the logical object and all components. */
    sim::Task<CheopsStatusReply> serveRemove(LogicalObjectId id);

    /** Logical object size (max over component extents). */
    sim::Task<SizeReply> serveGetSize(LogicalObjectId id);

    /**
     * Revoke all outstanding capability sets for @p id: a fence that
     * bumps every component's version, the dead one's included.
     */
    sim::Task<CheopsStatusReply> serveRevoke(LogicalObjectId id);

    /**
     * A client's row write of a kParity object, planned under map
     * @p map_version, went degraded because @p component failed. The
     * manager records it as the object's dead component (see
     * CheopsMap) and fences the survivors, so a client holding an older
     * map refreshes before its next write instead of folding the
     * component's stale units into parity; only a rebuild clears the
     * mark. Refuses a report made under an older map (kStaleMap: a
     * rebuild may have replaced the component since), and one naming a
     * second component (kDriveError: two stale units in a row are not
     * settleable).
     */
    sim::Task<CheopsStatusReply> serveMarkDegraded(LogicalObjectId id,
                                                   std::uint32_t component,
                                                   std::uint32_t map_version);

    /**
     * Start reconstructing @p dead_component of a kParity object onto a
     * fresh object on @p spare_drive, which may be the dead
     * component's own drive once it is back. Refuses any component but
     * the object's dead one, when one is named (a healthy object is
     * marked first). Fences stale writers at the survivors (their next
     * write sees a version mismatch, refreshes, and learns the
     * write-through rules), then reconstructs row by row under the
     * rebuild lock, paced by @p throttle. Completion is one more fence:
     * the spare replaces the dead component in the layout map, and the
     * replaced component object is removed.
     */
    sim::Task<CheopsStatusReply> serveStartRebuild(LogicalObjectId id,
                                                   std::uint32_t dead_component,
                                                   std::uint32_t spare_drive,
                                                   RebuildThrottle throttle);

    /** Acquire/release the per-object rebuild lock (client row updates
     *  during a rebuild serialize against the rebuild engine). The lock
     *  is refused (kStaleMap) once the rebuild names no spare. */
    sim::Task<RebuildLockReply> serveRebuildLock(LogicalObjectId id);
    sim::Task<CheopsStatusReply> serveRebuildUnlock(LogicalObjectId id,
                                                    std::uint64_t ticket);

    /** Direct (non-RPC) progress accessor for benches and tests. */
    RebuildProgress rebuildProgress(LogicalObjectId id) const;

  private:
    /**
     * Which components the object trusts (DESIGN.md §7): healthy;
     * dead(c), whose units are reconstructed from the rest of their
     * row; or rebuilding(c -> spare), which is dead(c) with every row
     * update also written through to the spare. Only fence() changes
     * it.
     */
    struct Health
    {
        std::int64_t dead = -1; ///< -1: healthy
        /// rebuilding: the spare component object (drive, oid)
        std::optional<std::pair<std::uint32_t, ObjectId>> spare;
    };

    struct LogicalObject
    {
        std::uint64_t stripe_unit_bytes = 0;
        std::uint32_t map_version = 1;
        Redundancy redundancy = Redundancy::kNone;
        std::vector<std::pair<std::uint32_t, ObjectId>> components;
        std::vector<ObjectVersion> component_versions;
        Health health;
        /// Open while no fence's bumps are in flight (see fence()).
        std::shared_ptr<sim::Gate> fencing;

        layout::Geometry
        geometry() const
        {
            return {stripe_unit_bytes,
                    static_cast<std::uint32_t>(components.size()),
                    redundancy == Redundancy::kParity};
        }
    };

    /** One rebuild: the progress it reports plus the engine's state.
     *  The engine and the lock calls waiting on it share it, so a later
     *  rebuild of the object never replaces a lock in use. */
    struct RebuildState : RebuildProgress
    {
        RebuildThrottle throttle;
        /// Serializes rebuild rows against client row updates.
        std::unique_ptr<sim::Semaphore> lock;
        /// Token bucket: scopedAcquire here, delayed permit return.
        std::unique_ptr<sim::Semaphore> tokens;
        /// Permits held on behalf of clients between lock/unlock RPCs.
        std::map<std::uint64_t, sim::ScopedPermit> held;
        std::uint64_t next_ticket = 1;
    };

    /** Which components a fence bumps at their drives. */
    enum class Bump : std::uint8_t {
        kNone,      ///< none: the rebuild lock fences an abort
        kSurvivors, ///< all but the component whose trust moves
        kAll,       ///< every component (a revoke)
    };

    /** The object @p id, or null. Handlers call it again after every
     *  co_await: no pointer into objects_ lives across a suspension. */
    LogicalObject *find(LogicalObjectId id);

    /**
     * The one fence. Moves object @p id to @p next (a rebuild's
     * completion swaps the spare in), advances the map version and
     * journals one `version_fence` as @p why; then bumps the drive
     * version of the components @p bump names and adopts the new
     * versions. A map minted before the move therefore fails at its
     * next op on a bumped component, and the refresh that follows
     * returns a newer map version. A failed bump does not stop the
     * rest. @return kOk; kDriveError if a bump failed; kNoSuchObject
     * if the object is gone.
     */
    sim::Task<CheopsStatus> fence(LogicalObjectId id, Health next, Bump bump,
                                  const char *why);

    /** healthy -> dead(@p component): journal the mark and fence the
     *  survivors. Nothing if the object is gone or not healthy. */
    sim::Task<void> markDead(LogicalObjectId id, std::uint32_t component);

    /** Mint a capability for @p rights on one component object.
     *  Control ops mint without expiry; data ops (@p expires) carry
     *  kCapLifetimeNs. */
    Capability mint(std::uint32_t drive, ObjectId oid, ObjectVersion version,
                    std::uint8_t rights, bool expires);
    /** A client's map entry: read(+write) capability, journaled as
     *  kCapMint. */
    ComponentRef componentRef(std::uint32_t drive, ObjectId oid,
                              ObjectVersion version, bool want_write);

    /** Remove one component object; false if the drive refused. */
    sim::Task<bool> removeObject(std::uint32_t drive, ObjectId oid,
                                 ObjectVersion version);

    // The manager acting as a drive client (rebuild paths).
    sim::Task<StoreResult<std::vector<std::uint8_t>>>
    managerRead(std::uint32_t drive, ObjectId oid, ObjectVersion version,
                std::uint64_t offset, std::uint64_t length);
    sim::Task<StoreResult<void>>
    managerWrite(std::uint32_t drive, ObjectId oid, ObjectVersion version,
                 std::uint64_t offset, std::vector<std::uint8_t> data);
    sim::Task<StoreResult<ObjectAttributes>>
    managerGetAttr(std::uint32_t drive, ObjectId oid, ObjectVersion version);
    sim::Task<StoreResult<ObjectAttributes>>
    managerBumpVersion(std::uint32_t drive, ObjectId oid,
                       ObjectVersion version);

    /** The detached rebuild engine: one spawned frame per rebuild. It
     *  runs no row, and aborts at once, unless the start was @p fenced. */
    sim::Task<void> rebuildLoop(LogicalObjectId id,
                                std::shared_ptr<RebuildState> rb,
                                std::pair<std::uint32_t, ObjectId> spare,
                                bool fenced);

    /** Returns a throttle token to the bucket after the pacing delay. */
    sim::Task<void> returnToken(sim::ScopedPermit token, sim::Tick delay);

    sim::Simulator &sim_;
    net::NetNode &node_;
    ManagedDrives drives_;
    std::map<LogicalObjectId, LogicalObject> objects_;
    LogicalObjectId next_id_ = 1;
    /// The latest rebuild per logical object; kept after it finishes so
    /// progress stays queryable.
    std::map<LogicalObjectId, std::shared_ptr<RebuildState>> rebuilds_;
    /// Registry prefix shared by all manager instruments (computed
    /// once — uniquePrefix() would dedup a second call differently).
    std::string metrics_prefix_;
    /// Control-path requests served ("<node>/cheops_mgr/control_ops").
    util::Counter &control_ops_;
    /// Rebuild engine observability (same registry prefix).
    util::Counter &rebuild_rows_;
    util::Counter &rebuild_bytes_;
    util::Counter &rebuild_throttle_wait_ns_;

    static constexpr std::uint64_t kCapLifetimeNs = 3600ull * 1000000000;
};

/**
 * The Cheops client library: translates logical-object I/O into
 * parallel component I/O using a cached layout map and its capability
 * set. Less than 10 kLoC in the original prototype; the translation
 * core is here.
 */
class CheopsClient
{
  public:
    CheopsClient(net::Network &net, net::NetNode &node, CheopsManager &mgr,
                 std::vector<NasdDrive *> drives);

    net::NetNode &node() { return node_; }

    /** Fetch (or refresh) the layout map for @p id. */
    sim::Task<util::Result<const CheopsMap *, CheopsStatus>>
    open(LogicalObjectId id, bool want_write);

    /** Create a striped logical object via the manager. */
    sim::Task<util::Result<LogicalObjectId, CheopsStatus>>
    create(std::uint64_t stripe_unit_bytes, std::uint32_t stripe_count,
           std::uint64_t capacity_hint = 0,
           Redundancy redundancy = Redundancy::kNone);

    sim::Task<util::Result<void, CheopsStatus>> remove(LogicalObjectId id);

    /**
     * Read [offset, offset+out.size()) of the logical object: splits
     * by stripe, issues per-drive reads in parallel, reassembles.
     * A kParity unit whose component is unavailable, or named dead, is
     * reconstructed from the rest of its row: the read succeeds with
     * ReadOutcome::degraded() set.
     */
    sim::Task<util::Result<ReadOutcome, CheopsStatus>>
    read(LogicalObjectId id, std::uint64_t offset,
         std::span<std::uint8_t> out, util::TraceContext parent = {});

    /** Striped parallel write. */
    sim::Task<util::Result<void, CheopsStatus>>
    write(LogicalObjectId id, std::uint64_t offset,
          std::span<const std::uint8_t> data,
          util::TraceContext parent = {});

    /** Logical size via the manager. */
    sim::Task<util::Result<std::uint64_t, CheopsStatus>>
    size(LogicalObjectId id);

    /** Trigger an online rebuild at the manager (kParity only). */
    sim::Task<util::Result<void, CheopsStatus>>
    startRebuild(LogicalObjectId id, std::uint32_t dead_component,
                 std::uint32_t spare_drive, RebuildThrottle throttle = {});

    std::uint64_t managerCalls() const { return manager_calls_.value(); }
    /** Stripe units served by XOR reconstruction (kParity reads). */
    std::uint64_t reconstructedUnits() const
    {
        return reconstructed_units_.value();
    }

  private:
    struct OpenState
    {
        CheopsMap map;
        bool writable = false;
        std::vector<std::unique_ptr<CredentialFactory>> creds;
        /// kParity rebuild write-through target (valid while rebuilding).
        std::unique_ptr<CredentialFactory> rebuild_cred;
        /// Last time a failed component made us re-ask the manager for
        /// a fresh map (a completed rebuild moves the component).
        sim::Tick last_reprobe = 0;
        /// kParity: serializes this client's concurrent RMW updates of
        /// the same stripe row (pool keyed by row % size).
        std::vector<std::unique_ptr<sim::Semaphore>> row_locks;
    };

    /** The open state of @p id with at least @p want_write rights.
     *  Upgrading a read-only open rebinds its state in place
     *  (bindOpen), never replaces it. An op holds the returned owner
     *  until it finishes, so remove() cannot free the state under
     *  its suspended transfers. */
    sim::Task<util::Result<std::shared_ptr<OpenState>, CheopsStatus>>
    ensureOpen(LogicalObjectId id, bool want_write);

    /**
     * Install @p map into an existing open: rebind its
     * CredentialFactory objects and component bindings element-wise.
     * The state itself, row locks included, stays in place: coroutines
     * suspended mid-transfer hold references into it.
     * @return false, changing nothing, if the layout's shape differs.
     */
    static bool bindOpen(OpenState &state, const CheopsMap &map);

    /** One round trip to the manager: @p serve runs there and returns
     *  the manager's Task<Reply>. */
    template <typename Reply, typename Serve>
    sim::Task<Reply> callManager(Serve serve);

    /**
     * Re-fetch the capability set with the open's rights and rebind
     * the existing CredentialFactory objects in place (coroutines
     * suspended mid-transfer hold references to them). The component
     * *bindings* (drive, oid) are refreshed in place too — a completed
     * rebuild moves a component to the spare drive.
     * @return true if fresh capabilities were installed.
     */
    sim::Task<bool> refreshCaps(LogicalObjectId id);

    /** The one recovery rule for component I/O on @p comp: on an
     *  expired capability — or, kParity only, a version mismatch (the
     *  manager's fence; elsewhere revoked must stay revoked) — refresh
     *  the capability set once and run @p op once more. The map's dead
     *  component is sent nothing, before or after the refresh: its ops
     *  fail at once with kDriveFailed. */
    template <typename Op>
    auto withRefresh(OpenState *open, LogicalObjectId id, std::uint32_t comp,
                     Op op) -> decltype(op());

    /** Read a component range under withRefresh(). Bytes land in
     *  @p out; returns the byte count read. */
    sim::Task<StoreResult<std::uint64_t>>
    readComponent(OpenState *open, LogicalObjectId id, std::uint32_t comp,
                  std::uint64_t offset, std::span<std::uint8_t> out,
                  util::TraceContext ctx);

    /** readComponent() into a fresh vector of the bytes read. */
    sim::Task<StoreResult<std::vector<std::uint8_t>>>
    readComponent(OpenState *open, LogicalObjectId id, std::uint32_t comp,
                  std::uint64_t offset, std::uint64_t length,
                  util::TraceContext ctx);

    /** Same rules for writes. */
    sim::Task<StoreResult<void>>
    writeComponent(OpenState *open, LogicalObjectId id, std::uint32_t comp,
                   std::uint64_t offset, std::span<const std::uint8_t> data,
                   util::TraceContext ctx);

    /** Read one range of every component but @p dead, in component
     *  order (the survivors of a row). */
    sim::Task<std::vector<StoreResult<std::vector<std::uint8_t>>>>
    readSurvivors(OpenState *open, LogicalObjectId id, std::uint32_t dead,
                  std::uint64_t offset, std::uint64_t length,
                  util::TraceContext ctx);

    /** Run one client op under its span and latency histogram; the
     *  op's single exit closes both, whatever the outcome. */
    template <typename R, typename Body>
    sim::Task<R> tracedOp(const char *name, util::LogHistogram &latency,
                          util::TraceContext parent, Body body);

    /** read() / write() inside their span. */
    sim::Task<util::Result<ReadOutcome, CheopsStatus>>
    readRuns(LogicalObjectId id, std::uint64_t offset,
             std::span<std::uint8_t> out, util::TraceContext ctx);
    sim::Task<util::Result<void, CheopsStatus>>
    writeRuns(LogicalObjectId id, std::uint64_t offset,
              std::span<const std::uint8_t> data, util::TraceContext ctx);

    /**
     * Reconstruct [offset, offset+length) of component @p dead by
     * XOR-ing the same range of every other component (every component
     * holds exactly one unit of each row at the same offset, so role
     * arithmetic cancels out).
     */
    sim::Task<StoreResult<std::vector<std::uint8_t>>>
    reconstructRange(OpenState *open, LogicalObjectId id, std::uint32_t dead,
                     std::uint64_t offset, std::uint64_t length,
                     util::TraceContext ctx);

    /**
     * One row's update, under this client's row lock: a
     * read-modify-write of the plan's units and parity window, whose
     * read phase the plan may skip. With a dead component the old
     * bytes come from a full-row read that reconstructs it, and its
     * slot is written through to the spare during a rebuild. A
     * component that fails is reported dead and the row is redone
     * degraded.
     */
    sim::Task<util::Result<void, CheopsStatus>>
    writeParityRow(OpenState *open, LogicalObjectId id, std::uint64_t row,
                   std::uint64_t offset, std::span<const std::uint8_t> data,
                   util::TraceContext ctx);

    net::Network &net_;
    net::NetNode &node_;
    CheopsManager &mgr_;
    std::vector<std::unique_ptr<NasdClient>> drive_clients_;
    /// Shared with the ops in flight on each object (see ensureOpen).
    std::map<LogicalObjectId, std::shared_ptr<OpenState>> open_objects_;
    /// Registry prefix shared by the client instruments.
    std::string metrics_prefix_;
    /// Round trips to the manager ("<node>/cheops/manager_calls").
    util::Counter &manager_calls_;
    /// Stripe units XOR-reconstructed on the read path.
    util::Counter &reconstructed_units_;
    /// Client-observed end-to-end op latency at
    /// "<node>/cheops/ops/<op>/latency_ns"; mergeable across clients
    /// into fleet rollups (util::FleetRollup).
    util::LogHistogram &read_latency_ns_;
    util::LogHistogram &write_latency_ns_;

    /// Row-lock pool size per open kParity object.
    static constexpr std::size_t kRowLockPool = 16;
    /// Minimum spacing between "is my map stale?" refreshes triggered
    /// by component failures (deterministic sim-time reprobe).
    static constexpr sim::Tick kReprobeIntervalNs = 250ull * 1000 * 1000;
};

} // namespace nasd::cheops

#endif // NASD_CHEOPS_CHEOPS_H_
