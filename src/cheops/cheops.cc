#include "cheops/cheops.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <span>

#include "net/rpc.h"
#include "sim/sync.h"
#include "util/flight_recorder.h"
#include "util/logging.h"

namespace nasd::cheops {

namespace {

constexpr std::uint64_t kControlPayload = 96;

/**
 * XOR every byte of @p src into the front of @p dst (parity fold).
 * Kept out of the coroutines that call it: a loop written inside a
 * coroutine body keeps its counter in the coroutine frame and reloads
 * it on every byte.
 */
void
xorInto(std::span<std::uint8_t> dst, std::span<const std::uint8_t> src)
{
    NASD_ASSERT(src.size() <= dst.size(), "xorInto: ", src.size(),
                "-byte source into ", dst.size(), "-byte destination");
    for (std::size_t j = 0; j < src.size(); ++j)
        dst[j] ^= src[j];
}

/**
 * XOR every survivor read of a row into the zeroed front of @p dst:
 * every component holds one unit per row at the same offset, so the
 * fold rebuilds the missing unit whatever role it plays. Any failed
 * read fails the fold with its status; otherwise the result is the
 * longest survivor's length.
 */
StoreResult<std::uint64_t>
xorSurvivors(std::span<std::uint8_t> dst,
             const std::vector<StoreResult<std::vector<std::uint8_t>>> &reads)
{
    std::uint64_t len = 0;
    for (const auto &r : reads) {
        if (!r.ok())
            return util::Err{r.error()};
        xorInto(dst, r.value());
        len = std::max(len, static_cast<std::uint64_t>(r.value().size()));
    }
    return len;
}

/**
 * The failure tally of one row fan-out (@p results parallel to
 * @p comps): no failure sets @p result ok; one failed component is
 * named in @p dead so the row is redone degraded; two or more fail the
 * row with kDriveError. Returns whether every op succeeded.
 */
template <typename R>
bool
tallyRow(const std::vector<R> &results,
         const std::vector<std::uint32_t> &comps, std::int64_t &dead,
         util::Result<void, CheopsStatus> &result)
{
    std::int64_t failed = -1;
    int failures = 0;
    for (std::size_t i = 0; i < results.size(); ++i) {
        if (!results[i].ok()) {
            ++failures;
            failed = comps[i];
        }
    }
    if (failures == 0)
        result = util::Result<void, CheopsStatus>{};
    else if (failures == 1)
        dead = failed;
    else
        result = util::Err{CheopsStatus::kDriveError};
    return failures == 0;
}

/** Wire size of each manager reply; an open carries the capability set. */
std::uint64_t
replyBytes(const OpenReply &r)
{
    return 64 + 160 * r.map.components.size();
}
std::uint64_t replyBytes(const CheopsStatusReply &) { return 16; }
std::uint64_t replyBytes(const CreateReply &) { return 24; }
std::uint64_t replyBytes(const SizeReply &) { return 24; }
std::uint64_t replyBytes(const RebuildLockReply &) { return 24; }

util::Result<void, CheopsStatus>
statusResult(CheopsStatus status)
{
    if (status != CheopsStatus::kOk)
        return util::Err{status};
    return {};
}

} // namespace

const char *
toString(CheopsStatus status)
{
    switch (status) {
      case CheopsStatus::kOk:
        return "ok";
      case CheopsStatus::kNoSuchObject:
        return "no-such-object";
      case CheopsStatus::kStaleMap:
        return "stale-map";
      case CheopsStatus::kNoSpace:
        return "no-space";
      case CheopsStatus::kDriveError:
        return "drive-error";
      case CheopsStatus::kAccess:
        return "access";
      case CheopsStatus::kDegraded:
        return "degraded";
    }
    return "unknown";
}

// ---------------------------------------------------------------- manager

CheopsManager::CheopsManager(sim::Simulator &sim, net::Network &net,
                             net::NetNode &node,
                             std::vector<NasdDrive *> drives,
                             PartitionId partition)
    : sim_(sim), node_(node),
      drives_(net, node, std::move(drives), partition),
      metrics_prefix_(
          util::metrics().uniquePrefix(node.name() + "/cheops_mgr")),
      control_ops_(util::metrics().counter(metrics_prefix_ + "/control_ops")),
      rebuild_rows_(util::metrics().counter(metrics_prefix_ +
                                            "/rebuild/rows")),
      rebuild_bytes_(util::metrics().counter(metrics_prefix_ +
                                             "/rebuild/bytes")),
      rebuild_throttle_wait_ns_(util::metrics().counter(
          metrics_prefix_ + "/rebuild/throttle_wait_ns"))
{}

CheopsManager::LogicalObject *
CheopsManager::find(LogicalObjectId id, CheopsStatus &status)
{
    const auto it = objects_.find(id);
    if (it != objects_.end())
        return &it->second;
    status = CheopsStatus::kNoSuchObject;
    return nullptr;
}

Capability
CheopsManager::mint(std::uint32_t drive, ObjectId oid, ObjectVersion version,
                    std::uint8_t rights, bool expires)
{
    return drives_.mint(drive, oid, version, rights, ~0ull,
                        expires ? sim_.now() + kCapLifetimeNs : ~0ull);
}

ComponentRef
CheopsManager::componentRef(std::uint32_t drive, ObjectId oid,
                            ObjectVersion version, bool want_write)
{
    ComponentRef ref{
        drive, oid,
        mint(drive, oid, version,
             kRightRead | kRightGetAttr | (want_write ? kRightWrite : 0),
             /*expires=*/true)};
    node_.flightJournal().record(sim_.now(), util::FrEvent::kCapMint, 0,
                                 oid, ref.capability.pub.expiry_ns);
    return ref;
}

sim::Task<bool>
CheopsManager::removeObject(std::uint32_t drive, ObjectId oid,
                            ObjectVersion version)
{
    CredentialFactory cred(
        mint(drive, oid, version, kRightRemove, /*expires=*/false));
    auto removed = co_await drives_.client(drive).remove(cred);
    co_return removed.ok();
}

void
CheopsManager::bumpMapVersion(LogicalObjectId id, LogicalObject &obj,
                              const char *why)
{
    ++obj.map_version;
    node_.flightJournal().record(sim_.now(), util::FrEvent::kVersionFence,
                                 0, id, obj.map_version, why);
}

void
CheopsManager::markDead(LogicalObjectId id, LogicalObject &obj,
                        std::uint32_t component)
{
    if (obj.dead >= 0)
        return;
    // Fence the component without touching its (possibly dead) drive:
    // every map minted from now on names it and carries no capability
    // for it, so its stale units are never read.
    obj.dead = component;
    node_.flightJournal().record(sim_.now(), util::FrEvent::kMarkDegraded,
                                 0, id, component);
    bumpMapVersion(id, obj, "mark_degraded");
}

sim::Task<bool>
CheopsManager::fenceComponents(LogicalObject &obj, std::int64_t skip,
                               bool expires)
{
    bool all = true;
    for (std::size_t i = 0; i < obj.components.size(); ++i) {
        if (static_cast<std::int64_t>(i) == skip)
            continue;
        const auto &[drive, oid] = obj.components[i];
        auto bumped = co_await managerBumpVersion(
            drive, oid, obj.component_versions[i], expires);
        if (bumped.ok())
            obj.component_versions[i] = bumped.value().version;
        else
            all = false;
    }
    co_return all;
}

sim::Task<CreateReply>
CheopsManager::serveCreate(std::uint64_t stripe_unit_bytes,
                           std::uint32_t stripe_count,
                           std::uint64_t capacity_hint,
                           Redundancy redundancy)
{
    CreateReply reply;
    NASD_ASSERT(stripe_unit_bytes > 0);
    // stripe_count is the *data* width; parity adds one component.
    // Keeping a drive in reserve as a rebuild spare is the caller's
    // business — any drives beyond width+1 stay unused.
    const std::uint32_t extra = redundancy == Redundancy::kParity ? 1 : 0;
    if (drives_.size() < 1 + extra) {
        reply.status = CheopsStatus::kNoSpace;
        co_return reply;
    }
    if (stripe_count == 0 || stripe_count + extra > drives_.size())
        stripe_count = drives_.size() - extra;

    LogicalObject obj;
    obj.stripe_unit_bytes = stripe_unit_bytes;
    obj.redundancy = redundancy;
    const std::uint64_t per_drive_hint =
        capacity_hint / stripe_count + stripe_unit_bytes;

    // One component object on each participating drive (with parity,
    // one extra component so each row can hold its rotating parity
    // unit).
    for (std::uint32_t drive = 0; drive < stripe_count + extra; ++drive) {
        auto made = co_await drives_.create(drive, per_drive_hint);
        if (!made.ok()) {
            // A mid-loop failure must not strand the objects already
            // created: best-effort removal (the drive that failed may
            // hold some of them) before reporting the error.
            for (const auto &[d, oid] : obj.components)
                (void)co_await removeObject(d, oid, 1);
            reply.status = CheopsStatus::kDriveError;
            co_return reply;
        }
        obj.components.emplace_back(drive, made.value());
        obj.component_versions.push_back(1);
    }

    const LogicalObjectId id = next_id_++;
    objects_[id] = std::move(obj);
    reply.id = id;
    control_ops_.add(1);
    co_return reply;
}

sim::Task<OpenReply>
CheopsManager::serveOpen(LogicalObjectId id, bool want_write)
{
    OpenReply reply;
    const LogicalObject *obj = find(id, reply.status);
    if (obj == nullptr)
        co_return reply;
    reply.map.id = id;
    reply.map.map_version = obj->map_version;
    reply.map.stripe_unit_bytes = obj->stripe_unit_bytes;
    reply.map.redundancy = obj->redundancy;
    reply.map.dead_component = obj->dead;
    for (std::size_t i = 0; i < obj->components.size(); ++i) {
        const auto &[drive, oid] = obj->components[i];
        // The dead component is named but gets no capability.
        reply.map.components.push_back(
            static_cast<std::int64_t>(i) == obj->dead
                ? ComponentRef{drive, oid, {}}
                : componentRef(drive, oid, obj->component_versions[i],
                               want_write));
    }
    // Only kParity objects rebuild.
    if (const auto rit = rebuilds_.find(id);
        rit != rebuilds_.end() && rit->second.namesSpare()) {
        reply.map.rebuilding = true;
        // Write-through needs write rights regardless of how the object
        // was opened; the spare is not readable until the rebuild swaps
        // it into the map.
        reply.map.rebuild_target =
            componentRef(rit->second.spare_drive, rit->second.spare_oid, 1,
                         /*want_write=*/true);
    }
    // Minting a capability set is pure CPU work at the manager.
    co_await node_.cpu().execute(4000 +
                                 2000 * reply.map.components.size());
    control_ops_.add(1);
    co_return reply;
}

sim::Task<CheopsStatusReply>
CheopsManager::serveRemove(LogicalObjectId id)
{
    CheopsStatusReply reply;
    const LogicalObject *obj = find(id, reply.status);
    if (obj == nullptr)
        co_return reply;
    for (std::size_t i = 0; i < obj->components.size(); ++i) {
        const auto &[drive, oid] = obj->components[i];
        if (!co_await removeObject(drive, oid,
                                   obj->component_versions[i]))
            reply.status = CheopsStatus::kDriveError;
    }
    objects_.erase(id);
    control_ops_.add(1);
    co_return reply;
}

sim::Task<SizeReply>
CheopsManager::serveGetSize(LogicalObjectId id)
{
    SizeReply reply;
    const LogicalObject *obj = find(id, reply.status);
    if (obj == nullptr)
        co_return reply;
    // Logical size: reconstruct from component sizes. Component k has
    // the stripe units s with s mod n == k.
    const std::uint64_t su = obj->stripe_unit_bytes;
    const auto n = static_cast<std::uint64_t>(obj->components.size());
    std::uint64_t logical = 0;
    for (std::size_t k = 0; k < obj->components.size(); ++k) {
        const auto &[drive, oid] = obj->components[k];
        auto attrs = co_await managerGetAttr(
            drive, oid, obj->component_versions[k], /*expires=*/false);
        if (!attrs.ok()) {
            reply.status = CheopsStatus::kDriveError;
            co_return reply;
        }
        const std::uint64_t csize = attrs.value().size;
        if (csize == 0)
            continue;
        // The last byte sits at `within` in the component's unit `row`.
        const std::uint64_t row = (csize - 1) / su;
        const std::uint64_t within = (csize - 1) % su;
        std::uint64_t logical_last = 0;
        if (obj->redundancy == Redundancy::kParity) {
            // Every component stores one unit per row. A data unit
            // maps back exactly; a parity unit of length w+1 only
            // proves *some* data unit of the row reaches w, so use
            // the first data slot as a conservative lower bound
            // (exact for the row-aligned writes the planner favors).
            const auto w = static_cast<std::uint32_t>(
                obj->components.size() - 1);
            const std::uint32_t p = parityComponent(row, w);
            if (p == static_cast<std::uint32_t>(k)) {
                logical_last = row * su * w + within;
            } else {
                std::uint32_t d = 0;
                while (dataComponent(row, d, w) !=
                       static_cast<std::uint32_t>(k))
                    ++d;
                logical_last = row * su * w + d * su + within;
            }
        } else {
            // Last byte of component k at offset csize-1 maps to
            // logical offset: full_stripes*su*n + k*su + within.
            logical_last = row * su * n + k * su + within;
        }
        logical = std::max(logical, logical_last + 1);
    }
    reply.size = logical;
    control_ops_.add(1);
    co_return reply;
}

sim::Task<CheopsStatusReply>
CheopsManager::serveRevoke(LogicalObjectId id)
{
    CheopsStatusReply reply;
    LogicalObject *obj = find(id, reply.status);
    if (obj == nullptr)
        co_return reply;
    if (!co_await fenceComponents(*obj, -1, /*expires=*/false))
        reply.status = CheopsStatus::kDriveError;
    bumpMapVersion(id, *obj, "revoke");
    control_ops_.add(1);
    co_return reply;
}

std::uint32_t
CheopsManager::parityComponent(std::uint64_t row, std::uint32_t data_width)
{
    return data_width -
           static_cast<std::uint32_t>(row % (data_width + 1));
}

std::uint32_t
CheopsManager::dataComponent(std::uint64_t row, std::uint32_t d,
                             std::uint32_t data_width)
{
    return (parityComponent(row, data_width) + 1 + d) % (data_width + 1);
}

sim::Task<StoreResult<std::vector<std::uint8_t>>>
CheopsManager::managerRead(std::uint32_t drive, ObjectId oid,
                           ObjectVersion version, std::uint64_t offset,
                           std::uint64_t length)
{
    CredentialFactory cred(
        mint(drive, oid, version, kRightRead | kRightGetAttr,
             /*expires=*/true));
    co_return co_await drives_.client(drive).read(cred, offset, length);
}

sim::Task<StoreResult<void>>
CheopsManager::managerWrite(std::uint32_t drive, ObjectId oid,
                            ObjectVersion version, std::uint64_t offset,
                            std::vector<std::uint8_t> data)
{
    CredentialFactory cred(
        mint(drive, oid, version, kRightWrite, /*expires=*/true));
    co_return co_await drives_.client(drive).write(cred, offset, data);
}

sim::Task<StoreResult<ObjectAttributes>>
CheopsManager::managerGetAttr(std::uint32_t drive, ObjectId oid,
                              ObjectVersion version, bool expires)
{
    CredentialFactory cred(mint(drive, oid, version, kRightGetAttr, expires));
    co_return co_await drives_.client(drive).getAttr(cred);
}

sim::Task<StoreResult<ObjectAttributes>>
CheopsManager::managerBumpVersion(std::uint32_t drive, ObjectId oid,
                                  ObjectVersion version, bool expires)
{
    CredentialFactory cred(mint(drive, oid, version, kRightSetAttr, expires));
    SetAttrRequest req;
    req.bump_version = true;
    co_return co_await drives_.client(drive).setAttr(cred, req);
}

sim::Task<CheopsStatusReply>
CheopsManager::serveMarkDegraded(LogicalObjectId id, std::uint32_t component,
                                 std::uint32_t map_version)
{
    CheopsStatusReply reply;
    LogicalObject *obj = find(id, reply.status);
    if (obj == nullptr || obj->redundancy != Redundancy::kParity ||
        component >= obj->components.size()) {
        reply.status = CheopsStatus::kNoSuchObject;
        co_return reply;
    }
    if (map_version != obj->map_version) {
        // The layout changed since the failed write: the component it
        // names may be a rebuild's spare by now.
        reply.status = CheopsStatus::kStaleMap;
        co_return reply;
    }
    if (obj->dead >= 0 && obj->dead != component) {
        // Another component already missed a write: accepting this
        // report would leave a row with two stale units.
        reply.status = CheopsStatus::kDriveError;
        co_return reply;
    }
    markDead(id, *obj, component);
    co_await node_.cpu().execute(2000);
    control_ops_.add(1);
    co_return reply;
}

sim::Task<CheopsStatusReply>
CheopsManager::serveStartRebuild(LogicalObjectId id,
                                 std::uint32_t dead_component,
                                 std::uint32_t spare_drive,
                                 RebuildThrottle throttle)
{
    CheopsStatusReply reply;
    LogicalObject *obj = find(id, reply.status);
    if (obj == nullptr)
        co_return reply;
    // Only one rebuild at a time, only of the dead component when one
    // is named, and the spare must not share a spindle with any
    // surviving component, or the next failure would take out two
    // units of a row. The dead component's own drive is fine.
    const auto rit = rebuilds_.find(id);
    bool refused = obj->redundancy != Redundancy::kParity ||
                   dead_component >= obj->components.size() ||
                   spare_drive >= drives_.size() ||
                   (obj->dead >= 0 && obj->dead != dead_component) ||
                   (rit != rebuilds_.end() && rit->second.active);
    for (std::size_t i = 0; i < obj->components.size(); ++i) {
        refused = refused || (i != dead_component &&
                              obj->components[i].first == spare_drive);
    }
    if (refused) {
        reply.status = CheopsStatus::kAccess;
        co_return reply;
    }
    // The request names the component dead at once, so no report of
    // another component's failure slips in while the spare is set up.
    markDead(id, *obj, dead_component);

    // Qualify the spare: the drive must answer and its partition must
    // have room for the reconstructed component. A dead spare found
    // now is a cheap rejection; found mid-rebuild it is an abort.
    auto probed = co_await drives_.client(spare_drive).probe(
        drives_.partition());
    if (!probed.ok()) {
        reply.status = CheopsStatus::kDriveError;
        co_return reply;
    }

    // Size the rebuild from the surviving components: parity is always
    // as long as the longest data unit of its row, so the max survivor
    // extent bounds the dead component's extent.
    std::uint64_t max_size = 0;
    for (std::size_t i = 0; i < obj->components.size(); ++i) {
        if (i == dead_component)
            continue;
        const auto &[drive, oid] = obj->components[i];
        auto attrs = co_await managerGetAttr(
            drive, oid, obj->component_versions[i], /*expires=*/true);
        if (!attrs.ok()) {
            reply.status = CheopsStatus::kDriveError;
            co_return reply;
        }
        max_size = std::max(max_size, attrs.value().size);
    }
    if (probed.value().free_bytes < max_size) {
        reply.status = CheopsStatus::kNoSpace;
        co_return reply;
    }

    // Allocate the spare component object.
    auto spare = co_await drives_.create(spare_drive, max_size);
    if (!spare.ok()) {
        reply.status = CheopsStatus::kDriveError;
        co_return reply;
    }

    // Fence stale writers: bump every surviving component's version.
    // A client holding the pre-rebuild map hits kVersionMismatch on
    // its next component write, refreshes, and learns it must bracket
    // row updates with the rebuild lock and write through to the
    // spare. Without this, a stale writer could update a row the
    // engine already passed and the spare would miss the bytes. Unlike
    // the other fences, the first failed bump ends this one.
    for (std::size_t i = 0; i < obj->components.size(); ++i) {
        if (i == dead_component)
            continue;
        const auto &[drive, oid] = obj->components[i];
        auto bumped = co_await managerBumpVersion(
            drive, oid, obj->component_versions[i], /*expires=*/true);
        if (!bumped.ok()) {
            reply.status = CheopsStatus::kDriveError;
            co_return reply;
        }
        obj->component_versions[i] = bumped.value().version;
    }
    bumpMapVersion(id, *obj, "rebuild_fence");

    RebuildState &rb = rebuilds_[id];
    static_cast<RebuildProgress &>(rb) = RebuildProgress{
        .known = true,
        .active = true,
        .rows_total = (max_size + obj->stripe_unit_bytes - 1) /
                      obj->stripe_unit_bytes,
        .started_at = sim_.now()};
    rb.aborted = false;
    rb.spare_drive = spare_drive;
    rb.spare_oid = spare.value();
    rb.throttle = throttle;
    rb.lock = std::make_unique<sim::Semaphore>(sim_, 1);
    if (throttle.token_interval_ns > 0) {
        rb.tokens = std::make_unique<sim::Semaphore>(
            sim_, std::max<std::uint32_t>(1, throttle.burst));
    }
    node_.flightJournal().record(sim_.now(), util::FrEvent::kRebuildStart,
                                 0, id, dead_component);
    sim_.spawn(rebuildLoop(id));
    control_ops_.add(1);
    co_return reply;
}

sim::Task<void>
CheopsManager::returnToken(sim::ScopedPermit token, sim::Tick delay)
{
    co_await sim_.delay(delay);
    token.release();
}

sim::Task<void>
CheopsManager::rebuildLoop(LogicalObjectId id)
{
    const auto rit = rebuilds_.find(id);
    NASD_ASSERT(rit != rebuilds_.end(), "rebuild loop without state");
    RebuildState &rb = rit->second; // map nodes are address-stable

    const char *stopped = nullptr; // why the rebuild stopped short
    for (std::uint64_t row = 0; row < rb.rows_total; ++row) {
        if (rb.tokens) {
            // Token-bucket pacing: at most `burst` rows per interval.
            // The wait is measured through the scopedAcquire
            // attribution hook so throttle stalls are distinguishable
            // from queueing behind foreground I/O at the drives.
            auto token = co_await sim::scopedAcquire(sim_, *rb.tokens);
            rb.throttle_wait_ns +=
                static_cast<std::uint64_t>(token.waitNs());
            rebuild_throttle_wait_ns_.add(
                static_cast<std::uint64_t>(token.waitNs()));
            sim_.spawn(returnToken(std::move(token),
                                   rb.throttle.token_interval_ns));
        }
        auto permit = co_await sim::scopedAcquire(sim_, *rb.lock);
        node_.flightJournal().record(sim_.now(),
                                     util::FrEvent::kRowLockAcquire, 0, id,
                                     0, "engine");
        const auto oit = objects_.find(id);
        if (oit == objects_.end()) {
            stopped = "object_removed";
            break;
        }
        LogicalObject &obj = oit->second;
        const std::uint64_t su = obj.stripe_unit_bytes;

        // Reconstruct the dead unit from the same offsets on every
        // surviving component.
        std::vector<sim::Task<StoreResult<std::vector<std::uint8_t>>>>
            reads;
        for (std::size_t i = 0; i < obj.components.size(); ++i) {
            if (static_cast<std::int64_t>(i) == obj.dead)
                continue;
            const auto &[drive, oid] = obj.components[i];
            reads.push_back(managerRead(drive, oid,
                                        obj.component_versions[i],
                                        row * su, su));
        }
        auto got = co_await sim::parallelGather(sim_, std::move(reads));
        std::vector<std::uint8_t> unit(su, 0);
        const auto len = xorSurvivors(unit, got);
        if (!len.ok()) {
            stopped = "second_failure";
            break;
        }
        if (len.value() > 0) {
            unit.resize(len.value());
            auto wrote = co_await managerWrite(rb.spare_drive, rb.spare_oid,
                                               1, row * su,
                                               std::move(unit));
            if (!wrote.ok()) {
                stopped = "spare_write";
                break;
            }
            rb.bytes_reconstructed += len.value();
            rebuild_bytes_.add(len.value());
        }
        ++rb.rows_done;
        rebuild_rows_.add(1);
        node_.flightJournal().record(sim_.now(),
                                     util::FrEvent::kRowLockRelease, 0, id,
                                     0, "engine");
        permit.release();
    }
    if (stopped == nullptr) {
        // Completion: swap the spare into the layout map in place and
        // let clients discover the move via map refresh (reprobe / next
        // open). The survivors' versions are bumped first — the same
        // fence as rebuild start. Without it a client still holding the
        // rebuild-era map keeps taking the degraded path: its new bytes
        // land only in the survivors' parity while a fresh-map reader
        // fetches the spare directly and sees pre-rebuild data.
        auto permit = co_await sim::scopedAcquire(sim_, *rb.lock);
        const auto oit = objects_.find(id);
        if (oit != objects_.end()) {
            LogicalObject &obj = oit->second;
            (void)co_await fenceComponents(obj, obj.dead, /*expires=*/true);
            // The spare replaces the dead component, which takes the
            // dead mark with it.
            const auto dead = static_cast<std::size_t>(obj.dead);
            const auto [old_drive, old_oid] = obj.components[dead];
            const ObjectVersion old_version = obj.component_versions[dead];
            obj.components[dead] = {rb.spare_drive, rb.spare_oid};
            obj.component_versions[dead] = 1;
            obj.dead = -1;
            bumpMapVersion(id, obj, "rebuild_refence");
            rb.active = false;
            rb.finished_at = sim_.now();
            node_.flightJournal().record(sim_.now(),
                                         util::FrEvent::kRebuildComplete, 0,
                                         id, rb.rows_done);
            permit.release();
            // The replaced object holds only stale bytes now. Best
            // effort: its drive may still be down.
            (void)co_await removeObject(old_drive, old_oid, old_version);
            co_return;
        }
        stopped = "object_removed";
    }
    // Fence before the spare removal can yield: from here on the
    // rebuild lock refuses clients that hold the `rebuilding` map, and
    // the refresh they make finds a newer map that names no spare
    // (namesSpare() is false while the removal is in flight).
    rb.aborted = true;
    if (const auto oit = objects_.find(id); oit != objects_.end())
        bumpMapVersion(id, oit->second, "rebuild_abort");
    // Every exit that does not swap the spare in gives its space back
    // (best effort: the spare drive may be the one that failed) before
    // the rebuild reports itself finished.
    (void)co_await removeObject(rb.spare_drive, rb.spare_oid, 1);
    rb.active = false;
    rb.finished_at = sim_.now();
    node_.flightJournal().record(sim_.now(), util::FrEvent::kRebuildAbort, 0,
                                 id, rb.rows_done, stopped);
}

sim::Task<RebuildLockReply>
CheopsManager::serveRebuildLock(LogicalObjectId id)
{
    RebuildLockReply reply;
    const auto rit = rebuilds_.find(id);
    if (rit == rebuilds_.end()) {
        reply.status = CheopsStatus::kNoSuchObject;
        co_return reply;
    }
    RebuildState &rb = rit->second;
    auto permit = co_await sim::scopedAcquire(sim_, *rb.lock);
    // A client that still holds the `rebuilding` map after an abort or
    // a completion refreshes at once, rather than being turned away by
    // the survivors' version fence at the drives.
    if (!rb.namesSpare()) {
        reply.status = CheopsStatus::kStaleMap;
        co_return reply;
    }
    reply.ticket = rb.next_ticket++;
    rb.held.emplace(reply.ticket, std::move(permit));
    node_.flightJournal().record(sim_.now(),
                                 util::FrEvent::kRowLockAcquire, 0, id,
                                 reply.ticket);
    control_ops_.add(1);
    co_return reply;
}

sim::Task<CheopsStatusReply>
CheopsManager::serveRebuildUnlock(LogicalObjectId id, std::uint64_t ticket)
{
    CheopsStatusReply reply;
    const auto rit = rebuilds_.find(id);
    // Erasing the held permit returns it to the rebuild lock.
    if (rit == rebuilds_.end() || rit->second.held.erase(ticket) == 0) {
        reply.status = CheopsStatus::kNoSuchObject;
        co_return reply;
    }
    node_.flightJournal().record(sim_.now(),
                                 util::FrEvent::kRowLockRelease, 0, id,
                                 ticket);
    control_ops_.add(1);
    co_return reply;
}

RebuildProgress
CheopsManager::rebuildProgress(LogicalObjectId id) const
{
    const auto rit = rebuilds_.find(id);
    if (rit == rebuilds_.end())
        return {};
    return rit->second;
}

// ----------------------------------------------------------------- client

CheopsClient::CheopsClient(net::Network &net, net::NetNode &node,
                           CheopsManager &mgr,
                           std::vector<NasdDrive *> drives)
    : net_(net), node_(node), mgr_(mgr),
      metrics_prefix_(util::metrics().uniquePrefix(node.name() + "/cheops")),
      manager_calls_(
          util::metrics().counter(metrics_prefix_ + "/manager_calls")),
      reconstructed_units_(
          util::metrics().counter(metrics_prefix_ + "/reconstructed_units")),
      read_latency_ns_(
          util::metrics().latency(metrics_prefix_ + "/ops/read/latency_ns")),
      write_latency_ns_(
          util::metrics().latency(metrics_prefix_ + "/ops/write/latency_ns"))
{
    for (auto *drive : drives) {
        drive_clients_.push_back(
            std::make_unique<NasdClient>(net, node_, *drive));
    }
}

template <typename Reply, typename Serve>
sim::Task<Reply>
CheopsClient::callManager(Serve serve)
{
    manager_calls_.add(1);
    // A named handler: a prvalue std::function must not cross a
    // coroutine boundary (see nasd/client.cc).
    const std::function<sim::Task<net::RpcReply<Reply>>()> handler =
        [&serve]() -> sim::Task<net::RpcReply<Reply>> {
        Reply r = co_await serve();
        const std::uint64_t bytes = replyBytes(r);
        co_return net::RpcReply<Reply>{std::move(r), bytes};
    };
    co_return co_await net::call<Reply>(net_, node_, mgr_.node(),
                                        kControlPayload, handler);
}

sim::Task<util::Result<std::shared_ptr<CheopsClient::OpenState>, CheopsStatus>>
CheopsClient::ensureOpen(LogicalObjectId id, bool want_write)
{
    auto it = open_objects_.find(id);
    if (it != open_objects_.end() &&
        (!want_write || it->second->writable)) {
        co_return it->second;
    }

    auto reply = co_await callManager<OpenReply>(
        [&] { return mgr_.serveOpen(id, want_write); });
    if (reply.status != CheopsStatus::kOk)
        co_return util::Err{reply.status};

    // An upgrade, or an open that raced this one: the existing state
    // may be in use by suspended transfers, so it is rebound in place.
    it = open_objects_.find(id);
    if (it != open_objects_.end()) {
        OpenState &state = *it->second;
        if (state.writable && !want_write)
            co_return it->second; // never trade write rights for read
        if (!bindOpen(state, reply.map))
            co_return util::Err{CheopsStatus::kStaleMap};
        state.writable = want_write;
        co_return it->second;
    }

    OpenState state;
    state.map = std::move(reply.map);
    state.writable = want_write;
    for (const auto &comp : state.map.components) {
        state.creds.push_back(
            std::make_unique<CredentialFactory>(comp.capability));
    }
    if (state.map.redundancy == Redundancy::kParity) {
        // Holds a usable capability while the map says rebuilding.
        state.rebuild_cred = std::make_unique<CredentialFactory>(
            state.map.rebuild_target.capability);
        for (std::size_t i = 0; i < kRowLockPool; ++i) {
            state.row_locks.push_back(
                std::make_unique<sim::Semaphore>(net_.simulator(), 1));
        }
    }
    co_return open_objects_
        .emplace(id, std::make_shared<OpenState>(std::move(state)))
        .first->second;
}

bool
CheopsClient::bindOpen(OpenState &state, const CheopsMap &map)
{
    if (map.components.size() != state.creds.size())
        return false;
    // The whole ComponentRef is assigned (not just the capability): a
    // completed rebuild moves a component to the spare drive, and the
    // suspended runs must see the new (drive, oid) binding.
    for (std::size_t i = 0; i < state.creds.size(); ++i) {
        state.creds[i]->rebind(map.components[i].capability);
        state.map.components[i] = map.components[i];
    }
    state.map.map_version = map.map_version;
    state.map.dead_component = map.dead_component;
    state.map.rebuilding = map.rebuilding;
    state.map.rebuild_target = map.rebuild_target;
    if (map.rebuilding) // only parity maps rebuild
        state.rebuild_cred->rebind(map.rebuild_target.capability);
    return true;
}

sim::Task<bool>
CheopsClient::refreshCaps(LogicalObjectId id)
{
    auto it = open_objects_.find(id);
    if (it == open_objects_.end())
        co_return false;
    const std::shared_ptr<OpenState> hold = it->second; // outlives remove()
    OpenState &state = *hold;
    const bool writable = state.writable;

    auto reply = co_await callManager<OpenReply>(
        [&] { return mgr_.serveOpen(id, writable); });
    if (reply.status != CheopsStatus::kOk)
        co_return false;
    const std::uint32_t old_version = state.map.map_version;
    if (!bindOpen(state, reply.map))
        co_return false; // layout changed under us; caller re-opens
    node_.flightJournal().record(net_.simulator().now(),
                                 util::FrEvent::kCapRefresh, 0, id,
                                 reply.map.map_version);
    if (reply.map.map_version != old_version) {
        node_.flightJournal().record(net_.simulator().now(),
                                     util::FrEvent::kMapRefresh, 0, id,
                                     reply.map.map_version);
    }
    co_return true;
}

sim::Task<util::Result<const CheopsMap *, CheopsStatus>>
CheopsClient::open(LogicalObjectId id, bool want_write)
{
    auto state = co_await ensureOpen(id, want_write);
    if (!state.ok())
        co_return util::Err{state.error()};
    co_return &state.value()->map;
}

sim::Task<util::Result<LogicalObjectId, CheopsStatus>>
CheopsClient::create(std::uint64_t stripe_unit_bytes,
                     std::uint32_t stripe_count,
                     std::uint64_t capacity_hint, Redundancy redundancy)
{
    auto reply = co_await callManager<CreateReply>([&] {
        return mgr_.serveCreate(stripe_unit_bytes, stripe_count,
                                capacity_hint, redundancy);
    });
    if (reply.status != CheopsStatus::kOk)
        co_return util::Err{reply.status};
    co_return reply.id;
}

sim::Task<util::Result<void, CheopsStatus>>
CheopsClient::remove(LogicalObjectId id)
{
    open_objects_.erase(id);
    auto reply = co_await callManager<CheopsStatusReply>(
        [&] { return mgr_.serveRemove(id); });
    co_return statusResult(reply.status);
}

sim::Task<util::Result<std::uint64_t, CheopsStatus>>
CheopsClient::size(LogicalObjectId id)
{
    auto reply = co_await callManager<SizeReply>(
        [&] { return mgr_.serveGetSize(id); });
    if (reply.status != CheopsStatus::kOk)
        co_return util::Err{reply.status};
    co_return reply.size;
}

sim::Task<util::Result<void, CheopsStatus>>
CheopsClient::startRebuild(LogicalObjectId id, std::uint32_t dead_component,
                           std::uint32_t spare_drive,
                           RebuildThrottle throttle)
{
    auto reply = co_await callManager<CheopsStatusReply>([&] {
        return mgr_.serveStartRebuild(id, dead_component, spare_drive,
                                      throttle);
    });
    co_return statusResult(reply.status);
}

template <typename Op>
auto
CheopsClient::withRefresh(OpenState *open, LogicalObjectId id, Op op)
    -> decltype(op())
{
    auto r = co_await op();
    if (!r.ok() && (r.error() == NasdStatus::kExpiredCapability ||
                    (open->map.redundancy == Redundancy::kParity &&
                     r.error() == NasdStatus::kVersionMismatch))) {
        if (co_await refreshCaps(id))
            r = co_await op();
    }
    co_return r;
}

sim::Task<StoreResult<std::uint64_t>>
CheopsClient::readComponent(OpenState *open, LogicalObjectId id,
                            std::uint32_t comp, std::uint64_t offset,
                            std::span<std::uint8_t> out,
                            util::TraceContext ctx)
{
    if (comp == open->map.dead_component)
        co_return util::Err{NasdStatus::kDriveFailed};
    // refreshCaps rebinds these in place, so a retry sees a moved
    // component's new drive.
    auto &ref = open->map.components[comp];
    auto &cred = *open->creds[comp];
    co_return co_await withRefresh(open, id, [&] {
        return drive_clients_[ref.drive]->read(cred, offset, out, ctx);
    });
}

sim::Task<StoreResult<std::vector<std::uint8_t>>>
CheopsClient::readComponent(OpenState *open, LogicalObjectId id,
                            std::uint32_t comp, std::uint64_t offset,
                            std::uint64_t length, util::TraceContext ctx)
{
    std::vector<std::uint8_t> out(length);
    auto n = co_await readComponent(open, id, comp, offset, std::span(out),
                                    ctx);
    if (!n.ok())
        co_return util::Err{n.error()};
    out.resize(n.value());
    co_return out;
}

sim::Task<StoreResult<void>>
CheopsClient::writeComponent(OpenState *open, LogicalObjectId id,
                             std::uint32_t comp, std::uint64_t offset,
                             std::span<const std::uint8_t> data,
                             util::TraceContext ctx)
{
    if (comp == open->map.dead_component)
        co_return util::Err{NasdStatus::kDriveFailed};
    auto &ref = open->map.components[comp];
    auto &cred = *open->creds[comp];
    co_return co_await withRefresh(open, id, [&] {
        return drive_clients_[ref.drive]->write(cred, offset, data, ctx);
    });
}

sim::Task<std::vector<StoreResult<std::vector<std::uint8_t>>>>
CheopsClient::readSurvivors(OpenState *open, LogicalObjectId id,
                            std::uint32_t dead, std::uint64_t offset,
                            std::uint64_t length, util::TraceContext ctx)
{
    std::vector<sim::Task<StoreResult<std::vector<std::uint8_t>>>> reads;
    for (std::uint32_t c = 0;
         c < static_cast<std::uint32_t>(open->map.components.size()); ++c) {
        if (c != dead)
            reads.push_back(readComponent(open, id, c, offset, length, ctx));
    }
    co_return co_await sim::parallelGather(net_.simulator(),
                                           std::move(reads));
}

sim::Task<StoreResult<std::vector<std::uint8_t>>>
CheopsClient::reconstructRange(OpenState *open, LogicalObjectId id,
                               std::uint32_t dead, std::uint64_t offset,
                               std::uint64_t length, util::TraceContext ctx)
{
    const std::uint64_t su = open->map.stripe_unit_bytes;
    std::vector<std::uint8_t> out(length, 0);

    // Work in unit-aligned chunks so each XOR stays within one row:
    // component offset o belongs to row o / su on *every* component,
    // making reconstruction pure offset arithmetic.
    auto rebuildChunk = [this, open, id, dead, ctx, &out,
                         offset](std::uint64_t o, std::uint64_t len)
        -> sim::Task<StoreResult<std::uint64_t>> {
        auto got = co_await readSurvivors(open, id, dead, o, len, ctx);
        auto n = xorSurvivors(
            std::span<std::uint8_t>(out).subspan(o - offset, len), got);
        if (n.ok())
            reconstructed_units_.add(1);
        co_return n;
    };

    std::vector<sim::Task<StoreResult<std::uint64_t>>> chunks;
    std::vector<std::uint64_t> chunk_starts;
    std::uint64_t pos = offset;
    const std::uint64_t end = offset + length;
    while (pos < end) {
        const std::uint64_t within = pos % su;
        const std::uint64_t take = std::min(end - pos, su - within);
        chunk_starts.push_back(pos);
        chunks.push_back(rebuildChunk(pos, take));
        pos += take;
    }
    auto lens =
        co_await sim::parallelGather(net_.simulator(), std::move(chunks));

    // Mimic a contiguous short read: stop at the first chunk that came
    // back short (survivors zero-fill holes, so shortness means EOF).
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < lens.size(); ++i) {
        if (!lens[i].ok())
            co_return util::Err{lens[i].error()};
        total = chunk_starts[i] - offset + lens[i].value();
        const std::uint64_t chunk_len =
            (i + 1 < chunk_starts.size() ? chunk_starts[i + 1] : end) -
            chunk_starts[i];
        if (lens[i].value() < chunk_len)
            break;
    }
    out.resize(total);
    co_return out;
}

std::vector<CheopsClient::ComponentRun>
CheopsClient::mapRange(const CheopsMap &map, std::uint64_t offset,
                       std::uint64_t length)
{
    std::vector<ComponentRun> runs;
    const std::uint64_t su = map.stripe_unit_bytes;
    const bool parity = map.redundancy == Redundancy::kParity;
    // kParity: one component of each row holds parity, so only w =
    // size-1 components carry data and the parity slot rotates.
    const auto n = static_cast<std::uint64_t>(map.components.size()) -
                   (parity ? 1 : 0);
    const std::uint64_t end = offset + length;
    std::uint64_t pos = offset;
    while (pos < end) {
        const std::uint64_t unit = pos / su;
        const std::uint64_t row = unit / n;
        const auto comp =
            parity ? CheopsManager::dataComponent(
                         row, static_cast<std::uint32_t>(unit % n),
                         static_cast<std::uint32_t>(n))
                   : static_cast<std::uint32_t>(unit % n);
        const std::uint64_t within = pos % su;
        const std::uint64_t take = std::min(end - pos, su - within);
        // Every component stores exactly one unit per row, so a
        // parity-mode component offset is row-indexed; the round-robin
        // layout packs its units densely instead.
        const std::uint64_t comp_offset = row * su + within;

        ComponentRun *tail = nullptr;
        for (auto &r : runs) {
            if (r.component == comp &&
                r.component_offset + r.length == comp_offset) {
                tail = &r;
                break;
            }
        }
        if (tail == nullptr)
            tail = &runs.emplace_back(ComponentRun{comp, comp_offset, 0, {}});
        tail->length += take;
        tail->pieces.emplace_back(pos - offset, take);
        pos += take;
    }
    return runs;
}

template <typename R, typename Body>
sim::Task<R>
CheopsClient::tracedOp(const char *name, util::LogHistogram &latency,
                       util::TraceContext parent, Body body)
{
    const util::TraceContext ctx = util::flightRecorder().mintChild(parent);
    const sim::Tick op_start = net_.simulator().now();
    util::ScopedSpan span(name, node_.name(),
                          static_cast<std::uint64_t>(op_start), ctx,
                          parent.span_id);
    R result = co_await body(ctx);
    // The op's one exit: every outcome, a failed open included, closes
    // the span and records the latency.
    const sim::Tick now = net_.simulator().now();
    span.endAt(static_cast<std::uint64_t>(now));
    latency.record(static_cast<std::uint64_t>(now - op_start));
    co_return result;
}

sim::Task<util::Result<ReadOutcome, CheopsStatus>>
CheopsClient::read(LogicalObjectId id, std::uint64_t offset,
                   std::span<std::uint8_t> out, util::TraceContext parent)
{
    co_return co_await tracedOp<util::Result<ReadOutcome, CheopsStatus>>(
        "cheops/read", read_latency_ns_, parent,
        [&](util::TraceContext ctx) { return readRuns(id, offset, out, ctx); });
}

sim::Task<util::Result<ReadOutcome, CheopsStatus>>
CheopsClient::readRuns(LogicalObjectId id, std::uint64_t offset,
                       std::span<std::uint8_t> out, util::TraceContext ctx)
{
    auto state = co_await ensureOpen(id, false);
    if (!state.ok())
        co_return util::Err{state.error()};
    OpenState *open = state.value().get();
    const auto runs = mapRange(open->map, offset, out.size());
    bool degraded = false;

    // One parallel component read per run; reassemble into `out`.
    // Each component RPC is a child span of this read, so the trace
    // timeline shows the per-drive fan-out.
    auto fetchRun = [this, open, id, ctx, &out,
                     &degraded](const ComponentRun &run)
        -> sim::Task<util::Result<std::uint64_t, CheopsStatus>> {
        // A single-piece run is one contiguous range of `out`, so the
        // reply lands there directly; several pieces are fetched into
        // a scratch buffer and scattered.
        const bool direct = run.pieces.size() == 1;
        std::unique_ptr<std::uint8_t[]> scratch;
        std::span<std::uint8_t> dst;
        if (direct) {
            dst = out.subspan(
                static_cast<std::size_t>(run.pieces.front().first),
                static_cast<std::size_t>(run.length));
        } else {
            scratch = std::make_unique_for_overwrite<std::uint8_t[]>(
                static_cast<std::size_t>(run.length));
            dst = std::span(scratch.get(),
                            static_cast<std::size_t>(run.length));
        }
        auto n = co_await readComponent(open, id, run.component,
                                        run.component_offset, dst, ctx);
        bool reconstructed = false;
        if (!n.ok() && open->map.redundancy == Redundancy::kParity) {
            // The component may have moved (a completed rebuild swaps
            // the spare into the map) or been named dead; re-ask the
            // manager at most once per reprobe interval, then retry
            // the new binding. A component already named dead is
            // reconstructed at once.
            const auto now = net_.simulator().now();
            if (run.component != open->map.dead_component &&
                (open->last_reprobe == 0 ||
                 now - open->last_reprobe >= kReprobeIntervalNs)) {
                open->last_reprobe = now;
                if (co_await refreshCaps(id)) {
                    n = co_await readComponent(open, id, run.component,
                                               run.component_offset, dst,
                                               ctx);
                }
            }
            if (!n.ok()) {
                // Degraded read: XOR the surviving components.
                auto rebuilt = co_await reconstructRange(
                    open, id, run.component, run.component_offset,
                    run.length, ctx);
                if (rebuilt.ok()) {
                    std::copy(rebuilt.value().begin(),
                              rebuilt.value().end(), dst.begin());
                    n = static_cast<std::uint64_t>(rebuilt.value().size());
                    reconstructed = true;
                }
            }
        }
        if (!n.ok())
            co_return util::Err{CheopsStatus::kDriveError};
        if (reconstructed) {
            degraded = true;
            node_.flightJournal().record(net_.simulator().now(),
                                         util::FrEvent::kDegradedRead,
                                         ctx.trace_id, id, run.component);
        }
        if (direct)
            co_return n.value();
        // Scatter into the host buffer; track the contiguous prefix.
        std::uint64_t copied = 0;
        for (const auto &[host_offset, bytes] : run.pieces) {
            if (copied >= n.value())
                break;
            const std::uint64_t take = std::min(bytes, n.value() - copied);
            std::copy_n(dst.begin() + static_cast<std::ptrdiff_t>(copied),
                        take,
                        out.begin() + static_cast<std::ptrdiff_t>(host_offset));
            copied += take;
        }
        co_return copied;
    };

    std::vector<sim::Task<util::Result<std::uint64_t, CheopsStatus>>> tasks;
    tasks.reserve(runs.size());
    for (const auto &run : runs)
        tasks.push_back(fetchRun(run));
    auto results =
        co_await sim::parallelGather(net_.simulator(), std::move(tasks));

    std::uint64_t total = 0;
    for (auto &r : results) {
        if (!r.ok())
            co_return util::Err{r.error()};
        total += r.value();
    }
    ReadOutcome outcome;
    outcome.bytes = total;
    outcome.status = degraded ? CheopsStatus::kDegraded : CheopsStatus::kOk;
    co_return outcome;
}

sim::Task<util::Result<void, CheopsStatus>>
CheopsClient::write(LogicalObjectId id, std::uint64_t offset,
                    std::span<const std::uint8_t> data,
                    util::TraceContext parent)
{
    co_return co_await tracedOp<util::Result<void, CheopsStatus>>(
        "cheops/write", write_latency_ns_, parent,
        [&](util::TraceContext ctx) {
            return writeRuns(id, offset, data, ctx);
        });
}

sim::Task<util::Result<void, CheopsStatus>>
CheopsClient::writeRuns(LogicalObjectId id, std::uint64_t offset,
                        std::span<const std::uint8_t> data,
                        util::TraceContext ctx)
{
    auto state = co_await ensureOpen(id, true);
    if (!state.ok())
        co_return util::Err{state.error()};
    OpenState *open = state.value().get();

    auto pushRun = [this, open, id, ctx, &data](const ComponentRun &run)
        -> sim::Task<util::Result<void, CheopsStatus>> {
        // A single-piece run is already one contiguous component write;
        // several pieces are gathered into one.
        std::span<const std::uint8_t> buf;
        std::vector<std::uint8_t> gathered;
        if (run.pieces.size() == 1) {
            buf = data.subspan(
                static_cast<std::size_t>(run.pieces.front().first),
                static_cast<std::size_t>(run.length));
        } else {
            gathered.resize(static_cast<std::size_t>(run.length));
            std::uint64_t copied = 0;
            for (const auto &[host_offset, bytes] : run.pieces) {
                std::copy_n(data.begin() +
                                static_cast<std::ptrdiff_t>(host_offset),
                            bytes,
                            gathered.begin() +
                                static_cast<std::ptrdiff_t>(copied));
                copied += bytes;
            }
            buf = gathered;
        }
        auto wrote = co_await writeComponent(open, id, run.component,
                                             run.component_offset, buf, ctx);
        if (!wrote.ok())
            co_return util::Err{CheopsStatus::kDriveError};
        co_return util::Result<void, CheopsStatus>{};
    };

    // One parallel update per component run — per stripe row for
    // kParity, whose planner updates a row and its parity together.
    std::vector<sim::Task<util::Result<void, CheopsStatus>>> tasks;
    std::vector<ComponentRun> runs; // outlives the tasks that use it
    if (open->map.redundancy != Redundancy::kParity) {
        runs = mapRange(open->map, offset, data.size());
        for (const auto &run : runs)
            tasks.push_back(pushRun(run));
    } else if (!data.empty()) {
        const std::uint64_t row_bytes = (open->map.components.size() - 1) *
                                        open->map.stripe_unit_bytes;
        const std::uint64_t last = (offset + data.size() - 1) / row_bytes;
        for (std::uint64_t row = offset / row_bytes; row <= last; ++row)
            tasks.push_back(writeParityRow(open, id, row, offset, data, ctx));
    }
    auto results =
        co_await sim::parallelGather(net_.simulator(), std::move(tasks));
    for (auto &r : results) {
        if (!r.ok())
            co_return util::Err{r.error()};
    }
    co_return util::Result<void, CheopsStatus>{};
}

sim::Task<util::Result<void, CheopsStatus>>
CheopsClient::writeParityRow(OpenState *open, LogicalObjectId id,
                             std::uint64_t row, std::uint64_t offset,
                             std::span<const std::uint8_t> data,
                             util::TraceContext ctx)
{
    const std::uint64_t su = open->map.stripe_unit_bytes;
    const auto w =
        static_cast<std::uint32_t>(open->map.components.size() - 1);
    const std::uint64_t row_bytes = static_cast<std::uint64_t>(w) * su;
    const std::uint64_t row_start = row * row_bytes;
    const std::uint64_t lo = std::max(offset, row_start);
    const std::uint64_t hi =
        std::min(offset + data.size(), row_start + row_bytes);
    const std::uint32_t p = CheopsManager::parityComponent(row, w);

    // The row's written footprint: per data unit, the within-unit
    // range [a, b) and the matching slice of the caller's buffer; the
    // components it touches, data units first and parity last.
    std::vector<RowUnitWrite> writes;
    std::vector<std::uint32_t> comps;
    std::uint64_t plo = su, phi = 0; // parity footprint (within unit)
    for (std::uint32_t d = 0; d < w; ++d) {
        const std::uint64_t unit_start = row_start + d * su;
        const std::uint64_t wa = std::max(lo, unit_start);
        const std::uint64_t wb = std::min(hi, unit_start + su);
        if (wa >= wb)
            continue;
        RowUnitWrite uw;
        uw.comp = CheopsManager::dataComponent(row, d, w);
        uw.a = wa - unit_start;
        uw.b = wb - unit_start;
        uw.bytes = data.subspan(wa - offset, wb - wa);
        plo = std::min(plo, uw.a);
        phi = std::max(phi, uw.b);
        writes.push_back(uw);
        comps.push_back(uw.comp);
    }
    if (writes.empty())
        co_return util::Result<void, CheopsStatus>{};
    comps.push_back(p);
    // Every data unit of the row is replaced over the whole parity
    // footprint, so the new parity there is the XOR of the new data
    // alone: a full row, and at width 1 every write.
    const bool covers_parity =
        writes.size() == w &&
        std::ranges::all_of(writes, [plo, phi](const RowUnitWrite &uw) {
            return uw.a == plo && uw.b == phi;
        });

    // Serialize this client's updates of the same row: an RMW that
    // interleaves with another RMW of the same row would base its
    // parity delta on bytes the other is replacing.
    auto local = co_await sim::scopedAcquire(
        net_.simulator(), *open->row_locks[row % kRowLockPool]);

    util::Result<void, CheopsStatus> result{};
    for (int attempt = 0; attempt < 3; ++attempt) {
        // During a rebuild every row update serializes against the
        // rebuild engine through the manager's rebuild lock, and the
        // dead component's unit is written through to the spare.
        const std::uint32_t attempt_map_version = open->map.map_version;
        const bool rebuilding = open->map.rebuilding;
        std::uint64_t ticket = 0;
        bool locked = false;
        if (rebuilding) {
            auto lk = co_await callManager<RebuildLockReply>(
                [&] { return mgr_.serveRebuildLock(id); });
            if (lk.status == CheopsStatus::kStaleMap) {
                // The rebuild ended (aborted or completed): redo the row
                // under the map that replaced this one (it names no
                // spare).
                result = util::Err{CheopsStatus::kStaleMap};
                if (co_await refreshCaps(id))
                    continue;
                break;
            }
            locked = lk.status == CheopsStatus::kOk;
            ticket = lk.ticket;
        }

        // The component to treat as unreachable: the map names the
        // object's dead one (always, while a rebuild runs); otherwise
        // start healthy and fall back when a component fails.
        std::int64_t dead = open->map.dead_component;

        if (dead < 0) {
            // ---- healthy path -----------------------------------
            // Read the old bytes under the written footprint plus the
            // old parity, fold old ^ new into the parity, write data +
            // parity. When the new data covers the parity footprint
            // the read phase is skipped: the old bytes count as zeros,
            // so the parity is the XOR of the new data.
            std::vector<std::vector<std::uint8_t>> old(comps.size());
            bool read_ok = true;
            if (!covers_parity) {
                std::vector<
                    sim::Task<StoreResult<std::vector<std::uint8_t>>>>
                    reads;
                for (const auto &uw : writes) {
                    reads.push_back(readComponent(open, id, uw.comp,
                                                  row * su + uw.a,
                                                  uw.b - uw.a, ctx));
                }
                reads.push_back(readComponent(open, id, p,
                                              row * su + plo, phi - plo,
                                              ctx));
                auto got = co_await sim::parallelGather(
                    net_.simulator(), std::move(reads));
                read_ok = tallyRow(got, comps, dead, result);
                for (std::size_t i = 0; i < got.size(); ++i) {
                    if (got[i].ok())
                        old[i] = std::move(got[i].value());
                }
            }
            if (read_ok) {
                // parity' = parity ^ old ^ new over each written range
                // (short old reads are holes: zeros).
                std::vector<std::uint8_t> pbuf(phi - plo, 0);
                std::copy(old.back().begin(), old.back().end(),
                          pbuf.begin());
                std::vector<sim::Task<StoreResult<void>>> wops;
                for (std::size_t i = 0; i < writes.size(); ++i) {
                    const auto &uw = writes[i];
                    const auto dst = std::span<std::uint8_t>(pbuf).subspan(
                        uw.a - plo, uw.b - uw.a);
                    xorInto(dst, uw.bytes);
                    xorInto(dst, old[i]);
                    wops.push_back(writeComponent(open, id, uw.comp,
                                                  row * su + uw.a, uw.bytes,
                                                  ctx));
                }
                wops.push_back(writeComponent(open, id, p, row * su + plo,
                                              pbuf, ctx));
                auto wres = co_await sim::parallelGather(net_.simulator(),
                                                         std::move(wops));
                (void)tallyRow(wres, comps, dead, result);
            }
            if (dead >= 0) {
                // The failed component misses what the degraded write
                // puts in parity. Report it, under the map the row was
                // planned with, so no reader is served its stale units
                // once the drive is back; an unrecorded divergence must
                // not claim success. A report the manager finds stale
                // means the layout moved under the row. Either way the
                // row is redone under the current map.
                result = util::Err{CheopsStatus::kDriveError};
                if (dead != open->map.dead_component) {
                    auto marked =
                        co_await callManager<CheopsStatusReply>([&] {
                            return mgr_.serveMarkDegraded(
                                id, static_cast<std::uint32_t>(dead),
                                attempt_map_version);
                        });
                    if ((marked.status != CheopsStatus::kOk &&
                         marked.status != CheopsStatus::kStaleMap) ||
                        !co_await refreshCaps(id))
                        break;
                }
                continue;
            }
        } else {
            // ---- degraded path ----------------------------------
            // Full-row recompute: read every surviving unit, overlay
            // the new bytes, rebuild parity from scratch, write what
            // changed. One read fan-out regardless of which role the
            // dead component plays in this row.
            result = co_await writeParityRowDegraded(
                open, id, row, static_cast<std::uint32_t>(dead),
                rebuilding && locked, writes, plo, phi, ctx);
        }

        if (locked) {
            // The permit is released or the rebuild is gone.
            (void)co_await callManager<CheopsStatusReply>(
                [&] { return mgr_.serveRebuildUnlock(id, ticket); });
        }

        // If the layout changed while this row update ran — a rebuild
        // started (fence bump failed a component write, withRefresh
        // refreshed, and the map now says rebuilding) or one finished
        // (the spare was swapped in and this attempt's degraded write
        // never reached it) — redo the row against the current map.
        // The redo is idempotent.
        if (open->map.map_version == attempt_map_version)
            break;
    }
    local.release();
    co_return result;
}

sim::Task<util::Result<void, CheopsStatus>>
CheopsClient::writeParityRowDegraded(
    OpenState *open, LogicalObjectId id, std::uint64_t row,
    std::uint32_t dead, bool write_through,
    const std::vector<RowUnitWrite> &writes, std::uint64_t plo,
    std::uint64_t phi, util::TraceContext ctx)
{
    const std::uint64_t su = open->map.stripe_unit_bytes;
    const auto w =
        static_cast<std::uint32_t>(open->map.components.size() - 1);
    const std::uint32_t p = CheopsManager::parityComponent(row, w);
    node_.flightJournal().record(net_.simulator().now(),
                                 util::FrEvent::kDegradedWrite,
                                 ctx.trace_id, id, row);

    // Read the full row unit from every surviving component and
    // reconstruct the dead unit (valid whether it is data or parity).
    auto old = co_await readSurvivors(open, id, dead, row * su, su, ctx);
    std::vector<std::vector<std::uint8_t>> unit_by_comp(
        open->map.components.size());
    unit_by_comp[dead].assign(su, 0);
    if (!xorSurvivors(unit_by_comp[dead], old).ok())
        co_return util::Err{CheopsStatus::kDriveError};
    for (std::size_t i = 0; i < old.size(); ++i) {
        auto &unit = unit_by_comp[i < dead ? i : i + 1];
        if (old[i].ok()) // every read is, past the fold
            unit = std::move(old[i].value());
        unit.resize(su, 0);
    }

    // Overlay the new bytes and recompute parity from the full row.
    for (const auto &uw : writes) {
        auto &unit = unit_by_comp[uw.comp];
        std::copy(uw.bytes.begin(), uw.bytes.end(),
                  unit.begin() + static_cast<std::ptrdiff_t>(uw.a));
    }
    auto &pbuf = unit_by_comp[p];
    std::fill(pbuf.begin(), pbuf.end(), 0);
    for (std::uint32_t d = 0; d < w; ++d)
        xorInto(pbuf, unit_by_comp[CheopsManager::dataComponent(row, d, w)]);

    // Write back what changed: the written ranges of surviving data
    // units, the parity footprint (when parity survives), and — during
    // a rebuild — the dead unit's range to the spare, so the target
    // never misses foreground bytes for rows the engine already
    // passed.
    std::vector<sim::Task<StoreResult<void>>> wops;
    for (const auto &uw : writes) {
        if (uw.comp == dead)
            continue;
        wops.push_back(writeComponent(
            open, id, uw.comp, row * su + uw.a,
            std::span<const std::uint8_t>(unit_by_comp[uw.comp])
                .subspan(uw.a, uw.b - uw.a),
            ctx));
    }
    if (p != dead && phi > plo) {
        wops.push_back(writeComponent(
            open, id, p, row * su + plo,
            std::span<const std::uint8_t>(pbuf).subspan(plo, phi - plo),
            ctx));
    }
    if (write_through) {
        // The dead unit's changed range: data writes if the dead
        // component holds a written data unit, the parity footprint if
        // it holds this row's parity.
        std::uint64_t ta = su, tb = 0;
        for (const auto &uw : writes) {
            if (uw.comp == dead) {
                ta = std::min(ta, uw.a);
                tb = std::max(tb, uw.b);
            }
        }
        if (p == dead && phi > plo) {
            ta = std::min(ta, plo);
            tb = std::max(tb, phi);
        }
        if (tb > ta) {
            node_.flightJournal().record(net_.simulator().now(),
                                         util::FrEvent::kWriteThrough,
                                         ctx.trace_id, id, row);
            wops.push_back(
                drive_clients_[open->map.rebuild_target.drive]->write(
                    *open->rebuild_cred, row * su + ta,
                    std::span<const std::uint8_t>(unit_by_comp[dead])
                        .subspan(ta, tb - ta),
                    ctx));
        }
    }
    auto wres =
        co_await sim::parallelGather(net_.simulator(), std::move(wops));
    for (auto &r : wres) {
        if (!r.ok())
            co_return util::Err{CheopsStatus::kDriveError};
    }
    co_return util::Result<void, CheopsStatus>{};
}

} // namespace nasd::cheops
