#include "cheops/cheops.h"

#include <algorithm>
#include <memory>
#include <span>

#include "sim/sync.h"
#include "util/flight_recorder.h"
#include "util/logging.h"

namespace nasd::cheops {

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
CheopsManager::find(LogicalObjectId id)
{
    const auto it = objects_.find(id);
    return it == objects_.end() ? nullptr : &it->second;
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

sim::Task<CheopsStatus>
CheopsManager::fence(LogicalObjectId id, Health next, Bump bump,
                     const char *why)
{
    LogicalObject *obj = find(id);
    if (obj == nullptr)
        co_return CheopsStatus::kNoSuchObject;
    Health &health = obj->health;
    // The component whose trust moves: the one named dead before or
    // after (a transition names at most one).
    const std::int64_t moved = std::max(health.dead, next.dead);
    if (health.spare && next.dead < 0) {
        // rebuilding(c -> spare) -> healthy: the spare replaces c.
        const auto c = static_cast<std::size_t>(health.dead);
        obj->components[c] = *health.spare;
        obj->component_versions[c] = 1;
    }
    health = next;
    ++obj->map_version;
    node_.flightJournal().record(sim_.now(), util::FrEvent::kVersionFence,
                                 0, id, obj->map_version, why);
    if (bump == Bump::kNone)
        co_return CheopsStatus::kOk;

    // serveOpen mints no map while the bumps are in flight, so every
    // map carries the versions the drives hold once they land.
    const auto gate = std::make_shared<sim::Gate>(sim_);
    obj->fencing = gate;
    CheopsStatus status = CheopsStatus::kOk;
    for (std::size_t i = 0; obj != nullptr && i < obj->components.size();
         ++i) {
        if (bump == Bump::kSurvivors && static_cast<std::int64_t>(i) == moved)
            continue;
        const auto component = obj->components[i];
        auto bumped = co_await managerBumpVersion(
            component.first, component.second, obj->component_versions[i]);
        obj = find(id);
        if (!bumped.ok())
            status = CheopsStatus::kDriveError;
        else if (obj != nullptr && obj->components[i] == component)
            obj->component_versions[i] = bumped.value().version;
    }
    gate->open();
    if (obj == nullptr)
        co_return CheopsStatus::kNoSuchObject;
    if (obj->fencing == gate)
        obj->fencing.reset();
    co_return status;
}

sim::Task<void>
CheopsManager::markDead(LogicalObjectId id, std::uint32_t component)
{
    const LogicalObject *obj = find(id);
    if (obj == nullptr || obj->health.dead >= 0)
        co_return;
    // Every map minted from now on names the component and carries no
    // capability for it; the survivors' fence turns away the maps
    // minted before, so no stale-map writer folds the component's
    // stale units into parity once its drive is back.
    node_.flightJournal().record(sim_.now(), util::FrEvent::kMarkDegraded,
                                 0, id, component);
    (void)co_await fence(id, Health{.dead = component, .spare = {}},
                         Bump::kSurvivors, "mark_degraded");
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
    const LogicalObject *obj = find(id);
    bool waited = false;
    while (obj != nullptr && obj->fencing) {
        const std::shared_ptr<sim::Gate> gate = obj->fencing;
        co_await gate->wait();
        waited = true;
        obj = find(id);
    }
    // Minting a capability set is pure CPU work at the manager. Opens a
    // fence held back are charged before they mint: the gate releases
    // them at one tick, and capabilities minted at one tick for one
    // component are identical, so their holders would share a nonce
    // window at the drive.
    const std::uint64_t cycles =
        obj == nullptr ? 0 : 4000 + 2000 * obj->components.size();
    if (waited && obj != nullptr) {
        co_await node_.cpu().execute(cycles);
        obj = find(id);
    }
    if (obj == nullptr) {
        reply.status = CheopsStatus::kNoSuchObject;
        co_return reply;
    }
    reply.map.id = id;
    reply.map.map_version = obj->map_version;
    reply.map.stripe_unit_bytes = obj->stripe_unit_bytes;
    reply.map.redundancy = obj->redundancy;
    reply.map.dead_component = obj->health.dead;
    for (std::size_t i = 0; i < obj->components.size(); ++i) {
        const auto &[drive, oid] = obj->components[i];
        // The dead component is named but gets no capability.
        reply.map.components.push_back(
            static_cast<std::int64_t>(i) == obj->health.dead
                ? ComponentRef{drive, oid, {}}
                : componentRef(drive, oid, obj->component_versions[i],
                               want_write));
    }
    if (const auto &spare = obj->health.spare) {
        reply.map.rebuilding = true;
        // Write-through needs write rights regardless of how the object
        // was opened; the spare is not readable until the rebuild swaps
        // it into the map.
        reply.map.rebuild_target = componentRef(spare->first, spare->second,
                                                1, /*want_write=*/true);
    }
    if (!waited)
        co_await node_.cpu().execute(cycles);
    control_ops_.add(1);
    co_return reply;
}

sim::Task<CheopsStatusReply>
CheopsManager::serveRemove(LogicalObjectId id)
{
    CheopsStatusReply reply;
    // Out of the table before the first drive RPC: a concurrent
    // handler finds no object, and this one owns what it removes.
    auto entry = objects_.extract(id);
    if (entry.empty()) {
        reply.status = CheopsStatus::kNoSuchObject;
        co_return reply;
    }
    const LogicalObject obj = std::move(entry.mapped());
    for (std::size_t i = 0; i < obj.components.size(); ++i) {
        const auto &[drive, oid] = obj.components[i];
        if (!co_await removeObject(drive, oid, obj.component_versions[i]))
            reply.status = CheopsStatus::kDriveError;
    }
    control_ops_.add(1);
    co_return reply;
}

sim::Task<SizeReply>
CheopsManager::serveGetSize(LogicalObjectId id)
{
    SizeReply reply;
    for (std::size_t k = 0;; ++k) {
        const LogicalObject *obj = find(id);
        if (obj == nullptr) {
            reply.status = CheopsStatus::kNoSuchObject;
            co_return reply;
        }
        if (k == obj->components.size())
            break;
        const layout::Geometry g = obj->geometry();
        const auto [drive, oid] = obj->components[k];
        auto attrs =
            co_await managerGetAttr(drive, oid, obj->component_versions[k]);
        if (!attrs.ok()) {
            reply.status = CheopsStatus::kDriveError;
            co_return reply;
        }
        reply.size = std::max(
            reply.size, layout::logicalEnd(g, static_cast<std::uint32_t>(k),
                                           attrs.value().size));
    }
    control_ops_.add(1);
    co_return reply;
}

sim::Task<CheopsStatusReply>
CheopsManager::serveRevoke(LogicalObjectId id)
{
    CheopsStatusReply reply;
    const LogicalObject *obj = find(id);
    if (obj == nullptr) {
        reply.status = CheopsStatus::kNoSuchObject;
        co_return reply;
    }
    reply.status = co_await fence(id, obj->health, Bump::kAll, "revoke");
    control_ops_.add(1);
    co_return reply;
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
                              ObjectVersion version)
{
    CredentialFactory cred(
        mint(drive, oid, version, kRightGetAttr, /*expires=*/false));
    co_return co_await drives_.client(drive).getAttr(cred);
}

sim::Task<StoreResult<ObjectAttributes>>
CheopsManager::managerBumpVersion(std::uint32_t drive, ObjectId oid,
                                  ObjectVersion version)
{
    CredentialFactory cred(
        mint(drive, oid, version, kRightSetAttr, /*expires=*/false));
    SetAttrRequest req;
    req.bump_version = true;
    co_return co_await drives_.client(drive).setAttr(cred, req);
}

sim::Task<CheopsStatusReply>
CheopsManager::serveMarkDegraded(LogicalObjectId id, std::uint32_t component,
                                 std::uint32_t map_version)
{
    CheopsStatusReply reply;
    const LogicalObject *obj = find(id);
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
    if (obj->health.dead >= 0 && obj->health.dead != component) {
        // Another component already missed a write: accepting this
        // report would leave a row with two stale units.
        reply.status = CheopsStatus::kDriveError;
        co_return reply;
    }
    co_await markDead(id, component);
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
    const LogicalObject *obj = find(id);
    if (obj == nullptr) {
        reply.status = CheopsStatus::kNoSuchObject;
        co_return reply;
    }
    // Only one rebuild at a time, only of the dead component when one
    // is named, and the spare must not share a spindle with any
    // surviving component, or the next failure would take out two
    // units of a row. The dead component's own drive is fine.
    const auto rit = rebuilds_.find(id);
    bool refused = obj->redundancy != Redundancy::kParity ||
                   dead_component >= obj->components.size() ||
                   spare_drive >= drives_.size() ||
                   (obj->health.dead >= 0 &&
                    obj->health.dead != dead_component) ||
                   (rit != rebuilds_.end() && rit->second->active);
    for (std::size_t i = 0; i < obj->components.size(); ++i) {
        refused = refused || (i != dead_component &&
                              obj->components[i].first == spare_drive);
    }
    if (refused) {
        reply.status = CheopsStatus::kAccess;
        co_return reply;
    }
    const std::uint64_t su = obj->stripe_unit_bytes;
    // The request names the component dead at once, so no report of
    // another component's failure slips in while the spare is set up.
    co_await markDead(id, dead_component);

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
    for (std::size_t i = 0;; ++i) {
        obj = find(id);
        if (obj == nullptr) {
            reply.status = CheopsStatus::kNoSuchObject;
            co_return reply;
        }
        if (i == obj->components.size())
            break;
        if (i == dead_component)
            continue;
        const auto [drive, oid] = obj->components[i];
        auto attrs =
            co_await managerGetAttr(drive, oid, obj->component_versions[i]);
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
    auto made = co_await drives_.create(spare_drive, max_size);
    if (!made.ok()) {
        reply.status = CheopsStatus::kDriveError;
        co_return reply;
    }
    const std::pair<std::uint32_t, ObjectId> spare{spare_drive, made.value()};

    auto rb = std::make_shared<RebuildState>();
    static_cast<RebuildProgress &>(*rb) =
        RebuildProgress{.known = true,
                        .active = true,
                        .rows_total = (max_size + su - 1) / su,
                        .started_at = sim_.now()};
    rb->throttle = throttle;
    rb->lock = std::make_unique<sim::Semaphore>(sim_, 1);
    if (throttle.token_interval_ns > 0) {
        rb->tokens = std::make_unique<sim::Semaphore>(
            sim_, std::max<std::uint32_t>(1, throttle.burst));
    }
    rebuilds_[id] = rb;

    // dead(c) -> rebuilding(c -> spare). A client holding an older map
    // meets the fence at its next survivor op, refreshes, and learns
    // it must bracket row updates with the rebuild lock and write
    // through to the spare; without the fence a stale writer could
    // update a row the engine already passed and the spare would miss
    // the bytes. A failed bump, or a remove since the checks above,
    // stops the rebuild before its first row.
    reply.status = co_await fence(id,
                                  Health{.dead = dead_component,
                                         .spare = spare},
                                  Bump::kSurvivors, "rebuild_fence");
    node_.flightJournal().record(sim_.now(), util::FrEvent::kRebuildStart,
                                 0, id, dead_component);
    sim_.spawn(rebuildLoop(id, rb, spare, reply.status == CheopsStatus::kOk));
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
CheopsManager::rebuildLoop(LogicalObjectId id,
                           std::shared_ptr<RebuildState> rb,
                           std::pair<std::uint32_t, ObjectId> spare,
                           bool fenced)
{
    const char *stopped = fenced ? nullptr : "fence"; // why it stopped short
    for (std::uint64_t row = 0; stopped == nullptr && row < rb->rows_total;
         ++row) {
        if (rb->tokens) {
            // Token-bucket pacing: at most `burst` rows per interval.
            // The wait is measured through the scopedAcquire
            // attribution hook so throttle stalls are distinguishable
            // from queueing behind foreground I/O at the drives.
            auto token = co_await sim::scopedAcquire(sim_, *rb->tokens);
            rb->throttle_wait_ns +=
                static_cast<std::uint64_t>(token.waitNs());
            rebuild_throttle_wait_ns_.add(
                static_cast<std::uint64_t>(token.waitNs()));
            sim_.spawn(returnToken(std::move(token),
                                   rb->throttle.token_interval_ns));
        }
        auto permit = co_await sim::scopedAcquire(sim_, *rb->lock);
        node_.flightJournal().record(sim_.now(),
                                     util::FrEvent::kRowLockAcquire, 0, id,
                                     0, "engine");
        const LogicalObject *obj = find(id);
        if (obj == nullptr) {
            stopped = "object_removed";
            break;
        }
        const std::uint64_t su = obj->stripe_unit_bytes;

        // Reconstruct the dead unit from the same offsets on every
        // surviving component.
        std::vector<sim::Task<StoreResult<std::vector<std::uint8_t>>>>
            reads;
        for (std::size_t i = 0; i < obj->components.size(); ++i) {
            if (static_cast<std::int64_t>(i) == obj->health.dead)
                continue;
            const auto &[drive, oid] = obj->components[i];
            reads.push_back(managerRead(drive, oid,
                                        obj->component_versions[i],
                                        row * su, su));
        }
        auto got = co_await sim::parallelGather(sim_, std::move(reads));
        std::vector<std::uint8_t> unit(su, 0);
        const auto len = layout::xorSurvivors(unit, got);
        if (!len.ok()) {
            stopped = "second_failure";
            break;
        }
        if (len.value() > 0) {
            unit.resize(len.value());
            auto wrote = co_await managerWrite(spare.first, spare.second, 1,
                                               row * su, std::move(unit));
            if (!wrote.ok()) {
                stopped = "spare_write";
                break;
            }
            rb->bytes_reconstructed += len.value();
            rebuild_bytes_.add(len.value());
        }
        ++rb->rows_done;
        rebuild_rows_.add(1);
        node_.flightJournal().record(sim_.now(),
                                     util::FrEvent::kRowLockRelease, 0, id,
                                     0, "engine");
        permit.release();
    }
    if (stopped == nullptr) {
        // Completion: rebuilding(c -> spare) -> healthy swaps the spare
        // into the layout map in place, and clients discover the move
        // via map refresh (reprobe / next open). The survivors' fence
        // turns away a client still holding the rebuild-era map, which
        // would keep reconstructing the spare's units from the rest of
        // each row.
        auto permit = co_await sim::scopedAcquire(sim_, *rb->lock);
        if (const LogicalObject *obj = find(id)) {
            // The replaced object holds only stale bytes now.
            const auto c = static_cast<std::size_t>(obj->health.dead);
            const auto [old_drive, old_oid] = obj->components[c];
            const ObjectVersion old_version = obj->component_versions[c];
            (void)co_await fence(id, Health{}, Bump::kSurvivors,
                                 "rebuild_refence");
            rb->active = false;
            rb->finished_at = sim_.now();
            node_.flightJournal().record(sim_.now(),
                                         util::FrEvent::kRebuildComplete, 0,
                                         id, rb->rows_done);
            permit.release();
            // Best effort: its drive may still be down.
            (void)co_await removeObject(old_drive, old_oid, old_version);
            co_return;
        }
        stopped = "object_removed";
    }
    // rebuilding(c -> spare) -> dead(c), before the spare removal can
    // yield: from here on the rebuild lock refuses clients that hold
    // the `rebuilding` map, and the refresh they make finds a newer map
    // that names no spare.
    const LogicalObject *obj = find(id);
    if (obj != nullptr && obj->health.spare) {
        (void)co_await fence(id, Health{.dead = obj->health.dead, .spare = {}},
                             Bump::kNone, "rebuild_abort");
    }
    // Every exit that does not swap the spare in gives its space back
    // (best effort: the spare drive may be the one that failed) before
    // the rebuild reports itself finished.
    (void)co_await removeObject(spare.first, spare.second, 1);
    rb->active = false;
    rb->finished_at = sim_.now();
    node_.flightJournal().record(sim_.now(), util::FrEvent::kRebuildAbort, 0,
                                 id, rb->rows_done, stopped);
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
    const std::shared_ptr<RebuildState> rb = rit->second;
    auto permit = co_await sim::scopedAcquire(sim_, *rb->lock);
    // A client that still holds the `rebuilding` map after an abort or
    // a completion refreshes at once, rather than being turned away by
    // the survivors' version fence at the drives.
    const LogicalObject *obj = find(id);
    if (obj == nullptr || !obj->health.spare) {
        reply.status = CheopsStatus::kStaleMap;
        co_return reply;
    }
    reply.ticket = rb->next_ticket++;
    rb->held.emplace(reply.ticket, std::move(permit));
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
    if (rit == rebuilds_.end() || rit->second->held.erase(ticket) == 0) {
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
    return *rit->second;
}

} // namespace nasd::cheops
