#include "cheops/cheops.h"

#include <algorithm>
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
    : sim_(sim), node_(node), drives_(std::move(drives)),
      partition_(partition),
      metrics_prefix_(
          util::metrics().uniquePrefix(node.name() + "/cheops_mgr")),
      control_ops_(util::metrics().counter(metrics_prefix_ + "/control_ops")),
      rebuild_rows_(util::metrics().counter(metrics_prefix_ +
                                            "/rebuild/rows")),
      rebuild_bytes_(util::metrics().counter(metrics_prefix_ +
                                             "/rebuild/bytes")),
      rebuild_throttle_wait_ns_(util::metrics().counter(
          metrics_prefix_ + "/rebuild/throttle_wait_ns"))
{
    NASD_ASSERT(!drives_.empty());
    for (auto *drive : drives_) {
        issuers_.push_back(std::make_unique<CapabilityIssuer>(
            drive->config().master_key, drive->id()));
        mgr_clients_.push_back(
            std::make_unique<NasdClient>(net, node_, *drive));
    }
}

sim::Task<void>
CheopsManager::initialize(std::uint64_t partition_quota_bytes)
{
    for (auto *drive : drives_) {
        co_await drive->format();
        auto created =
            drive->store().createPartition(partition_, partition_quota_bytes);
        NASD_ASSERT(created.ok(), "cheops partition creation failed");
    }
}

Capability
CheopsManager::mintComponentCap(std::uint32_t drive, ObjectId oid,
                                ObjectVersion version, bool want_write)
{
    CapabilityPublic pub;
    pub.partition = partition_;
    pub.object_id = oid;
    pub.approved_version = version;
    pub.rights = kRightRead | kRightGetAttr;
    if (want_write)
        pub.rights |= kRightWrite;
    pub.expiry_ns = sim_.now() + kCapLifetimeNs;
    node_.flightJournal().record(sim_.now(), util::FrEvent::kCapMint, 0,
                                 oid, pub.expiry_ns);
    return issuers_[drive]->mint(pub);
}

sim::Task<CreateReply>
CheopsManager::serveCreate(std::uint64_t stripe_unit_bytes,
                           std::uint32_t stripe_count,
                           std::uint64_t capacity_hint,
                           Redundancy redundancy)
{
    CreateReply reply;
    NASD_ASSERT(stripe_unit_bytes > 0);
    const bool parity = redundancy == Redundancy::kParity;
    if (parity) {
        // stripe_count is the *data* width; parity adds one component.
        // Keeping a drive in reserve as a rebuild spare is the
        // caller's business — any drives beyond width+1 stay unused.
        if (stripe_count == 0 || stripe_count + 1 > drives_.size())
            stripe_count = static_cast<std::uint32_t>(drives_.size()) - 1;
        if (drives_.size() < 3 || stripe_count < 2) {
            reply.status = CheopsStatus::kNoSpace;
            co_return reply;
        }
    } else {
        if (stripe_count == 0 || stripe_count > drives_.size())
            stripe_count = static_cast<std::uint32_t>(drives_.size());
        if (redundancy == Redundancy::kMirror && drives_.size() < 2) {
            reply.status = CheopsStatus::kNoSpace;
            co_return reply;
        }
    }

    LogicalObject obj;
    obj.stripe_unit_bytes = stripe_unit_bytes;
    obj.redundancy = redundancy;
    const std::uint64_t per_drive_hint =
        capacity_hint / stripe_count + stripe_unit_bytes;

    auto createOn = [this, per_drive_hint](std::uint32_t drive)
        -> sim::Task<StoreResult<ObjectId>> {
        CapabilityPublic pub;
        pub.partition = partition_;
        pub.object_id = kPartitionControlObject;
        pub.rights = kRightCreate;
        CredentialFactory cred(issuers_[drive]->mint(pub));
        co_return co_await mgr_clients_[drive]->create(cred, per_drive_hint);
    };
    // A mid-loop failure must not strand the components already
    // created: best-effort removal before reporting the error.
    auto destroyOrphans =
        [this](const std::vector<std::pair<std::uint32_t, ObjectId>> &made)
        -> sim::Task<void> {
        for (const auto &[drive, oid] : made) {
            CapabilityPublic pub;
            pub.partition = partition_;
            pub.object_id = oid;
            pub.approved_version = 1;
            pub.rights = kRightRemove;
            CredentialFactory cred(issuers_[drive]->mint(pub));
            auto removed = co_await mgr_clients_[drive]->remove(cred);
            (void)removed.ok(); // drive may be the one that failed
        }
    };
    std::vector<std::pair<std::uint32_t, ObjectId>> created;

    // One component object on each participating drive (plus, when
    // mirrored, a replica on the next drive so no component shares a
    // spindle with its copy; with parity, one extra component so each
    // row can hold its rotating parity unit).
    const std::uint32_t total =
        parity ? stripe_count + 1 : stripe_count;
    for (std::uint32_t i = 0; i < total; ++i) {
        auto made = co_await createOn(i);
        if (!made.ok()) {
            co_await destroyOrphans(created);
            reply.status = CheopsStatus::kDriveError;
            co_return reply;
        }
        created.emplace_back(i, made.value());
        obj.components.emplace_back(i, made.value());
        obj.component_versions.push_back(1);

        if (redundancy == Redundancy::kMirror) {
            const auto m = static_cast<std::uint32_t>(
                (i + 1) % drives_.size());
            auto mirror = co_await createOn(m);
            if (!mirror.ok()) {
                co_await destroyOrphans(created);
                reply.status = CheopsStatus::kDriveError;
                co_return reply;
            }
            created.emplace_back(m, mirror.value());
            obj.mirrors.emplace_back(m, mirror.value());
            obj.mirror_versions.push_back(1);
        }
    }
    obj.component_stale.assign(obj.components.size(), 0);
    obj.mirror_stale.assign(obj.mirrors.size(), 0);

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
    const auto it = objects_.find(id);
    if (it == objects_.end()) {
        reply.status = CheopsStatus::kNoSuchObject;
        co_return reply;
    }
    const LogicalObject &obj = it->second;
    reply.map.id = id;
    reply.map.map_version = obj.map_version;
    reply.map.stripe_unit_bytes = obj.stripe_unit_bytes;
    reply.map.redundancy = obj.redundancy;
    for (std::size_t i = 0; i < obj.components.size(); ++i) {
        const auto &[drive, oid] = obj.components[i];
        ComponentRef ref;
        ref.drive = drive;
        ref.oid = oid;
        ref.capability = mintComponentCap(drive, oid,
                                          obj.component_versions[i],
                                          want_write);
        reply.map.components.push_back(std::move(ref));
    }
    for (std::size_t i = 0; i < obj.mirrors.size(); ++i) {
        const auto &[drive, oid] = obj.mirrors[i];
        ComponentRef ref;
        ref.drive = drive;
        ref.oid = oid;
        ref.capability = mintComponentCap(drive, oid,
                                          obj.mirror_versions[i],
                                          want_write);
        reply.map.mirrors.push_back(std::move(ref));
    }
    if (obj.redundancy == Redundancy::kParity) {
        const auto rit = rebuilds_.find(id);
        if (rit != rebuilds_.end() && rit->second.active) {
            reply.map.rebuilding = true;
            reply.map.rebuild_component = rit->second.dead_comp;
            ComponentRef target;
            target.drive = rit->second.spare_drive;
            target.oid = rit->second.spare_oid;
            // Write-through needs write rights regardless of how the
            // object was opened; the spare is not readable until the
            // rebuild swaps it into the map.
            target.capability = mintComponentCap(target.drive, target.oid,
                                                 1, /*want_write=*/true);
            reply.map.rebuild_target = std::move(target);
        }
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
    const auto it = objects_.find(id);
    if (it == objects_.end()) {
        reply.status = CheopsStatus::kNoSuchObject;
        co_return reply;
    }
    auto removeComponent =
        [this](std::uint32_t drive, ObjectId oid,
               ObjectVersion version) -> sim::Task<bool> {
        CapabilityPublic pub;
        pub.partition = partition_;
        pub.object_id = oid;
        pub.approved_version = version;
        pub.rights = kRightRemove;
        CredentialFactory cred(issuers_[drive]->mint(pub));
        auto removed = co_await mgr_clients_[drive]->remove(cred);
        co_return removed.ok();
    };
    for (std::size_t i = 0; i < it->second.components.size(); ++i) {
        const auto &[drive, oid] = it->second.components[i];
        if (!co_await removeComponent(drive, oid,
                                      it->second.component_versions[i]))
            reply.status = CheopsStatus::kDriveError;
    }
    for (std::size_t i = 0; i < it->second.mirrors.size(); ++i) {
        const auto &[drive, oid] = it->second.mirrors[i];
        if (!co_await removeComponent(drive, oid,
                                      it->second.mirror_versions[i]))
            reply.status = CheopsStatus::kDriveError;
    }
    objects_.erase(it);
    control_ops_.add(1);
    co_return reply;
}

sim::Task<SizeReply>
CheopsManager::serveGetSize(LogicalObjectId id)
{
    SizeReply reply;
    const auto it = objects_.find(id);
    if (it == objects_.end()) {
        reply.status = CheopsStatus::kNoSuchObject;
        co_return reply;
    }
    const LogicalObject &obj = it->second;
    // Logical size: reconstruct from component sizes. Component k has
    // the stripe units s with s mod n == k.
    const std::uint64_t su = obj.stripe_unit_bytes;
    const auto n = static_cast<std::uint64_t>(obj.components.size());
    std::uint64_t logical = 0;
    for (std::size_t k = 0; k < obj.components.size(); ++k) {
        const auto &[drive, oid] = obj.components[k];
        CapabilityPublic pub;
        pub.partition = partition_;
        pub.object_id = oid;
        pub.approved_version = it->second.component_versions[k];
        pub.rights = kRightGetAttr;
        CredentialFactory cred(issuers_[drive]->mint(pub));
        auto attrs = co_await mgr_clients_[drive]->getAttr(cred);
        if (!attrs.ok()) {
            reply.status = CheopsStatus::kDriveError;
            co_return reply;
        }
        const std::uint64_t csize = attrs.value().size;
        if (csize == 0)
            continue;
        std::uint64_t logical_last = 0;
        if (obj.redundancy == Redundancy::kParity) {
            // Every component stores one unit per row. A data unit
            // maps back exactly; a parity unit of length w+1 only
            // proves *some* data unit of the row reaches w, so use
            // the first data slot as a conservative lower bound
            // (exact for the row-aligned writes the planner favors).
            const auto w = static_cast<std::uint32_t>(
                obj.components.size() - 1);
            const std::uint64_t row = (csize - 1) / su;
            const std::uint64_t within = (csize - 1) % su;
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
            const std::uint64_t full_units = (csize - 1) / su;
            const std::uint64_t within = (csize - 1) % su;
            logical_last = full_units * su * n + k * su + within;
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
    const auto it = objects_.find(id);
    if (it == objects_.end()) {
        reply.status = CheopsStatus::kNoSuchObject;
        co_return reply;
    }
    LogicalObject &obj = it->second;
    for (std::size_t i = 0; i < obj.components.size(); ++i) {
        const auto &[drive, oid] = obj.components[i];
        CapabilityPublic pub;
        pub.partition = partition_;
        pub.object_id = oid;
        pub.approved_version = obj.component_versions[i];
        pub.rights = kRightSetAttr;
        CredentialFactory cred(issuers_[drive]->mint(pub));
        SetAttrRequest req;
        req.bump_version = true;
        auto set = co_await mgr_clients_[drive]->setAttr(cred, req);
        if (set.ok())
            obj.component_versions[i] = set.value().version;
        else
            reply.status = CheopsStatus::kDriveError;
    }
    ++obj.map_version;
    node_.flightJournal().record(sim_.now(), util::FrEvent::kVersionFence,
                                 0, id, obj.map_version, "revoke");
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
    CapabilityPublic pub;
    pub.partition = partition_;
    pub.object_id = oid;
    pub.approved_version = version;
    pub.rights = kRightRead | kRightGetAttr;
    pub.expiry_ns = sim_.now() + kCapLifetimeNs;
    CredentialFactory cred(issuers_[drive]->mint(pub));
    co_return co_await mgr_clients_[drive]->read(cred, offset, length);
}

sim::Task<StoreResult<void>>
CheopsManager::managerWrite(std::uint32_t drive, ObjectId oid,
                            ObjectVersion version, std::uint64_t offset,
                            std::vector<std::uint8_t> data)
{
    CapabilityPublic pub;
    pub.partition = partition_;
    pub.object_id = oid;
    pub.approved_version = version;
    pub.rights = kRightWrite;
    pub.expiry_ns = sim_.now() + kCapLifetimeNs;
    CredentialFactory cred(issuers_[drive]->mint(pub));
    co_return co_await mgr_clients_[drive]->write(cred, offset, data);
}

sim::Task<StoreResult<ObjectAttributes>>
CheopsManager::managerGetAttr(std::uint32_t drive, ObjectId oid,
                              ObjectVersion version)
{
    CapabilityPublic pub;
    pub.partition = partition_;
    pub.object_id = oid;
    pub.approved_version = version;
    pub.rights = kRightGetAttr;
    pub.expiry_ns = sim_.now() + kCapLifetimeNs;
    CredentialFactory cred(issuers_[drive]->mint(pub));
    co_return co_await mgr_clients_[drive]->getAttr(cred);
}

sim::Task<StoreResult<ObjectAttributes>>
CheopsManager::managerBumpVersion(std::uint32_t drive, ObjectId oid,
                                  ObjectVersion version)
{
    CapabilityPublic pub;
    pub.partition = partition_;
    pub.object_id = oid;
    pub.approved_version = version;
    pub.rights = kRightSetAttr;
    pub.expiry_ns = sim_.now() + kCapLifetimeNs;
    CredentialFactory cred(issuers_[drive]->mint(pub));
    SetAttrRequest req;
    req.bump_version = true;
    co_return co_await mgr_clients_[drive]->setAttr(cred, req);
}

sim::Task<CheopsStatusReply>
CheopsManager::serveMarkDegraded(LogicalObjectId id, std::uint32_t component,
                                 bool mirror_side)
{
    CheopsStatusReply reply;
    const auto it = objects_.find(id);
    if (it == objects_.end()) {
        reply.status = CheopsStatus::kNoSuchObject;
        co_return reply;
    }
    LogicalObject &obj = it->second;
    if (obj.redundancy != Redundancy::kMirror ||
        component >= obj.components.size()) {
        reply.status = CheopsStatus::kNoSuchObject;
        co_return reply;
    }
    obj.component_stale.resize(obj.components.size(), 0);
    obj.mirror_stale.resize(obj.mirrors.size(), 0);
    auto &stale = mirror_side ? obj.mirror_stale : obj.component_stale;
    const auto &other = mirror_side ? obj.component_stale : obj.mirror_stale;
    if (other[component]) {
        // The surviving side is itself stale: accepting this report
        // would declare both copies bad. The write must fail instead.
        reply.status = CheopsStatus::kDriveError;
        co_return reply;
    }
    if (!stale[component]) {
        stale[component] = 1;
        // Fence the diverged replica without touching the (possibly
        // dead) drive: every capability minted from now on demands a
        // version the stale object cannot present, so reads of old
        // bytes fail with kVersionMismatch instead of succeeding.
        auto &versions =
            mirror_side ? obj.mirror_versions : obj.component_versions;
        versions[component] += 1;
        ++obj.map_version;
        node_.flightJournal().record(sim_.now(),
                                     util::FrEvent::kMirrorMarkDegraded, 0,
                                     id, component);
        node_.flightJournal().record(sim_.now(),
                                     util::FrEvent::kVersionFence, 0, id,
                                     obj.map_version, "mark_degraded");
    }
    co_await node_.cpu().execute(2000);
    control_ops_.add(1);
    co_return reply;
}

sim::Task<CheopsStatusReply>
CheopsManager::serveResyncMirrors(LogicalObjectId id)
{
    CheopsStatusReply reply;
    const auto it = objects_.find(id);
    if (it == objects_.end() ||
        it->second.redundancy != Redundancy::kMirror) {
        reply.status = CheopsStatus::kNoSuchObject;
        co_return reply;
    }
    LogicalObject &obj = it->second;
    obj.component_stale.resize(obj.components.size(), 0);
    obj.mirror_stale.resize(obj.mirrors.size(), 0);
    bool changed = false;
    for (std::size_t i = 0; i < obj.components.size(); ++i) {
        const bool primary_stale = obj.component_stale[i] != 0;
        const bool mirror_stale = obj.mirror_stale[i] != 0;
        if (!primary_stale && !mirror_stale)
            continue;
        if (primary_stale && mirror_stale) {
            reply.status = CheopsStatus::kDriveError;
            continue;
        }
        const auto &[src_drive, src_oid] =
            mirror_stale ? obj.components[i] : obj.mirrors[i];
        const ObjectVersion src_ver = mirror_stale
                                          ? obj.component_versions[i]
                                          : obj.mirror_versions[i];
        const auto &[dst_drive, dst_oid] =
            mirror_stale ? obj.mirrors[i] : obj.components[i];
        auto &dst_stored = mirror_stale ? obj.mirror_versions[i]
                                        : obj.component_versions[i];
        // MarkDegraded bumped the stored version exactly once past the
        // drive object's real version.
        const ObjectVersion dst_drive_ver = dst_stored - 1;

        auto attrs = co_await managerGetAttr(src_drive, src_oid, src_ver);
        if (!attrs.ok()) {
            reply.status = CheopsStatus::kDriveError;
            continue;
        }
        const std::uint64_t size = attrs.value().size;
        if (size > 0) {
            auto data =
                co_await managerRead(src_drive, src_oid, src_ver, 0, size);
            if (!data.ok()) {
                reply.status = CheopsStatus::kDriveError;
                continue;
            }
            auto wrote = co_await managerWrite(dst_drive, dst_oid,
                                               dst_drive_ver, 0,
                                               std::move(data.value()));
            if (!wrote.ok()) {
                reply.status = CheopsStatus::kDriveError;
                continue;
            }
        }
        // Advance the healed replica's drive-side version to match the
        // fenced expectation, then adopt whatever the drive reports as
        // the new approved version.
        auto bumped =
            co_await managerBumpVersion(dst_drive, dst_oid, dst_drive_ver);
        if (!bumped.ok()) {
            reply.status = CheopsStatus::kDriveError;
            continue;
        }
        dst_stored = bumped.value().version;
        (mirror_stale ? obj.mirror_stale : obj.component_stale)[i] = 0;
        changed = true;
    }
    if (changed) {
        ++obj.map_version;
        node_.flightJournal().record(sim_.now(),
                                     util::FrEvent::kMirrorResync, 0, id);
        node_.flightJournal().record(sim_.now(),
                                     util::FrEvent::kVersionFence, 0, id,
                                     obj.map_version, "resync");
    }
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
    const auto it = objects_.find(id);
    if (it == objects_.end()) {
        reply.status = CheopsStatus::kNoSuchObject;
        co_return reply;
    }
    LogicalObject &obj = it->second;
    if (obj.redundancy != Redundancy::kParity ||
        dead_component >= obj.components.size() ||
        spare_drive >= drives_.size()) {
        reply.status = CheopsStatus::kAccess;
        co_return reply;
    }
    const auto rit = rebuilds_.find(id);
    if (rit != rebuilds_.end() && rit->second.active) {
        reply.status = CheopsStatus::kAccess;
        co_return reply;
    }
    // The spare must not share a spindle with any surviving component,
    // or the next failure would take out two units of a row.
    for (std::size_t i = 0; i < obj.components.size(); ++i) {
        if (i != dead_component && obj.components[i].first == spare_drive) {
            reply.status = CheopsStatus::kAccess;
            co_return reply;
        }
    }

    // Qualify the spare: the drive must answer and its partition must
    // have room for the reconstructed component. A dead spare found
    // now is a cheap rejection; found mid-rebuild it is an abort.
    auto probed = co_await mgr_clients_[spare_drive]->probe(partition_);
    if (!probed.ok()) {
        reply.status = CheopsStatus::kDriveError;
        co_return reply;
    }

    // Size the rebuild from the surviving components: parity is always
    // as long as the longest data unit of its row, so the max survivor
    // extent bounds the dead component's extent.
    std::uint64_t max_size = 0;
    for (std::size_t i = 0; i < obj.components.size(); ++i) {
        if (i == dead_component)
            continue;
        const auto &[drive, oid] = obj.components[i];
        auto attrs =
            co_await managerGetAttr(drive, oid, obj.component_versions[i]);
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
    CapabilityPublic pub;
    pub.partition = partition_;
    pub.object_id = kPartitionControlObject;
    pub.rights = kRightCreate;
    CredentialFactory spare_cred(issuers_[spare_drive]->mint(pub));
    auto spare =
        co_await mgr_clients_[spare_drive]->create(spare_cred, max_size);
    if (!spare.ok()) {
        reply.status = CheopsStatus::kDriveError;
        co_return reply;
    }

    // Fence stale writers: bump every surviving component's version.
    // A client holding the pre-rebuild map hits kVersionMismatch on
    // its next component write, refreshes, and learns it must bracket
    // row updates with the rebuild lock and write through to the
    // spare. Without this, a stale writer could update a row the
    // engine already passed and the spare would miss the bytes.
    for (std::size_t i = 0; i < obj.components.size(); ++i) {
        if (i == dead_component)
            continue;
        const auto &[drive, oid] = obj.components[i];
        auto bumped = co_await managerBumpVersion(
            drive, oid, obj.component_versions[i]);
        if (!bumped.ok()) {
            reply.status = CheopsStatus::kDriveError;
            co_return reply;
        }
        obj.component_versions[i] = bumped.value().version;
    }
    ++obj.map_version;
    node_.flightJournal().record(sim_.now(), util::FrEvent::kVersionFence,
                                 0, id, obj.map_version, "rebuild_fence");

    RebuildState &rb = rebuilds_[id];
    rb.active = true;
    rb.dead_comp = dead_component;
    rb.spare_drive = spare_drive;
    rb.spare_oid = spare.value();
    rb.rows_total = (max_size + obj.stripe_unit_bytes - 1) /
                    obj.stripe_unit_bytes;
    rb.rows_done = 0;
    rb.bytes_reconstructed = 0;
    rb.throttle_wait_ns = 0;
    rb.started_at = sim_.now();
    rb.finished_at = 0;
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
        if (oit == objects_.end())
            break; // object removed mid-rebuild: abandon quietly
        LogicalObject &obj = oit->second;
        const std::uint64_t su = obj.stripe_unit_bytes;

        // Reconstruct the dead unit: XOR the same offsets on every
        // surviving component (data/parity roles cancel out).
        std::vector<sim::Task<StoreResult<std::vector<std::uint8_t>>>>
            reads;
        for (std::size_t i = 0; i < obj.components.size(); ++i) {
            if (i == rb.dead_comp)
                continue;
            const auto &[drive, oid] = obj.components[i];
            reads.push_back(managerRead(drive, oid,
                                        obj.component_versions[i],
                                        row * su, su));
        }
        auto got = co_await sim::parallelGather(sim_, std::move(reads));
        std::vector<std::uint8_t> unit;
        bool failed = false;
        for (auto &r : got) {
            if (!r.ok()) {
                failed = true;
                break;
            }
            if (r.value().size() > unit.size())
                unit.resize(r.value().size(), 0);
            xorInto(unit, r.value());
        }
        if (failed) {
            // A second component died: the rebuild cannot finish.
            rb.finished_at = sim_.now();
            rb.active = false;
            permit.release();
            co_return;
        }
        if (!unit.empty()) {
            const std::uint64_t len = unit.size();
            auto wrote = co_await managerWrite(rb.spare_drive, rb.spare_oid,
                                               1, row * su,
                                               std::move(unit));
            if (!wrote.ok()) {
                rb.finished_at = sim_.now();
                rb.active = false;
                permit.release();
                co_return;
            }
            rb.bytes_reconstructed += len;
            rebuild_bytes_.add(len);
        }
        ++rb.rows_done;
        rebuild_rows_.add(1);
        node_.flightJournal().record(sim_.now(),
                                     util::FrEvent::kRowLockRelease, 0, id,
                                     0, "engine");
        permit.release();
    }

    // Completion: swap the spare into the layout map in place and let
    // clients discover the move via map refresh (reprobe / next open).
    // The survivors' versions are bumped first — the same fence as
    // rebuild start. Without it a client still holding the rebuild-era
    // map keeps taking the degraded path: its new bytes land only in
    // the survivors' parity while a fresh-map reader fetches the spare
    // directly and sees pre-rebuild data.
    auto permit = co_await sim::scopedAcquire(sim_, *rb.lock);
    const auto oit = objects_.find(id);
    if (oit != objects_.end() && rb.active) {
        LogicalObject &obj = oit->second;
        for (std::size_t i = 0; i < obj.components.size(); ++i) {
            if (i == rb.dead_comp)
                continue;
            const auto &[drive, oid] = obj.components[i];
            auto bumped = co_await managerBumpVersion(
                drive, oid, obj.component_versions[i]);
            if (bumped.ok())
                obj.component_versions[i] = bumped.value().version;
        }
        obj.components[rb.dead_comp] = {rb.spare_drive, rb.spare_oid};
        obj.component_versions[rb.dead_comp] = 1;
        ++obj.map_version;
        node_.flightJournal().record(sim_.now(),
                                     util::FrEvent::kVersionFence, 0, id,
                                     obj.map_version, "rebuild_refence");
    }
    rb.active = false;
    rb.finished_at = sim_.now();
    node_.flightJournal().record(sim_.now(),
                                 util::FrEvent::kRebuildComplete, 0, id,
                                 rb.rows_done);
    permit.release();
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
    if (rit == rebuilds_.end()) {
        reply.status = CheopsStatus::kNoSuchObject;
        co_return reply;
    }
    const auto hit = rit->second.held.find(ticket);
    if (hit == rit->second.held.end()) {
        reply.status = CheopsStatus::kNoSuchObject;
        co_return reply;
    }
    hit->second.release();
    rit->second.held.erase(hit);
    node_.flightJournal().record(sim_.now(),
                                 util::FrEvent::kRowLockRelease, 0, id,
                                 ticket);
    control_ops_.add(1);
    co_return reply;
}

RebuildProgress
CheopsManager::rebuildProgress(LogicalObjectId id) const
{
    RebuildProgress p;
    const auto rit = rebuilds_.find(id);
    if (rit == rebuilds_.end())
        return p;
    const RebuildState &rb = rit->second;
    p.known = true;
    p.active = rb.active;
    p.rows_done = rb.rows_done;
    p.rows_total = rb.rows_total;
    p.bytes_reconstructed = rb.bytes_reconstructed;
    p.throttle_wait_ns = rb.throttle_wait_ns;
    p.started_at = rb.started_at;
    p.finished_at = rb.finished_at;
    return p;
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

sim::Task<util::Result<CheopsClient::OpenState *, CheopsStatus>>
CheopsClient::ensureOpen(LogicalObjectId id, bool want_write)
{
    auto it = open_objects_.find(id);
    if (it != open_objects_.end() &&
        (!want_write || it->second.writable)) {
        co_return &it->second;
    }

    manager_calls_.add(1);
    auto reply = co_await net::call<OpenReply>(
        net_, node_, mgr_.node(), kControlPayload,
        [&]() -> sim::Task<net::RpcReply<OpenReply>> {
            auto r = co_await mgr_.serveOpen(id, want_write);
            const std::uint64_t payload =
                64 + 160 * r.map.components.size(); // caps on the wire
            co_return net::RpcReply<OpenReply>{std::move(r), payload};
        });
    if (reply.status != CheopsStatus::kOk)
        co_return util::Err{reply.status};

    OpenState state;
    state.map = std::move(reply.map);
    state.writable = want_write;
    for (const auto &comp : state.map.components) {
        state.creds.push_back(
            std::make_unique<CredentialFactory>(comp.capability));
    }
    for (const auto &mirror : state.map.mirrors) {
        state.mirror_creds.push_back(
            std::make_unique<CredentialFactory>(mirror.capability));
    }
    if (state.map.redundancy == Redundancy::kParity) {
        if (state.map.rebuilding) {
            state.rebuild_cred = std::make_unique<CredentialFactory>(
                state.map.rebuild_target.capability);
        }
        for (std::size_t i = 0; i < kRowLockPool; ++i) {
            state.row_locks.push_back(
                std::make_unique<sim::Semaphore>(net_.simulator(), 1));
        }
    }
    auto [pos, inserted] =
        open_objects_.insert_or_assign(id, std::move(state));
    co_return &pos->second;
}

sim::Task<bool>
CheopsClient::refreshCaps(LogicalObjectId id, bool want_write)
{
    auto it = open_objects_.find(id);
    if (it == open_objects_.end())
        co_return false;
    OpenState &state = it->second;
    const bool writable = state.writable || want_write;

    manager_calls_.add(1);
    auto reply = co_await net::call<OpenReply>(
        net_, node_, mgr_.node(), kControlPayload,
        [&]() -> sim::Task<net::RpcReply<OpenReply>> {
            auto r = co_await mgr_.serveOpen(id, writable);
            const std::uint64_t payload =
                64 + 160 * r.map.components.size();
            co_return net::RpcReply<OpenReply>{std::move(r), payload};
        });
    if (reply.status != CheopsStatus::kOk)
        co_return false;
    if (reply.map.components.size() != state.creds.size() ||
        reply.map.mirrors.size() != state.mirror_creds.size())
        co_return false; // layout changed under us; caller re-opens

    // Rebind in place: parallel fetch/push runs hold references to the
    // existing factories and into the map's component vectors, so fresh
    // capabilities are installed element-wise — never by replacing the
    // map or swapping the unique_ptrs, either of which would dangle.
    // The whole ComponentRef is assigned (not just the capability): a
    // completed rebuild moves a component to the spare drive, and the
    // suspended runs must see the new (drive, oid) binding.
    for (std::size_t i = 0; i < state.creds.size(); ++i) {
        state.creds[i]->rebind(reply.map.components[i].capability);
        state.map.components[i] = reply.map.components[i];
    }
    for (std::size_t i = 0; i < state.mirror_creds.size(); ++i) {
        state.mirror_creds[i]->rebind(reply.map.mirrors[i].capability);
        state.map.mirrors[i] = reply.map.mirrors[i];
    }
    node_.flightJournal().record(net_.simulator().now(),
                                 util::FrEvent::kCapRefresh, 0, id,
                                 reply.map.map_version);
    if (reply.map.map_version != state.map.map_version) {
        node_.flightJournal().record(net_.simulator().now(),
                                     util::FrEvent::kMapRefresh, 0, id,
                                     reply.map.map_version);
    }
    state.map.map_version = reply.map.map_version;
    state.map.rebuilding = reply.map.rebuilding;
    state.map.rebuild_component = reply.map.rebuild_component;
    state.map.rebuild_target = reply.map.rebuild_target;
    if (reply.map.rebuilding) {
        if (state.rebuild_cred == nullptr) {
            state.rebuild_cred = std::make_unique<CredentialFactory>(
                reply.map.rebuild_target.capability);
        } else {
            state.rebuild_cred->rebind(
                reply.map.rebuild_target.capability);
        }
    }
    state.writable = writable;
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
    manager_calls_.add(1);
    auto reply = co_await net::call<CreateReply>(
        net_, node_, mgr_.node(), kControlPayload,
        [&]() -> sim::Task<net::RpcReply<CreateReply>> {
            auto r = co_await mgr_.serveCreate(stripe_unit_bytes,
                                               stripe_count, capacity_hint,
                                               redundancy);
            co_return net::RpcReply<CreateReply>{r, 24};
        });
    if (reply.status != CheopsStatus::kOk)
        co_return util::Err{reply.status};
    co_return reply.id;
}

sim::Task<util::Result<void, CheopsStatus>>
CheopsClient::remove(LogicalObjectId id)
{
    open_objects_.erase(id);
    manager_calls_.add(1);
    auto reply = co_await net::call<CheopsStatusReply>(
        net_, node_, mgr_.node(), kControlPayload,
        [&]() -> sim::Task<net::RpcReply<CheopsStatusReply>> {
            auto r = co_await mgr_.serveRemove(id);
            co_return net::RpcReply<CheopsStatusReply>{r, 16};
        });
    if (reply.status != CheopsStatus::kOk)
        co_return util::Err{reply.status};
    co_return util::Result<void, CheopsStatus>{};
}

sim::Task<util::Result<std::uint64_t, CheopsStatus>>
CheopsClient::size(LogicalObjectId id)
{
    manager_calls_.add(1);
    auto reply = co_await net::call<SizeReply>(
        net_, node_, mgr_.node(), kControlPayload,
        [&]() -> sim::Task<net::RpcReply<SizeReply>> {
            auto r = co_await mgr_.serveGetSize(id);
            co_return net::RpcReply<SizeReply>{r, 24};
        });
    if (reply.status != CheopsStatus::kOk)
        co_return util::Err{reply.status};
    co_return reply.size;
}

sim::Task<util::Result<void, CheopsStatus>>
CheopsClient::startRebuild(LogicalObjectId id, std::uint32_t dead_component,
                           std::uint32_t spare_drive,
                           RebuildThrottle throttle)
{
    manager_calls_.add(1);
    auto reply = co_await net::call<CheopsStatusReply>(
        net_, node_, mgr_.node(), kControlPayload,
        [&]() -> sim::Task<net::RpcReply<CheopsStatusReply>> {
            auto r = co_await mgr_.serveStartRebuild(id, dead_component,
                                                     spare_drive, throttle);
            co_return net::RpcReply<CheopsStatusReply>{r, 16};
        });
    if (reply.status != CheopsStatus::kOk)
        co_return util::Err{reply.status};
    co_return util::Result<void, CheopsStatus>{};
}

sim::Task<util::Result<void, CheopsStatus>>
CheopsClient::resyncMirrors(LogicalObjectId id)
{
    manager_calls_.add(1);
    auto reply = co_await net::call<CheopsStatusReply>(
        net_, node_, mgr_.node(), kControlPayload,
        [&]() -> sim::Task<net::RpcReply<CheopsStatusReply>> {
            auto r = co_await mgr_.serveResyncMirrors(id);
            co_return net::RpcReply<CheopsStatusReply>{r, 16};
        });
    if (reply.status != CheopsStatus::kOk)
        co_return util::Err{reply.status};
    co_return util::Result<void, CheopsStatus>{};
}

sim::Task<util::Result<void, CheopsStatus>>
CheopsClient::markDegraded(LogicalObjectId id, std::uint32_t component,
                           bool mirror_side)
{
    manager_calls_.add(1);
    auto reply = co_await net::call<CheopsStatusReply>(
        net_, node_, mgr_.node(), kControlPayload,
        [&]() -> sim::Task<net::RpcReply<CheopsStatusReply>> {
            auto r = co_await mgr_.serveMarkDegraded(id, component,
                                                     mirror_side);
            co_return net::RpcReply<CheopsStatusReply>{r, 16};
        });
    if (reply.status != CheopsStatus::kOk)
        co_return util::Err{reply.status};
    co_return util::Result<void, CheopsStatus>{};
}

sim::Task<util::Result<std::uint64_t, CheopsStatus>>
CheopsClient::rebuildLock(LogicalObjectId id)
{
    manager_calls_.add(1);
    auto reply = co_await net::call<RebuildLockReply>(
        net_, node_, mgr_.node(), kControlPayload,
        [&]() -> sim::Task<net::RpcReply<RebuildLockReply>> {
            auto r = co_await mgr_.serveRebuildLock(id);
            co_return net::RpcReply<RebuildLockReply>{r, 24};
        });
    if (reply.status != CheopsStatus::kOk)
        co_return util::Err{reply.status};
    co_return reply.ticket;
}

sim::Task<void>
CheopsClient::rebuildUnlock(LogicalObjectId id, std::uint64_t ticket)
{
    manager_calls_.add(1);
    auto reply = co_await net::call<CheopsStatusReply>(
        net_, node_, mgr_.node(), kControlPayload,
        [&]() -> sim::Task<net::RpcReply<CheopsStatusReply>> {
            auto r = co_await mgr_.serveRebuildUnlock(id, ticket);
            co_return net::RpcReply<CheopsStatusReply>{r, 16};
        });
    (void)reply.status; // the permit is released or the rebuild is gone
}

sim::Task<StoreResult<std::uint64_t>>
CheopsClient::readComponent(OpenState *open, LogicalObjectId id,
                            std::uint32_t comp, std::uint64_t offset,
                            std::span<std::uint8_t> out,
                            util::TraceContext ctx)
{
    auto &ref = open->map.components[comp];
    auto &cred = *open->creds[comp];
    auto n = co_await drive_clients_[ref.drive]->read(cred, offset, out, ctx);
    const bool parity = open->map.redundancy == Redundancy::kParity;
    if (!n.ok() &&
        (n.error() == NasdStatus::kExpiredCapability ||
         (parity && n.error() == NasdStatus::kVersionMismatch))) {
        // Refresh once, then retry. Expiry always earns a refresh; a
        // version mismatch does so only in parity mode, where it is
        // the rebuild fence (elsewhere revoked must stay revoked).
        if (co_await refreshCaps(id, open->writable))
            n = co_await drive_clients_[ref.drive]->read(cred, offset, out,
                                                         ctx);
    }
    co_return n;
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
    auto &ref = open->map.components[comp];
    auto &cred = *open->creds[comp];
    auto wrote =
        co_await drive_clients_[ref.drive]->write(cred, offset, data, ctx);
    const bool parity = open->map.redundancy == Redundancy::kParity;
    if (!wrote.ok() &&
        (wrote.error() == NasdStatus::kExpiredCapability ||
         (parity && wrote.error() == NasdStatus::kVersionMismatch))) {
        if (co_await refreshCaps(id, true)) {
            wrote = co_await drive_clients_[ref.drive]->write(cred, offset,
                                                              data, ctx);
        }
    }
    co_return wrote;
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
        std::vector<sim::Task<StoreResult<std::vector<std::uint8_t>>>>
            reads;
        for (std::uint32_t c = 0;
             c < static_cast<std::uint32_t>(open->map.components.size());
             ++c) {
            if (c == dead)
                continue;
            reads.push_back(readComponent(open, id, c, o, len, ctx));
        }
        auto got =
            co_await sim::parallelGather(net_.simulator(), std::move(reads));
        std::uint64_t max_len = 0;
        for (auto &r : got) {
            if (!r.ok())
                co_return util::Err{r.error()};
            const auto &bytes = r.value();
            max_len = std::max(max_len,
                               static_cast<std::uint64_t>(bytes.size()));
            xorInto(std::span<std::uint8_t>(out).subspan(o - offset), bytes);
        }
        reconstructed_units_.add(1);
        co_return max_len;
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
        if (tail != nullptr) {
            tail->length += take;
            tail->pieces.emplace_back(pos - offset, take);
        } else {
            ComponentRun r;
            r.component = comp;
            r.component_offset = comp_offset;
            r.length = take;
            r.pieces.emplace_back(pos - offset, take);
            runs.push_back(std::move(r));
        }
        pos += take;
    }
    return runs;
}

sim::Task<util::Result<ReadOutcome, CheopsStatus>>
CheopsClient::read(LogicalObjectId id, std::uint64_t offset,
                   std::span<std::uint8_t> out, util::TraceContext parent)
{
    util::TraceContext ctx = util::flightRecorder().mintChild(parent);
    const sim::Tick op_start = net_.simulator().now();
    util::ScopedSpan span("cheops/read", node_.name(),
                          static_cast<std::uint64_t>(net_.simulator().now()),
                          ctx, parent.span_id);
    auto state = co_await ensureOpen(id, false);
    if (!state.ok())
        co_return util::Err{state.error()};
    OpenState *open = state.value();
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
        if (!n.ok() &&
            open->map.redundancy == Redundancy::kParity) {
            // The component may have moved (a completed rebuild swaps
            // the spare into the map); re-ask the manager at most once
            // per reprobe interval, then retry the new binding.
            const auto now = net_.simulator().now();
            if (open->last_reprobe == 0 ||
                now - open->last_reprobe >= kReprobeIntervalNs) {
                open->last_reprobe = now;
                if (co_await refreshCaps(id, open->writable)) {
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
                    open->map.degraded = true;
                    degraded = true;
                    node_.flightJournal().record(
                        net_.simulator().now(),
                        util::FrEvent::kDegradedRead, ctx.trace_id, id,
                        run.component);
                }
            }
        }
        if (!n.ok() &&
            open->map.redundancy == Redundancy::kMirror) {
            // Degraded mode: the replica carries the same bytes at
            // the same component offsets.
            auto &mirror = open->map.mirrors[run.component];
            auto &mcred = *open->mirror_creds[run.component];
            n = co_await drive_clients_[mirror.drive]->read(
                mcred, run.component_offset, dst, ctx);
            if (!n.ok() && n.error() == NasdStatus::kExpiredCapability) {
                if (co_await refreshCaps(id, open->writable)) {
                    n = co_await drive_clients_[mirror.drive]->read(
                        mcred, run.component_offset, dst, ctx);
                }
            }
            if (n.ok()) {
                open->map.degraded = true;
                degraded = true;
                node_.flightJournal().record(
                    net_.simulator().now(), util::FrEvent::kDegradedRead,
                    ctx.trace_id, id, run.component, "mirror");
            }
        }
        if (!n.ok())
            co_return util::Err{CheopsStatus::kDriveError};
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

    span.endAt(static_cast<std::uint64_t>(net_.simulator().now()));
    read_latency_ns_.record(
        static_cast<std::uint64_t>(net_.simulator().now() - op_start));

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
    util::TraceContext ctx = util::flightRecorder().mintChild(parent);
    const sim::Tick op_start = net_.simulator().now();
    util::ScopedSpan span("cheops/write", node_.name(),
                          static_cast<std::uint64_t>(net_.simulator().now()),
                          ctx, parent.span_id);
    auto state = co_await ensureOpen(id, true);
    if (!state.ok())
        co_return util::Err{state.error()};
    OpenState *open = state.value();
    if (open->map.redundancy == Redundancy::kParity) {
        auto r = co_await writeParity(open, id, offset, data, ctx);
        span.endAt(static_cast<std::uint64_t>(net_.simulator().now()));
        write_latency_ns_.record(
            static_cast<std::uint64_t>(net_.simulator().now() - op_start));
        co_return r;
    }
    const auto runs = mapRange(open->map, offset, data.size());

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
        auto &comp = open->map.components[run.component];
        auto &cred = *open->creds[run.component];
        auto wrote = co_await drive_clients_[comp.drive]->write(
            cred, run.component_offset, buf, ctx);
        if (!wrote.ok() &&
            wrote.error() == NasdStatus::kExpiredCapability) {
            if (co_await refreshCaps(id, true)) {
                wrote = co_await drive_clients_[comp.drive]->write(
                    cred, run.component_offset, buf, ctx);
            }
        }
        bool any_ok = wrote.ok();
        if (open->map.redundancy == Redundancy::kMirror) {
            auto &mirror = open->map.mirrors[run.component];
            auto &mcred = *open->mirror_creds[run.component];
            auto mirrored = co_await drive_clients_[mirror.drive]->write(
                mcred, run.component_offset, buf, ctx);
            if (!mirrored.ok() &&
                mirrored.error() == NasdStatus::kExpiredCapability) {
                if (co_await refreshCaps(id, true)) {
                    mirrored = co_await drive_clients_[mirror.drive]->write(
                        mcred, run.component_offset, buf, ctx);
                }
            }
            any_ok = any_ok || mirrored.ok();
            if (wrote.ok() != mirrored.ok()) {
                // One side took the data and the other did not: the
                // pair has diverged. Report it so the manager bumps
                // the stale side's stored version — reads of the old
                // copy then fail with a version mismatch instead of
                // silently returning pre-write bytes. If the report
                // itself fails, the divergence is unrecorded and the
                // write must not claim success.
                auto marked = co_await markDegraded(
                    id, run.component, /*mirror_side=*/!mirrored.ok());
                if (!marked.ok())
                    co_return util::Err{CheopsStatus::kDriveError};
                // The fence lives in freshly minted capabilities: the
                // cached set still validates against the stale copy's
                // old version, so swap it out now. Divergence is
                // already recorded server-side if this refresh fails.
                co_await refreshCaps(id, true);
            }
        }
        if (!any_ok)
            co_return util::Err{CheopsStatus::kDriveError};
        co_return util::Result<void, CheopsStatus>{};
    };

    std::vector<sim::Task<util::Result<void, CheopsStatus>>> tasks;
    tasks.reserve(runs.size());
    for (const auto &run : runs)
        tasks.push_back(pushRun(run));
    auto results =
        co_await sim::parallelGather(net_.simulator(), std::move(tasks));
    write_latency_ns_.record(
        static_cast<std::uint64_t>(net_.simulator().now() - op_start));
    for (auto &r : results) {
        if (!r.ok())
            co_return util::Err{r.error()};
    }
    co_return util::Result<void, CheopsStatus>{};
}

sim::Task<util::Result<void, CheopsStatus>>
CheopsClient::writeParity(OpenState *open, LogicalObjectId id,
                          std::uint64_t offset,
                          std::span<const std::uint8_t> data,
                          util::TraceContext ctx)
{
    if (data.empty())
        co_return util::Result<void, CheopsStatus>{};
    const std::uint64_t su = open->map.stripe_unit_bytes;
    const std::uint64_t n = open->map.components.size() - 1;
    const std::uint64_t row_bytes = n * su;
    const std::uint64_t first = offset / row_bytes;
    const std::uint64_t last = (offset + data.size() - 1) / row_bytes;

    std::vector<sim::Task<util::Result<void, CheopsStatus>>> rows;
    rows.reserve(last - first + 1);
    for (std::uint64_t row = first; row <= last; ++row)
        rows.push_back(writeParityRow(open, id, row, offset, data, ctx));
    auto results =
        co_await sim::parallelGather(net_.simulator(), std::move(rows));
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
    // range [a, b) and the matching slice of the caller's buffer.
    std::vector<RowUnitWrite> writes;
    std::uint64_t plo = su, phi = 0; // parity footprint (within unit)
    for (std::uint32_t d = 0; d < w; ++d) {
        const std::uint64_t unit_start = row_start + d * su;
        const std::uint64_t wa = std::max(lo, unit_start);
        const std::uint64_t wb = std::min(hi, unit_start + su);
        if (wa >= wb)
            continue;
        RowUnitWrite uw;
        uw.d = d;
        uw.comp = CheopsManager::dataComponent(row, d, w);
        uw.a = wa - unit_start;
        uw.b = wb - unit_start;
        uw.bytes = data.subspan(wa - offset, wb - wa);
        plo = std::min(plo, uw.a);
        phi = std::max(phi, uw.b);
        writes.push_back(uw);
    }
    if (writes.empty())
        co_return util::Result<void, CheopsStatus>{};
    const bool full_row = lo == row_start && hi == row_start + row_bytes;

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
        const std::uint32_t dead_comp = open->map.rebuild_component;
        std::uint64_t ticket = 0;
        bool locked = false;
        if (rebuilding) {
            auto lk = co_await rebuildLock(id);
            if (lk.ok()) {
                ticket = lk.value();
                locked = true;
            }
        }

        // Identify a component to treat as unreachable. While a
        // rebuild runs the map says so explicitly; otherwise start
        // healthy and fall back when a component fails.
        std::int64_t dead =
            rebuilding ? static_cast<std::int64_t>(dead_comp) : -1;
        bool retry_row = false;

        if (dead < 0) {
            // ---- healthy path -----------------------------------
            std::vector<sim::Task<StoreResult<void>>> ops;
            std::vector<std::uint32_t> op_comp;
            if (full_row) {
                // Full-stripe write: parity is XOR of the new data,
                // no old bytes needed.
                std::vector<std::uint8_t> pbuf(su, 0);
                for (const auto &uw : writes)
                    xorInto(pbuf, uw.bytes);
                for (const auto &uw : writes) {
                    ops.push_back(writeComponent(open, id, uw.comp,
                                                 row * su, uw.bytes,
                                                 ctx));
                    op_comp.push_back(uw.comp);
                }
                ops.push_back(writeComponent(open, id, p, row * su,
                                             pbuf, ctx));
                op_comp.push_back(p);
                auto results = co_await sim::parallelGather(
                    net_.simulator(), std::move(ops));
                std::int64_t failed = -1;
                int failures = 0;
                for (std::size_t i = 0; i < results.size(); ++i) {
                    if (!results[i].ok()) {
                        ++failures;
                        failed = op_comp[i];
                    }
                }
                if (failures == 0) {
                    result = util::Result<void, CheopsStatus>{};
                } else if (failures == 1) {
                    dead = failed;
                } else {
                    result = util::Err{CheopsStatus::kDriveError};
                }
            } else {
                // Read-modify-write: read the old bytes under the
                // written footprint plus the old parity, fold the
                // deltas into the parity, write data + parity.
                std::vector<
                    sim::Task<StoreResult<std::vector<std::uint8_t>>>>
                    reads;
                std::vector<std::uint32_t> read_comp;
                for (const auto &uw : writes) {
                    reads.push_back(readComponent(open, id, uw.comp,
                                                  row * su + uw.a,
                                                  uw.b - uw.a, ctx));
                    read_comp.push_back(uw.comp);
                }
                reads.push_back(readComponent(open, id, p,
                                              row * su + plo, phi - plo,
                                              ctx));
                read_comp.push_back(p);
                auto old = co_await sim::parallelGather(
                    net_.simulator(), std::move(reads));
                std::int64_t failed = -1;
                int failures = 0;
                for (std::size_t i = 0; i < old.size(); ++i) {
                    if (!old[i].ok()) {
                        ++failures;
                        failed = read_comp[i];
                    }
                }
                if (failures > 1) {
                    result = util::Err{CheopsStatus::kDriveError};
                } else if (failures == 1) {
                    dead = failed;
                } else {
                    // parity' = parity ^ old ^ new over each written
                    // range (short old reads are holes: zeros).
                    std::vector<std::uint8_t> pbuf(phi - plo, 0);
                    const auto &oldp = old.back().value();
                    std::copy(oldp.begin(), oldp.end(), pbuf.begin());
                    for (std::size_t i = 0; i < writes.size(); ++i) {
                        const auto &uw = writes[i];
                        const auto dst =
                            std::span<std::uint8_t>(pbuf).subspan(
                                uw.a - plo, uw.b - uw.a);
                        xorInto(dst, uw.bytes);
                        xorInto(dst, old[i].value());
                    }
                    std::vector<sim::Task<StoreResult<void>>> wops;
                    std::vector<std::uint32_t> wop_comp;
                    for (const auto &uw : writes) {
                        wops.push_back(writeComponent(open, id, uw.comp,
                                                      row * su + uw.a,
                                                      uw.bytes, ctx));
                        wop_comp.push_back(uw.comp);
                    }
                    wops.push_back(writeComponent(open, id, p,
                                                  row * su + plo, pbuf,
                                                  ctx));
                    wop_comp.push_back(p);
                    auto wres = co_await sim::parallelGather(
                        net_.simulator(), std::move(wops));
                    failed = -1;
                    failures = 0;
                    for (std::size_t i = 0; i < wres.size(); ++i) {
                        if (!wres[i].ok()) {
                            ++failures;
                            failed = wop_comp[i];
                        }
                    }
                    if (failures == 0) {
                        result = util::Result<void, CheopsStatus>{};
                    } else if (failures == 1) {
                        dead = failed;
                    } else {
                        result = util::Err{CheopsStatus::kDriveError};
                    }
                }
            }
        }

        if (dead >= 0) {
            // ---- degraded path ----------------------------------
            // Full-row recompute: read every surviving unit, overlay
            // the new bytes, rebuild parity from scratch, write what
            // changed. One read fan-out regardless of which role the
            // dead component plays in this row.
            result = co_await writeParityRowDegraded(
                open, id, row, static_cast<std::uint32_t>(dead),
                rebuilding && locked, writes, plo, phi, ctx);
        }

        if (locked)
            co_await rebuildUnlock(id, ticket);

        // If the layout changed while this row update ran — a rebuild
        // started (fence bump failed a component write, the ladder
        // refreshed, and the map now says rebuilding) or one finished
        // (the spare was swapped in and this attempt's degraded write
        // never reached it) — redo the row against the current map.
        // The redo is idempotent.
        if (open->map.map_version != attempt_map_version) {
            retry_row = true;
        }
        if (!retry_row)
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

    // Read the full row unit from every surviving component.
    std::vector<sim::Task<StoreResult<std::vector<std::uint8_t>>>> reads;
    std::vector<std::uint32_t> read_comp;
    for (std::uint32_t c = 0;
         c < static_cast<std::uint32_t>(open->map.components.size());
         ++c) {
        if (c == dead)
            continue;
        reads.push_back(readComponent(open, id, c, row * su, su, ctx));
        read_comp.push_back(c);
    }
    auto old =
        co_await sim::parallelGather(net_.simulator(), std::move(reads));
    std::vector<std::vector<std::uint8_t>> unit_by_comp(
        open->map.components.size());
    for (std::size_t i = 0; i < old.size(); ++i) {
        if (!old[i].ok())
            co_return util::Err{CheopsStatus::kDriveError};
        unit_by_comp[read_comp[i]] = std::move(old[i].value());
        unit_by_comp[read_comp[i]].resize(su, 0);
    }
    // Reconstruct the dead unit (valid whether it is data or parity).
    unit_by_comp[dead].assign(su, 0);
    for (std::size_t c = 0; c < unit_by_comp.size(); ++c)
        if (c != dead)
            xorInto(unit_by_comp[dead], unit_by_comp[c]);

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
    if (write_through && open->rebuild_cred != nullptr) {
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
            wops.push_back(writeThroughTarget(
                open, row * su + ta,
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

sim::Task<StoreResult<void>>
CheopsClient::writeThroughTarget(OpenState *open, std::uint64_t offset,
                                 std::span<const std::uint8_t> data,
                                 util::TraceContext ctx)
{
    auto &ref = open->map.rebuild_target;
    co_return co_await drive_clients_[ref.drive]->write(
        *open->rebuild_cred, offset, data, ctx);
}

} // namespace nasd::cheops
