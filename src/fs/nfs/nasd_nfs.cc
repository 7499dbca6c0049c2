#include "fs/nfs/nasd_nfs.h"

#include <algorithm>
#include <functional>

#include "net/rpc.h"
#include "sim/sync.h"
#include "util/codec.h"
#include "util/logging.h"

namespace nasd::fs {

namespace {

constexpr std::uint64_t kControlPayload = 96;

/**
 * Statuses a transparent capability refresh can cure: expiry (the file
 * manager re-mints happily) and a version bump (revocation that the
 * NFS consistency protocol resolves by re-fetching, see
 * RevocationForcesCapabilityRefresh). Anything else — drive failure,
 * timeout, rights violations — must surface to the caller unchanged,
 * never be masked by a silent retry.
 */
bool
staleCapability(NasdStatus status)
{
    return status == NasdStatus::kExpiredCapability ||
           status == NasdStatus::kVersionMismatch;
}

/** Reply frame sizes of the file manager's control RPCs. */
std::uint64_t replyBytes(const NasdNfsLookupReply &) { return 256; }
std::uint64_t replyBytes(const NasdNfsStatusReply &) { return 16; }
std::uint64_t
replyBytes(const NasdNfsReaddirReply &r)
{
    return 40 * r.entries.size() + 16;
}

/** The NFS policy attributes in the object's fs-specific field. */
std::array<std::uint8_t, kFsSpecificBytes>
encodePolicyAttrs(std::uint32_t mode, std::uint32_t uid, std::uint32_t gid,
                  bool is_directory)
{
    std::array<std::uint8_t, kFsSpecificBytes> out{};
    std::vector<std::uint8_t> buf;
    util::Encoder enc(buf);
    enc.put<std::uint32_t>(mode);
    enc.put<std::uint32_t>(uid);
    enc.put<std::uint32_t>(gid);
    enc.put<std::uint8_t>(is_directory ? 1 : 0);
    std::copy(buf.begin(), buf.end(), out.begin());
    return out;
}

/** NFS attributes: length and times from the object, policy from its
 *  fs-specific field. */
NfsAttr
toNfsAttr(const ObjectAttributes &object)
{
    NfsAttr out;
    out.size = object.size;
    out.mtime_ns = object.modify_time;
    out.ctime_ns = object.attr_modify_time;
    util::Decoder dec(object.fs_specific);
    out.mode = dec.get<std::uint32_t>();
    out.uid = dec.get<std::uint32_t>();
    out.gid = dec.get<std::uint32_t>();
    out.is_directory = dec.get<std::uint8_t>() != 0;
    return out;
}

} // namespace

// ------------------------------------------------------------ file manager

NasdNfsFileManager::NasdNfsFileManager(sim::Simulator &sim,
                                       net::Network &net,
                                       net::NetNode &node,
                                       std::vector<NasdDrive *> drives,
                                       PartitionId partition)
    : sim_(sim), node_(node),
      drives_(net, node, std::move(drives), partition)
{}

ObjectVersion
NasdNfsFileManager::versionOf(const NasdNfsFh &fh) const
{
    const auto it = versions_.find(fh);
    return it == versions_.end() ? 1 : it->second;
}

Capability
NasdNfsFileManager::mintCapability(const NasdNfsFh &fh, std::uint8_t rights)
{
    return drives_.mint(fh.drive, fh.oid, versionOf(fh), rights, ~0ull,
                        sim_.now() + kCapLifetimeNs);
}

CredentialFactory
NasdNfsFileManager::fmCredential(const NasdNfsFh &fh)
{
    return CredentialFactory(mintCapability(
        fh, kRightRead | kRightWrite | kRightGetAttr | kRightSetAttr |
                kRightRemove | kRightVersion));
}

sim::Task<void>
NasdNfsFileManager::initialize(std::uint64_t partition_quota_bytes)
{
    co_await drives_.format(partition_quota_bytes);
    // Root directory object on drive 0 (created through the FM's own
    // client so it pays the same costs as any other create).
    auto made = co_await drives_.create(0, 0);
    NASD_ASSERT(made.ok(), "root create failed");
    root_ = NasdNfsFh{0, made.value()};
    versions_[root_] = 1;

    SetAttrRequest attrs;
    attrs.fs_specific = encodePolicyAttrs(0755, 0, 0, true);
    auto root_cred = fmCredential(root_);
    auto set = co_await drives_.client(0).setAttr(root_cred, attrs);
    NASD_ASSERT(set.ok(), "root attr init failed");
    const auto stored = co_await storeDirectory(root_, {});
    NASD_ASSERT(stored == NfsStatus::kOk, "root directory init failed");
}

sim::Task<NfsResult<std::vector<NasdDirEntry>>>
NasdNfsFileManager::loadDirectory(NasdNfsFh dir)
{
    // A client's handle enters the manager here (lookup, create, mkdir,
    // remove, readdir), in fetchAttrs (setPolicy, getCap) or in
    // serveRevoke; each checks it before minting for its drive.
    if (dir.drive >= drives_.size())
        co_return util::Err{NfsStatus::kStale};
    // The FM is the only directory writer: serve from its cache.
    const auto cached = dir_cache_.find(dir);
    if (cached != dir_cache_.end())
        co_return cached->second;

    auto cred = fmCredential(dir);
    auto entries = co_await readDirectory(drives_, dir, cred);
    if (entries.ok())
        dir_cache_[dir] = entries.value();
    co_return entries;
}

sim::Task<NfsStatus>
NasdNfsFileManager::storeDirectory(NasdNfsFh dir,
                                   const std::vector<NasdDirEntry> &ents)
{
    dir_cache_[dir] = ents; // write-through below
    const auto raw = encodeDirectory(ents);
    auto cred = fmCredential(dir);
    // Truncate only when the directory shrank; growth is just a write.
    auto attrs = co_await drives_.client(dir.drive).getAttr(cred);
    NfsStatus status = NfsStatus::kOk;
    if (attrs.ok() && attrs.value().size > raw.size()) {
        SetAttrRequest trunc;
        trunc.truncate_size = raw.size();
        auto set = co_await drives_.client(dir.drive).setAttr(cred, trunc);
        if (!set.ok())
            status = fromNasdStatus(set.error());
    }
    if (status == NfsStatus::kOk && !raw.empty()) {
        auto wrote = co_await drives_.client(dir.drive).write(cred, 0, raw);
        if (!wrote.ok())
            status = fromNasdStatus(wrote.error());
    }
    // A failed store leaves the drive's copy unknown: read it afresh.
    if (status != NfsStatus::kOk)
        dir_cache_.erase(dir);
    co_return status;
}

sim::Task<NfsResult<NfsAttr>>
NasdNfsFileManager::fetchAttrs(NasdNfsFh fh)
{
    if (fh.drive >= drives_.size())
        co_return util::Err{NfsStatus::kStale};
    auto cred = fmCredential(fh);
    auto attrs = co_await drives_.client(fh.drive).getAttr(cred);
    if (!attrs.ok())
        co_return util::Err{fromNasdStatus(attrs.error())};
    co_return toNfsAttr(attrs.value());
}

sim::Task<NasdNfsLookupReply>
NasdNfsFileManager::serveLookup(NasdNfsFh dir, std::string name,
                                bool want_write)
{
    NasdNfsLookupReply reply;
    auto entries = co_await loadDirectory(dir);
    if (!entries.ok()) {
        reply.status = entries.error();
        co_return reply;
    }
    const auto it =
        std::ranges::find(entries.value(), name, &NasdDirEntry::name);
    if (it == entries.value().end()) {
        reply.status = NfsStatus::kNoEnt;
        co_return reply;
    }
    reply.fh = it->fh;
    auto attrs = co_await fetchAttrs(it->fh);
    if (attrs.ok())
        reply.attrs = attrs.value();

    reply.capability = mintCapability(
        it->fh, kRightRead | kRightGetAttr | (want_write ? kRightWrite : 0));
    co_return reply;
}

sim::Task<NasdNfsLookupReply>
NasdNfsFileManager::serveCreate(NasdNfsFh dir, std::string name)
{
    NasdNfsLookupReply reply;
    auto entries = co_await loadDirectory(dir);
    if (!entries.ok()) {
        reply.status = entries.error();
        co_return reply;
    }
    if (std::ranges::find(entries.value(), name, &NasdDirEntry::name) !=
        entries.value().end()) {
        reply.status = NfsStatus::kExist;
        co_return reply;
    }

    // Round-robin placement across drives.
    const std::uint32_t target = next_placement_++ % drives_.size();
    auto made = co_await drives_.create(target, 0);
    if (!made.ok()) {
        reply.status = fromNasdStatus(made.error());
        co_return reply;
    }
    const NasdNfsFh fh{target, made.value()};
    versions_[fh] = 1;

    SetAttrRequest attrs;
    attrs.fs_specific = encodePolicyAttrs(0644, 0, 0, false);
    auto cred = fmCredential(fh);
    auto set = co_await drives_.client(target).setAttr(cred, attrs);
    if (set.ok()) {
        auto updated = entries.value();
        updated.push_back(NasdDirEntry{name, fh, false});
        reply.status = co_await storeDirectory(dir, updated);
    } else {
        reply.status = fromNasdStatus(set.error());
    }
    if (reply.status != NfsStatus::kOk) {
        // No directory names the new object: take it back off its drive.
        versions_.erase(fh);
        (void)co_await drives_.client(target).remove(cred);
        co_return reply;
    }

    reply.fh = fh;
    reply.attrs.mode = 0644;
    reply.capability = mintCapability(
        fh, kRightRead | kRightWrite | kRightGetAttr);
    co_return reply;
}

sim::Task<NasdNfsLookupReply>
NasdNfsFileManager::serveMkdir(NasdNfsFh dir, std::string name)
{
    NasdNfsLookupReply reply = co_await serveCreate(dir, name);
    if (reply.status != NfsStatus::kOk)
        co_return reply;
    // Mark it a directory and fix the parent entry.
    SetAttrRequest attrs;
    attrs.fs_specific = encodePolicyAttrs(0755, 0, 0, true);
    auto cred = fmCredential(reply.fh);
    auto set = co_await drives_.client(reply.fh.drive).setAttr(cred, attrs);
    if (!set.ok()) {
        reply.status = fromNasdStatus(set.error());
        co_return reply;
    }
    reply.attrs.is_directory = true;
    reply.attrs.mode = 0755;

    auto entries = co_await loadDirectory(dir);
    if (!entries.ok()) {
        reply.status = entries.error();
        co_return reply;
    }
    for (auto &e : entries.value()) {
        if (e.fh == reply.fh)
            e.is_directory = true;
    }
    reply.status = co_await storeDirectory(dir, entries.value());
    co_return reply;
}

sim::Task<NasdNfsStatusReply>
NasdNfsFileManager::serveRemove(NasdNfsFh dir, std::string name)
{
    NasdNfsStatusReply reply;
    auto entries = co_await loadDirectory(dir);
    if (!entries.ok()) {
        reply.status = entries.error();
        co_return reply;
    }
    auto updated = entries.value();
    const auto it = std::ranges::find(updated, name, &NasdDirEntry::name);
    if (it == updated.end()) {
        reply.status = NfsStatus::kNoEnt;
        co_return reply;
    }
    const NasdNfsFh fh = it->fh;
    if (it->is_directory) {
        auto children = co_await loadDirectory(fh);
        if (children.ok() && !children.value().empty()) {
            reply.status = NfsStatus::kNotEmpty;
            co_return reply;
        }
    }
    auto cred = fmCredential(fh);
    auto removed = co_await drives_.client(fh.drive).remove(cred);
    if (!removed.ok()) {
        reply.status = fromNasdStatus(removed.error());
        co_return reply;
    }
    versions_.erase(fh);
    dir_cache_.erase(fh);
    updated.erase(it);
    reply.status = co_await storeDirectory(dir, updated);
    co_return reply;
}

sim::Task<NasdNfsReaddirReply>
NasdNfsFileManager::serveReaddir(NasdNfsFh dir)
{
    NasdNfsReaddirReply reply;
    auto entries = co_await loadDirectory(dir);
    if (!entries.ok()) {
        reply.status = entries.error();
        co_return reply;
    }
    reply.entries = std::move(entries.value());
    co_return reply;
}

sim::Task<NasdNfsStatusReply>
NasdNfsFileManager::serveSetPolicy(NasdNfsFh fh, std::uint32_t mode,
                                   std::uint32_t uid, std::uint32_t gid)
{
    NasdNfsStatusReply reply;
    // Read current attrs to preserve the directory bit.
    auto attrs = co_await fetchAttrs(fh);
    if (!attrs.ok()) {
        reply.status = attrs.error();
        co_return reply;
    }
    SetAttrRequest req;
    req.fs_specific =
        encodePolicyAttrs(mode, uid, gid, attrs.value().is_directory);
    auto cred = fmCredential(fh);
    auto set = co_await drives_.client(fh.drive).setAttr(cred, req);
    if (!set.ok())
        reply.status = fromNasdStatus(set.error());
    co_return reply;
}

sim::Task<NasdNfsLookupReply>
NasdNfsFileManager::serveGetCap(NasdNfsFh fh, bool want_write)
{
    NasdNfsLookupReply reply;
    reply.fh = fh;
    auto attrs = co_await fetchAttrs(fh);
    if (!attrs.ok()) {
        reply.status = attrs.error();
        co_return reply;
    }
    reply.attrs = attrs.value();
    reply.capability = mintCapability(
        fh, kRightRead | kRightGetAttr | (want_write ? kRightWrite : 0));
    co_return reply;
}

sim::Task<NasdNfsStatusReply>
NasdNfsFileManager::serveRevoke(NasdNfsFh fh)
{
    NasdNfsStatusReply reply;
    if (fh.drive >= drives_.size()) {
        reply.status = NfsStatus::kStale;
        co_return reply;
    }
    SetAttrRequest req;
    req.bump_version = true;
    auto cred = fmCredential(fh);
    auto set = co_await drives_.client(fh.drive).setAttr(cred, req);
    if (!set.ok()) {
        reply.status = fromNasdStatus(set.error());
        co_return reply;
    }
    versions_[fh] = set.value().version;
    co_return reply;
}

// ----------------------------------------------------------------- client

NasdNfsClient::NasdNfsClient(net::Network &net, net::NetNode &node,
                             NasdNfsFileManager &fm,
                             std::vector<NasdDrive *> drives,
                             NfsClientParams params)
    : net_(net), node_(node), fm_(fm), params_(params),
      window_(net.simulator(), params.window),
      window_wait_ns_(util::metrics().counter(node_.metricPrefix() +
                                              "/window_wait_ns"))
{
    for (auto *drive : drives) {
        drive_clients_.push_back(
            std::make_unique<NasdClient>(net, node_, *drive));
    }
}

template <typename Reply, typename Serve>
sim::Task<Reply>
NasdNfsClient::callFm(std::uint64_t request_bytes, Serve serve)
{
    ++fm_calls_;
    // A named handler: a prvalue std::function must not cross a
    // coroutine boundary (see nasd/client.cc).
    const std::function<sim::Task<net::RpcReply<Reply>>()> handler =
        [&serve]() -> sim::Task<net::RpcReply<Reply>> {
        Reply r = co_await serve();
        const std::uint64_t bytes = replyBytes(r);
        co_return net::RpcReply<Reply>{std::move(r), bytes};
    };
    co_return co_await net::call<Reply>(net_, node_, fm_.node(),
                                        request_bytes, handler);
}

sim::Task<NfsResult<CredentialFactory *>>
NasdNfsClient::capabilityFor(NasdNfsFh fh, bool write)
{
    // Every direct drive access starts here: a handle naming no drive
    // of this namespace never indexes drive_clients_.
    if (fh.drive >= drive_clients_.size())
        co_return util::Err{NfsStatus::kStale};
    auto it = cap_cache_.find(fh);
    if (it != cap_cache_.end() && (!write || it->second.writable))
        co_return it->second.cred.get();

    auto reply = co_await callFm<NasdNfsLookupReply>(
        kControlPayload, [&] { return fm_.serveGetCap(fh, write); });
    if (reply.status != NfsStatus::kOk)
        co_return util::Err{reply.status};
    co_return cacheCap(fh, std::move(reply.capability), write);
}

CredentialFactory *
NasdNfsClient::cacheCap(NasdNfsFh fh, Capability cap, bool writable)
{
    CachedCap entry{std::make_unique<CredentialFactory>(std::move(cap)),
                    writable};
    auto [pos, inserted] = cap_cache_.insert_or_assign(fh, std::move(entry));
    return pos->second.cred.get();
}

sim::Task<NfsResult<NasdNfsFh>>
NasdNfsClient::lookup(NasdNfsFh dir, std::string name, bool want_write)
{
    auto reply = co_await callFm<NasdNfsLookupReply>(
        kControlPayload + name.size(),
        [&] { return fm_.serveLookup(dir, name, want_write); });
    if (reply.status != NfsStatus::kOk)
        co_return util::Err{reply.status};

    // Cache the piggybacked capability.
    cacheCap(reply.fh, std::move(reply.capability), want_write);
    co_return reply.fh;
}

sim::Task<NfsResult<NasdNfsFh>>
NasdNfsClient::create(NasdNfsFh dir, std::string name)
{
    auto reply = co_await callFm<NasdNfsLookupReply>(
        kControlPayload + name.size(),
        [&] { return fm_.serveCreate(dir, name); });
    if (reply.status != NfsStatus::kOk)
        co_return util::Err{reply.status};
    cacheCap(reply.fh, std::move(reply.capability), true);
    co_return reply.fh;
}

sim::Task<NfsResult<NasdNfsFh>>
NasdNfsClient::mkdir(NasdNfsFh dir, std::string name)
{
    auto reply = co_await callFm<NasdNfsLookupReply>(
        kControlPayload + name.size(),
        [&] { return fm_.serveMkdir(dir, name); });
    if (reply.status != NfsStatus::kOk)
        co_return util::Err{reply.status};
    co_return reply.fh;
}

sim::Task<NfsResult<void>>
NasdNfsClient::remove(NasdNfsFh dir, std::string name)
{
    auto reply = co_await callFm<NasdNfsStatusReply>(
        kControlPayload + name.size(),
        [&] { return fm_.serveRemove(dir, name); });
    if (reply.status != NfsStatus::kOk)
        co_return util::Err{reply.status};
    co_return NfsResult<void>{};
}

sim::Task<NfsResult<std::vector<NasdDirEntry>>>
NasdNfsClient::readdir(NasdNfsFh dir)
{
    auto reply = co_await callFm<NasdNfsReaddirReply>(
        kControlPayload, [&] { return fm_.serveReaddir(dir); });
    if (reply.status != NfsStatus::kOk)
        co_return util::Err{reply.status};
    co_return std::move(reply.entries);
}

sim::Task<NfsResult<NfsAttr>>
NasdNfsClient::getattr(NasdNfsFh fh)
{
    auto cred = co_await capabilityFor(fh, false);
    if (!cred.ok())
        co_return util::Err{cred.error()};
    auto attrs = co_await drive_clients_[fh.drive]->getAttr(*cred.value());
    if (!attrs.ok() && staleCapability(attrs.error())) {
        // Stale capability: refresh once and retry.
        cap_cache_.erase(fh);
        auto fresh = co_await capabilityFor(fh, false);
        if (!fresh.ok())
            co_return util::Err{fresh.error()};
        attrs = co_await drive_clients_[fh.drive]->getAttr(*fresh.value());
    }
    if (!attrs.ok())
        co_return util::Err{fromNasdStatus(attrs.error())};
    co_return toNfsAttr(attrs.value());
}

sim::Task<NfsResult<void>>
NasdNfsClient::setattr(NasdNfsFh fh, std::uint32_t mode, std::uint32_t uid,
                       std::uint32_t gid)
{
    auto reply = co_await callFm<NasdNfsStatusReply>(
        kControlPayload,
        [&] { return fm_.serveSetPolicy(fh, mode, uid, gid); });
    if (reply.status != NfsStatus::kOk)
        co_return util::Err{reply.status};
    co_return NfsResult<void>{};
}

sim::Task<NfsResult<std::uint64_t>>
NasdNfsClient::readChunk(NasdNfsFh fh, std::uint64_t offset,
                         std::span<std::uint8_t> out)
{
    auto permit = co_await sim::scopedAcquire(net_.simulator(), window_);
    window_wait_ns_.add(permit.waitNs());
    auto cred = co_await capabilityFor(fh, false);
    if (!cred.ok())
        co_return util::Err{cred.error()};
    auto n = co_await drive_clients_[fh.drive]->read(*cred.value(), offset,
                                                     out);
    if (!n.ok() && staleCapability(n.error())) {
        cap_cache_.erase(fh);
        auto fresh = co_await capabilityFor(fh, false);
        if (fresh.ok())
            n = co_await drive_clients_[fh.drive]->read(*fresh.value(),
                                                        offset, out);
    }
    permit.release();
    if (!n.ok())
        co_return util::Err{fromNasdStatus(n.error())};
    co_return n.value();
}

sim::Task<NfsResult<std::uint64_t>>
NasdNfsClient::read(NasdNfsFh fh, std::uint64_t offset,
                    std::span<std::uint8_t> out)
{
    std::vector<sim::Task<NfsResult<std::uint64_t>>> chunks;
    std::uint64_t pos = 0;
    while (pos < out.size()) {
        const std::uint64_t n =
            std::min<std::uint64_t>(params_.rsize, out.size() - pos);
        chunks.push_back(readChunk(fh, offset + pos, out.subspan(pos, n)));
        pos += n;
    }
    auto results = co_await sim::parallelGather(net_.simulator(),
                                                std::move(chunks));
    std::uint64_t total = 0;
    for (auto &r : results) {
        if (!r.ok())
            co_return util::Err{r.error()};
        total += r.value();
    }
    co_return total;
}

sim::Task<NfsResult<void>>
NasdNfsClient::writeChunk(NasdNfsFh fh, std::uint64_t offset,
                          std::span<const std::uint8_t> d)
{
    auto permit = co_await sim::scopedAcquire(net_.simulator(), window_);
    window_wait_ns_.add(permit.waitNs());
    auto cred = co_await capabilityFor(fh, true);
    if (!cred.ok())
        co_return util::Err{cred.error()};
    auto wrote =
        co_await drive_clients_[fh.drive]->write(*cred.value(), offset, d);
    if (!wrote.ok() && staleCapability(wrote.error())) {
        cap_cache_.erase(fh);
        auto fresh = co_await capabilityFor(fh, true);
        if (fresh.ok()) {
            wrote = co_await drive_clients_[fh.drive]->write(*fresh.value(),
                                                             offset, d);
        }
    }
    permit.release();
    if (!wrote.ok())
        co_return util::Err{fromNasdStatus(wrote.error())};
    co_return NfsResult<void>{};
}

sim::Task<NfsResult<void>>
NasdNfsClient::write(NasdNfsFh fh, std::uint64_t offset,
                     std::span<const std::uint8_t> data)
{
    std::vector<sim::Task<NfsResult<void>>> chunks;
    std::uint64_t pos = 0;
    while (pos < data.size()) {
        const std::uint64_t n =
            std::min<std::uint64_t>(params_.wsize, data.size() - pos);
        chunks.push_back(writeChunk(fh, offset + pos,
                                    data.subspan(pos, n)));
        pos += n;
    }
    auto results = co_await sim::parallelGather(net_.simulator(),
                                                std::move(chunks));
    for (auto &r : results) {
        if (!r.ok())
            co_return util::Err{r.error()};
    }
    co_return NfsResult<void>{};
}

} // namespace nasd::fs
