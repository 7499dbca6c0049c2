#include "fs/nfs/nasd_nfs.h"

#include <algorithm>
#include <functional>

#include "net/rpc.h"
#include "sim/sync.h"
#include "util/codec.h"
#include "util/logging.h"

namespace nasd::fs {

namespace {

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
      ns_(net, node, std::move(drives), partition,
          InitialAttrs{encodePolicyAttrs(0644, 0, 0, false),
                       encodePolicyAttrs(0755, 0, 0, true)})
{}

Capability
NasdNfsFileManager::mintCapability(const NasdNfsFh &fh, std::uint8_t rights)
{
    return ns_.mint(fh, rights, ~0ull, sim_.now() + kCapLifetimeNs);
}

sim::Task<NfsResult<std::vector<NasdDirEntry>>>
NasdNfsFileManager::loadDirectory(NasdNfsFh dir)
{
    // The FM is the only directory writer: serve from its cache. (A
    // client's handle is checked by ns_ or, for revoke, by serveRevoke.)
    const auto cached = dir_cache_.find(dir);
    if (cached != dir_cache_.end())
        co_return cached->second;
    auto entries = co_await ns_.load(dir);
    if (entries.ok())
        dir_cache_[dir] = entries.value();
    co_return entries;
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
    auto attrs = co_await ns_.attributes(it->fh);
    if (attrs.ok())
        reply.attrs = toNfsAttr(attrs.value());

    reply.capability = mintCapability(
        it->fh, kRightRead | kRightGetAttr | (want_write ? kRightWrite : 0));
    co_return reply;
}

sim::Task<NasdNfsLookupReply>
NasdNfsFileManager::serveCreate(NasdNfsFh dir, std::string name,
                                bool directory)
{
    NasdNfsLookupReply reply;
    const auto mutation = co_await ns_.serializeMutation(dir);
    auto entries = co_await loadDirectory(dir);
    if (!entries.ok()) {
        reply.status = entries.error();
        co_return reply;
    }
    auto made =
        co_await ns_.create(dir, entries.value(), std::move(name), directory);
    if (!made.ok()) {
        // The drive's copy may not be the cached one: read it afresh.
        dir_cache_.erase(dir);
        reply.status = made.error();
        co_return reply;
    }
    dir_cache_[dir] = std::move(entries.value());
    reply.fh = made.value();
    reply.attrs.is_directory = directory;
    reply.attrs.mode = directory ? 0755 : 0644;
    reply.capability = mintCapability(
        reply.fh, kRightRead | kRightWrite | kRightGetAttr);
    co_return reply;
}

sim::Task<NasdNfsStatusReply>
NasdNfsFileManager::serveRemove(NasdNfsFh dir, std::string name)
{
    NasdNfsStatusReply reply;
    const auto mutation = co_await ns_.serializeMutation(dir);
    auto entries = co_await loadDirectory(dir);
    if (!entries.ok()) {
        reply.status = entries.error();
        co_return reply;
    }
    const auto out =
        co_await ns_.remove(dir, entries.value(), std::move(name));
    if (out.removed)
        dir_cache_.erase(*out.removed);
    if (out.status == NfsStatus::kOk)
        dir_cache_[dir] = std::move(entries.value());
    else
        dir_cache_.erase(dir); // read the drive's copy afresh
    reply.status = out.status;
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
    auto attrs = co_await ns_.attributes(fh);
    if (!attrs.ok()) {
        reply.status = attrs.error();
        co_return reply;
    }
    SetAttrRequest req;
    req.fs_specific = encodePolicyAttrs(
        mode, uid, gid, toNfsAttr(attrs.value()).is_directory);
    auto cred = ns_.credential(fh);
    auto set = co_await ns_.drives().client(fh.drive).setAttr(cred, req);
    if (!set.ok())
        reply.status = fromNasdStatus(set.error());
    co_return reply;
}

sim::Task<NasdNfsLookupReply>
NasdNfsFileManager::serveGetCap(NasdNfsFh fh, bool want_write)
{
    NasdNfsLookupReply reply;
    reply.fh = fh;
    auto attrs = co_await ns_.attributes(fh);
    if (!attrs.ok()) {
        reply.status = attrs.error();
        co_return reply;
    }
    reply.attrs = toNfsAttr(attrs.value());
    reply.capability = mintCapability(
        fh, kRightRead | kRightGetAttr | (want_write ? kRightWrite : 0));
    co_return reply;
}

sim::Task<NasdNfsStatusReply>
NasdNfsFileManager::serveRevoke(NasdNfsFh fh)
{
    NasdNfsStatusReply reply;
    if (fh.drive >= ns_.drives().size()) {
        reply.status = NfsStatus::kStale;
        co_return reply;
    }
    SetAttrRequest req;
    req.bump_version = true;
    auto cred = ns_.credential(fh);
    auto set = co_await ns_.drives().client(fh.drive).setAttr(cred, req);
    if (!set.ok()) {
        reply.status = fromNasdStatus(set.error());
        co_return reply;
    }
    ns_.setVersion(fh, set.value().version);
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
        [&] { return fm_.serveCreate(dir, name, false); });
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
        [&] { return fm_.serveCreate(dir, name, true); });
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
