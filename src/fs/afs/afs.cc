#include "fs/afs/afs.h"

#include <algorithm>

#include "net/rpc.h"
#include "util/logging.h"

namespace nasd::fs {

// ------------------------------------------------------------ file manager

AfsFileManager::AfsFileManager(sim::Simulator &sim, net::Network &net,
                               net::NetNode &node,
                               std::vector<NasdDrive *> drives,
                               PartitionId partition,
                               std::uint64_t volume_quota_bytes)
    : sim_(sim), net_(net), node_(node),
      ns_(net, node, std::move(drives), partition, InitialAttrs{}),
      volume_quota_(volume_quota_bytes),
      callbacks_broken_(util::metrics().counter(
          util::metrics().uniquePrefix(node.name() + "/afs_fm") +
          "/callbacks_broken"))
{}

void
AfsFileManager::registerClient(AfsClient *client)
{
    clients_[client->id()] = client;
}

void
AfsFileManager::unregisterClient(AfsClient *client)
{
    const auto it = clients_.find(client->id());
    if (it != clients_.end() && it->second == client)
        clients_.erase(it);
}

sim::Task<void>
AfsFileManager::breakCallbacks(AfsFid fid, std::uint32_t except)
{
    const auto entry = files_.find(fid);
    if (entry == files_.end())
        co_return;
    std::vector<std::uint32_t> holders(entry->second.callbacks.begin(),
                                       entry->second.callbacks.end());
    entry->second.callbacks.clear();
    for (const std::uint32_t holder : holders) {
        if (holder == except)
            continue;
        const auto it = clients_.find(holder);
        if (it == clients_.end())
            continue;
        // The break is a small message from FM to client; the client
        // may be gone by the time it arrives.
        co_await net::sendMessage(net_, node_, it->second->node(), 64);
        const auto arrived = clients_.find(holder);
        if (arrived == clients_.end())
            continue;
        arrived->second->onCallbackBreak(fid);
        callbacks_broken_.add(1);
    }
}

sim::Task<AfsFetchCapReply>
AfsFileManager::serveFetchCap(AfsFid fid, bool want_write,
                              std::uint32_t client_id,
                              std::uint64_t size_hint)
{
    AfsFetchCapReply reply;
    // "The issuing of new callbacks on a file with an outstanding
    // write capability are blocked": wait for the writer to finish or
    // its capability to expire. The entry is looked up afresh after
    // every suspension, since serveRemove may erase it meanwhile.
    for (auto it = files_.find(fid);
         it != files_.end() && it->second.write_holder != 0 &&
         it->second.write_holder != client_id;
         it = files_.find(fid)) {
        FileState &state = it->second;
        if (sim_.now() >= state.write_expiry_ns) {
            // Expired: settle as if relinquished.
            co_await serveReleaseCap(fid, state.write_holder);
            break;
        }
        if (!state.writer_done)
            state.writer_done = std::make_unique<sim::Gate>(sim_);
        co_await state.writer_done->wait();
    }
    if (const auto it = files_.find(fid);
        it != files_.end() && it->second.write_holder == client_id) {
        // The current holder is re-fetching (capability refresh after
        // expiry): settle the stale grant so we don't escrow twice.
        co_await serveReleaseCap(fid, client_id);
    }

    // Only an object that exists gets an entry (a fid naming no drive
    // gets kStale here). A remove that settled while the attributes
    // were on their way back may have taken the object: ask again
    // until no remove overlapped the fetch.
    auto removals = removals_;
    auto attrs = co_await ns_.attributes(fid);
    while (attrs.ok() && removals != removals_) {
        removals = removals_;
        attrs = co_await ns_.attributes(fid);
    }
    if (!attrs.ok()) {
        reply.status = attrs.error();
        co_return reply;
    }
    reply.attrs.size = attrs.value().size;
    reply.attrs.mtime_ns = attrs.value().modify_time;

    if (!want_write) {
        // Establish the callback promise and hand out a read cap.
        files_[fid].callbacks.insert(client_id);
        reply.capability = ns_.mint(fid, kRightRead | kRightGetAttr);
        co_return reply;
    }

    // Write capability: break callbacks first (holders of stale copies
    // must be told before a write can land), then escrow quota through
    // the capability's byte range.
    files_.try_emplace(fid);
    co_await breakCallbacks(fid, client_id);
    const auto it = files_.find(fid);
    if (it == files_.end()) {
        reply.status = NfsStatus::kNoEnt; // removed meanwhile
        co_return reply;
    }
    FileState &state = it->second;

    const std::uint64_t settled = state.charged_bytes;
    // Escrow enough space for the client's intended store (it states
    // how large the file may become), with a floor of kEscrowBytes of
    // headroom past the current size.
    const std::uint64_t escrow_end =
        std::max(attrs.value().size + kEscrowBytes, size_hint);
    const std::uint64_t escrow_extra =
        escrow_end > settled ? escrow_end - settled : 0;
    if (quota_used_ + escrow_extra > volume_quota_) {
        reply.status = NfsStatus::kNoSpace;
        co_return reply;
    }
    quota_used_ += escrow_extra;
    state.escrowed_bytes = escrow_extra;
    state.write_holder = client_id;
    state.write_expiry_ns = sim_.now() + write_cap_lifetime_ns_;
    state.writer_done = std::make_unique<sim::Gate>(sim_);

    reply.capability =
        ns_.mint(fid, kRightRead | kRightWrite | kRightGetAttr, escrow_end,
                 state.write_expiry_ns);
    co_return reply;
}

sim::Task<AfsStatusReply>
AfsFileManager::serveReleaseCap(AfsFid fid, std::uint32_t client_id)
{
    AfsStatusReply reply;
    if (fid.drive >= ns_.drives().size()) {
        reply.status = NfsStatus::kStale;
        co_return reply;
    }
    if (const auto it = files_.find(fid);
        it == files_.end() || it->second.write_holder != client_id) {
        co_return reply; // nothing to settle
    }

    // Examine the object to learn its final size and settle the books:
    // this is exactly the escrow mechanism the paper describes.
    auto attrs = co_await ns_.attributes(fid);
    const auto it = files_.find(fid);
    if (it == files_.end() || it->second.write_holder != client_id)
        co_return reply; // removed (and settled) meanwhile
    FileState &state = it->second;
    const std::uint64_t new_size =
        attrs.ok() ? attrs.value().size : state.charged_bytes;

    quota_used_ -= state.escrowed_bytes;
    if (new_size > state.charged_bytes) {
        quota_used_ += new_size - state.charged_bytes;
    } else {
        quota_used_ -= state.charged_bytes - new_size;
    }
    state.charged_bytes = new_size;
    state.escrowed_bytes = 0;
    state.write_holder = 0;
    if (state.writer_done)
        state.writer_done->open();
    state.writer_done.reset();
    co_return reply;
}

sim::Task<AfsCreateReply>
AfsFileManager::serveCreate(AfsFid dir, std::string name, bool directory)
{
    AfsCreateReply reply;
    auto mutation = co_await ns_.serializeMutation(dir);
    auto entries = co_await ns_.load(dir);
    if (!entries.ok()) {
        reply.status = entries.error();
        co_return reply;
    }
    auto made =
        co_await ns_.create(dir, entries.value(), std::move(name), directory);
    mutation.release();
    if (!made.ok()) {
        reply.status = made.error();
        co_return reply;
    }
    reply.fid = made.value();
    // The directory changed: anyone caching it must hear about it.
    co_await breakCallbacks(dir, 0);
    co_return reply;
}

sim::Task<AfsStatusReply>
AfsFileManager::serveRemove(AfsFid dir, std::string name)
{
    AfsStatusReply reply;
    auto mutation = co_await ns_.serializeMutation(dir);
    auto entries = co_await ns_.load(dir);
    if (!entries.ok()) {
        reply.status = entries.error();
        co_return reply;
    }
    const auto out =
        co_await ns_.remove(dir, entries.value(), std::move(name));
    mutation.release();
    reply.status = out.status;
    if (!out.removed)
        co_return reply;
    const AfsFid victim = *out.removed;
    ++removals_;
    // Settle any quota charge for the removed file, and release every
    // fetch blocked behind its writer: each finds the object gone.
    if (const auto entry = files_.find(victim); entry != files_.end()) {
        FileState &state = entry->second;
        quota_used_ -= state.charged_bytes + state.escrowed_bytes;
        state.charged_bytes = 0;
        state.escrowed_bytes = 0;
        state.write_holder = 0;
        if (state.writer_done)
            state.writer_done->open();
    }
    co_await breakCallbacks(victim, 0);
    files_.erase(victim);
    if (reply.status == NfsStatus::kOk)
        co_await breakCallbacks(dir, 0);
    co_return reply;
}

// ----------------------------------------------------------------- client

AfsClient::AfsClient(net::Network &net, net::NetNode &node,
                     AfsFileManager &fm, std::vector<NasdDrive *> drives,
                     std::uint32_t client_id)
    : net_(net), node_(node), fm_(fm), id_(client_id),
      metric_prefix_(util::metrics().uniquePrefix(node.name() + "/afs")),
      cache_hits_(util::metrics().counter(metric_prefix_ + "/cache_hits")),
      cache_misses_(util::metrics().counter(metric_prefix_ + "/cache_misses"))
{
    NASD_ASSERT(client_id != 0, "client id 0 is reserved");
    for (auto *drive : drives) {
        drive_clients_.push_back(
            std::make_unique<NasdClient>(net, node_, *drive));
    }
    fm.registerClient(this);
}

AfsClient::~AfsClient()
{
    fm_.unregisterClient(this);
}

void
AfsClient::onCallbackBreak(AfsFid fid)
{
    const auto it = cache_.find(fid);
    if (it != cache_.end())
        it->second.valid = false;
}

sim::Task<AfsFetchCapReply>
AfsClient::fetchCap(AfsFid fid, bool want_write, std::uint64_t size_hint)
{
    // Explicit RPC to obtain the capability (no piggybacking in AFS).
    co_return co_await net::call<AfsFetchCapReply>(
        net_, node_, fm_.node(), kControlPayload,
        [&]() -> sim::Task<net::RpcReply<AfsFetchCapReply>> {
            auto r = co_await fm_.serveFetchCap(fid, want_write, id_,
                                                size_hint);
            co_return net::RpcReply<AfsFetchCapReply>{std::move(r), 256};
        });
}

sim::Task<NfsResult<AfsClient::CachedFile *>>
AfsClient::fetchFile(AfsFid fid)
{
    if (fid.drive >= drive_clients_.size())
        co_return util::Err{NfsStatus::kStale};
    auto &entry = cache_[fid];
    if (entry.valid) {
        cache_hits_.add(1);
        co_return &entry;
    }
    cache_misses_.add(1);

    auto reply = co_await fetchCap(fid, false, 0);
    if (reply.status != NfsStatus::kOk)
        co_return util::Err{reply.status};

    // Whole-file fetch straight from the drive.
    CredentialFactory cred(reply.capability);
    entry.data.clear();
    if (reply.attrs.size > 0) {
        auto data = co_await drive_clients_[fid.drive]->read(
            cred, 0, reply.attrs.size);
        if (!data.ok() && data.error() == NasdStatus::kExpiredCapability) {
            // The capability aged out between the FM round trip and the
            // drive read (long queueing, or a deliberately short
            // lifetime). Refresh once, then fail honestly.
            auto again = co_await fetchCap(fid, false, 0);
            if (again.status != NfsStatus::kOk)
                co_return util::Err{again.status};
            cred.rebind(again.capability);
            data = co_await drive_clients_[fid.drive]->read(
                cred, 0, again.attrs.size);
        }
        if (!data.ok())
            co_return util::Err{fromNasdStatus(data.error())};
        entry.data = std::move(data.value());
    }
    entry.valid = true;
    co_return &entry;
}

sim::Task<NfsResult<AfsFid>>
AfsClient::lookup(AfsFid dir, std::string name)
{
    // AFS clients parse directories locally.
    const auto entries = co_await readdir(dir);
    if (!entries.ok())
        co_return util::Err{entries.error()};
    const auto it =
        std::ranges::find(entries.value(), name, &NasdDirEntry::name);
    if (it == entries.value().end())
        co_return util::Err{NfsStatus::kNoEnt};
    co_return it->fh;
}

sim::Task<NfsResult<std::vector<NasdDirEntry>>>
AfsClient::readdir(AfsFid dir)
{
    auto cached = co_await fetchFile(dir);
    if (!cached.ok())
        co_return util::Err{cached.error()};
    co_return decodeDirectory(
        cached.value()->data,
        static_cast<std::uint32_t>(drive_clients_.size()));
}

sim::Task<NfsResult<std::uint64_t>>
AfsClient::read(AfsFid fid, std::uint64_t offset,
                std::span<std::uint8_t> out)
{
    auto cached = co_await fetchFile(fid);
    if (!cached.ok())
        co_return util::Err{cached.error()};
    const auto &data = cached.value()->data;
    if (offset >= data.size())
        co_return std::uint64_t{0};
    const std::uint64_t n =
        std::min<std::uint64_t>(out.size(), data.size() - offset);
    std::copy(data.begin() + static_cast<std::ptrdiff_t>(offset),
              data.begin() + static_cast<std::ptrdiff_t>(offset + n),
              out.begin());
    co_return n;
}

sim::Task<NfsResult<void>>
AfsClient::write(AfsFid fid, std::uint64_t offset,
                 std::span<const std::uint8_t> data)
{
    if (fid.drive >= drive_clients_.size())
        co_return util::Err{NfsStatus::kStale};
    // Obtain the write capability (this breaks other clients'
    // callbacks and escrows quota).
    auto reply = co_await fetchCap(fid, true, offset + data.size());
    if (reply.status != NfsStatus::kOk)
        co_return util::Err{reply.status};

    CredentialFactory cred(reply.capability);
    auto wrote =
        co_await drive_clients_[fid.drive]->write(cred, offset, data);
    if (!wrote.ok() && wrote.error() == NasdStatus::kExpiredCapability) {
        // The write capability expired mid-flight (e.g. the drive was
        // unreachable past the cap lifetime). Refresh once — the FM
        // settles the stale grant and re-escrows — then retry before
        // relinquishing.
        auto again = co_await fetchCap(fid, true, offset + data.size());
        if (again.status == NfsStatus::kOk) {
            cred.rebind(again.capability);
            wrote = co_await drive_clients_[fid.drive]->write(cred, offset,
                                                              data);
        }
    }

    // Update the local whole-file copy.
    auto &entry = cache_[fid];
    if (entry.valid) {
        if (entry.data.size() < offset + data.size())
            entry.data.resize(offset + data.size());
        std::copy(data.begin(), data.end(),
                  entry.data.begin() + static_cast<std::ptrdiff_t>(offset));
    }

    // Relinquish so the FM can settle quota and unblock readers.
    auto released = co_await net::call<AfsStatusReply>(
        net_, node_, fm_.node(), kControlPayload,
        [&]() -> sim::Task<net::RpcReply<AfsStatusReply>> {
            auto r = co_await fm_.serveReleaseCap(fid, id_);
            co_return net::RpcReply<AfsStatusReply>{r, 16};
        });
    (void)released;

    if (!wrote.ok())
        co_return util::Err{fromNasdStatus(wrote.error())};
    co_return NfsResult<void>{};
}

sim::Task<NfsResult<AfsFid>>
AfsClient::create(AfsFid dir, std::string name)
{
    return createEntry(dir, std::move(name), false);
}

sim::Task<NfsResult<AfsFid>>
AfsClient::mkdir(AfsFid dir, std::string name)
{
    return createEntry(dir, std::move(name), true);
}

sim::Task<NfsResult<AfsFid>>
AfsClient::createEntry(AfsFid dir, std::string name, bool directory)
{
    auto reply = co_await net::call<AfsCreateReply>(
        net_, node_, fm_.node(), kControlPayload + name.size(),
        [&]() -> sim::Task<net::RpcReply<AfsCreateReply>> {
            auto r = co_await fm_.serveCreate(dir, name, directory);
            co_return net::RpcReply<AfsCreateReply>{r, 32};
        });
    if (reply.status != NfsStatus::kOk)
        co_return util::Err{reply.status};
    co_return reply.fid;
}

sim::Task<NfsResult<void>>
AfsClient::remove(AfsFid dir, std::string name)
{
    auto reply = co_await net::call<AfsStatusReply>(
        net_, node_, fm_.node(), kControlPayload + name.size(),
        [&]() -> sim::Task<net::RpcReply<AfsStatusReply>> {
            auto r = co_await fm_.serveRemove(dir, name);
            co_return net::RpcReply<AfsStatusReply>{r, 16};
        });
    if (reply.status != NfsStatus::kOk)
        co_return util::Err{reply.status};
    co_return NfsResult<void>{};
}

} // namespace nasd::fs
