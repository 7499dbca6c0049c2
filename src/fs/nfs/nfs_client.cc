#include "fs/nfs/nfs_client.h"

#include <algorithm>

#include "net/rpc.h"
#include "sim/sync.h"

namespace nasd::fs {

namespace {

constexpr std::uint64_t kControlPayload = 96; // handle + args + name

} // namespace

NfsClient::NfsClient(net::Network &net, net::NetNode &node,
                     NfsServer &server, NfsClientParams params)
    : net_(net), node_(node), server_(server), params_(params),
      window_(net.simulator(), params.window),
      window_wait_ns_(util::metrics().counter(node_.metricPrefix() +
                                              "/window_wait_ns"))
{}

sim::Task<NfsResult<NfsFileHandle>>
NfsClient::lookup(NfsFileHandle dir, std::string name)
{
    auto reply = co_await net::call<NfsLookupReply>(
        net_, node_, server_.node(), kControlPayload + name.size(),
        [&]() -> sim::Task<net::RpcReply<NfsLookupReply>> {
            auto r = co_await server_.serveLookup(dir, name);
            co_return net::RpcReply<NfsLookupReply>{std::move(r), 128};
        });
    if (reply.status != NfsStatus::kOk)
        co_return util::Err{reply.status};
    co_return reply.handle;
}

sim::Task<NfsResult<NfsAttr>>
NfsClient::getattr(NfsFileHandle fh)
{
    auto reply = co_await net::call<NfsAttrReply>(
        net_, node_, server_.node(), kControlPayload,
        [&]() -> sim::Task<net::RpcReply<NfsAttrReply>> {
            auto r = co_await server_.serveGetattr(fh);
            co_return net::RpcReply<NfsAttrReply>{r, 96};
        });
    if (reply.status != NfsStatus::kOk)
        co_return util::Err{reply.status};
    co_return reply.attrs;
}

sim::Task<NfsResult<NfsAttr>>
NfsClient::setattr(NfsFileHandle fh, std::uint32_t mode, std::uint32_t uid,
                   std::uint32_t gid)
{
    auto reply = co_await net::call<NfsAttrReply>(
        net_, node_, server_.node(), kControlPayload,
        [&]() -> sim::Task<net::RpcReply<NfsAttrReply>> {
            auto r = co_await server_.serveSetattr(fh, mode, uid, gid);
            co_return net::RpcReply<NfsAttrReply>{r, 96};
        });
    if (reply.status != NfsStatus::kOk)
        co_return util::Err{reply.status};
    co_return reply.attrs;
}

sim::Task<NfsResult<std::uint64_t>>
NfsClient::readChunk(NfsFileHandle fh, std::uint64_t offset,
                     std::span<std::uint8_t> out)
{
    auto permit = co_await sim::scopedAcquire(net_.simulator(), window_);
    window_wait_ns_.add(permit.waitNs());
    auto reply = co_await net::call<NfsReadReply>(
        net_, node_, server_.node(), kControlPayload,
        [&]() -> sim::Task<net::RpcReply<NfsReadReply>> {
            auto r = co_await server_.serveRead(fh, offset, out);
            co_return net::RpcReply<NfsReadReply>{r, r.count};
        });
    permit.release();
    if (reply.status != NfsStatus::kOk)
        co_return util::Err{reply.status};
    co_return reply.count;
}

sim::Task<NfsResult<std::uint64_t>>
NfsClient::read(NfsFileHandle fh, std::uint64_t offset,
                std::span<std::uint8_t> out)
{
    // Issue rsize-unit chunks with up to `window` outstanding.
    std::vector<sim::Task<NfsResult<std::uint64_t>>> chunks;
    std::uint64_t pos = 0;
    while (pos < out.size()) {
        const std::uint64_t n =
            std::min<std::uint64_t>(params_.rsize, out.size() - pos);
        chunks.push_back(readChunk(fh, offset + pos,
                                   out.subspan(pos, n)));
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
NfsClient::writeChunk(NfsFileHandle fh, std::uint64_t offset,
                      std::span<const std::uint8_t> data)
{
    auto permit = co_await sim::scopedAcquire(net_.simulator(), window_);
    window_wait_ns_.add(permit.waitNs());
    auto reply = co_await net::call<NfsWriteReply>(
        net_, node_, server_.node(), kControlPayload + data.size(),
        [&]() -> sim::Task<net::RpcReply<NfsWriteReply>> {
            auto r = co_await server_.serveWrite(fh, offset, data);
            co_return net::RpcReply<NfsWriteReply>{r, 96};
        });
    permit.release();
    if (reply.status != NfsStatus::kOk)
        co_return util::Err{reply.status};
    co_return NfsResult<void>{};
}

sim::Task<NfsResult<void>>
NfsClient::write(NfsFileHandle fh, std::uint64_t offset,
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

sim::Task<NfsResult<NfsFileHandle>>
NfsClient::create(NfsFileHandle dir, std::string name)
{
    auto reply = co_await net::call<NfsLookupReply>(
        net_, node_, server_.node(), kControlPayload + name.size(),
        [&]() -> sim::Task<net::RpcReply<NfsLookupReply>> {
            auto r = co_await server_.serveCreate(dir, name);
            co_return net::RpcReply<NfsLookupReply>{std::move(r), 128};
        });
    if (reply.status != NfsStatus::kOk)
        co_return util::Err{reply.status};
    co_return reply.handle;
}

sim::Task<NfsResult<NfsFileHandle>>
NfsClient::mkdir(NfsFileHandle dir, std::string name)
{
    auto reply = co_await net::call<NfsLookupReply>(
        net_, node_, server_.node(), kControlPayload + name.size(),
        [&]() -> sim::Task<net::RpcReply<NfsLookupReply>> {
            auto r = co_await server_.serveMkdir(dir, name);
            co_return net::RpcReply<NfsLookupReply>{std::move(r), 128};
        });
    if (reply.status != NfsStatus::kOk)
        co_return util::Err{reply.status};
    co_return reply.handle;
}

sim::Task<NfsResult<void>>
NfsClient::remove(NfsFileHandle dir, std::string name)
{
    auto reply = co_await net::call<NfsStatusReply>(
        net_, node_, server_.node(), kControlPayload + name.size(),
        [&]() -> sim::Task<net::RpcReply<NfsStatusReply>> {
            auto r = co_await server_.serveRemove(dir, name);
            co_return net::RpcReply<NfsStatusReply>{r, 16};
        });
    if (reply.status != NfsStatus::kOk)
        co_return util::Err{reply.status};
    co_return NfsResult<void>{};
}

sim::Task<NfsResult<std::vector<NfsDirEntryWire>>>
NfsClient::readdir(NfsFileHandle dir)
{
    auto reply = co_await net::call<NfsReaddirReply>(
        net_, node_, server_.node(), kControlPayload,
        [&]() -> sim::Task<net::RpcReply<NfsReaddirReply>> {
            auto r = co_await server_.serveReaddir(dir);
            const std::uint64_t payload = 32 * r.entries.size() + 16;
            co_return net::RpcReply<NfsReaddirReply>{std::move(r), payload};
        });
    if (reply.status != NfsStatus::kOk)
        co_return util::Err{reply.status};
    co_return std::move(reply.entries);
}

sim::Task<NfsResult<NfsFileHandle>>
NfsClient::resolve(std::uint32_t volume, std::string path)
{
    NfsFileHandle current = server_.rootHandle(volume);
    std::size_t pos = 0;
    while (pos < path.size()) {
        while (pos < path.size() && path[pos] == '/')
            ++pos;
        if (pos >= path.size())
            break;
        const std::size_t next = path.find('/', pos);
        const std::string part = path.substr(
            pos, next == std::string::npos ? path.size() - pos : next - pos);
        auto found = co_await lookup(current, part);
        if (!found.ok())
            co_return util::Err{found.error()};
        current = found.value();
        pos = next == std::string::npos ? path.size() : next;
    }
    co_return current;
}

} // namespace nasd::fs
