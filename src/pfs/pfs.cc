#include "pfs/pfs.h"

#include "net/rpc.h"
#include "util/flight_recorder.h"
#include "util/logging.h"

namespace nasd::pfs {

namespace {

constexpr std::uint64_t kControlPayload = 96;

} // namespace

const char *
toString(PfsStatus status)
{
    switch (status) {
      case PfsStatus::kOk:
        return "ok";
      case PfsStatus::kNoSuchFile:
        return "no-such-file";
      case PfsStatus::kExists:
        return "exists";
      case PfsStatus::kStorageError:
        return "storage-error";
    }
    return "unknown";
}

sim::Task<PfsOpenReply>
PfsManager::serveOpen(std::string name, bool create,
                      std::uint64_t stripe_unit_bytes,
                      std::uint32_t stripe_count)
{
    PfsOpenReply reply;
    const auto it = names_.find(name);
    if (it != names_.end()) {
        reply.object = it->second;
        co_return reply;
    }
    if (!create) {
        reply.status = PfsStatus::kNoSuchFile;
        co_return reply;
    }
    auto made =
        co_await storage_.serveCreate(stripe_unit_bytes, stripe_count, 0);
    if (made.status != cheops::CheopsStatus::kOk) {
        reply.status = PfsStatus::kStorageError;
        co_return reply;
    }
    names_[name] = made.id;
    reply.object = made.id;
    reply.created = true;
    co_return reply;
}

sim::Task<PfsStatusReply>
PfsManager::serveUnlink(std::string name)
{
    PfsStatusReply reply;
    const auto it = names_.find(name);
    if (it == names_.end()) {
        reply.status = PfsStatus::kNoSuchFile;
        co_return reply;
    }
    // Unnamed before the remove yields: a second unlink of the name
    // finds nothing instead of erasing through a stale iterator.
    const cheops::LogicalObjectId id = it->second;
    names_.erase(it);
    auto removed = co_await storage_.serveRemove(id);
    if (removed.status != cheops::CheopsStatus::kOk)
        reply.status = PfsStatus::kStorageError;
    co_return reply;
}

PfsClient::PfsClient(net::Network &net, net::NetNode &node,
                     PfsManager &manager, std::vector<NasdDrive *> drives)
    : net_(net), node_(node), manager_(manager),
      storage_client_(net, node, manager.storage(), std::move(drives))
{}

sim::Task<PfsResult<PfsHandle>>
PfsClient::open(std::string name, bool create, bool want_write,
                std::uint64_t stripe_unit_bytes, std::uint32_t stripe_count)
{
    auto reply = co_await net::call<PfsOpenReply>(
        net_, node_, manager_.node(), kControlPayload + name.size(),
        [&]() -> sim::Task<net::RpcReply<PfsOpenReply>> {
            auto r = co_await manager_.serveOpen(name, create,
                                                 stripe_unit_bytes,
                                                 stripe_count);
            co_return net::RpcReply<PfsOpenReply>{r, 24};
        });
    if (reply.status != PfsStatus::kOk)
        co_return util::Err{reply.status};

    // Fetch the layout map + capability set now, so data operations
    // need no further manager involvement.
    auto opened = co_await storage_client_.open(reply.object, want_write);
    if (!opened.ok())
        co_return util::Err{PfsStatus::kStorageError};
    co_return PfsHandle{reply.object, want_write};
}

sim::Task<PfsResult<std::uint64_t>>
PfsClient::read(PfsHandle handle, std::uint64_t offset,
                std::span<std::uint8_t> out)
{
    // Each application-level read is one trace root: everything below
    // (Cheops translation, per-drive RPCs, drive ops) hangs off it.
    util::TraceContext root = util::flightRecorder().mintTrace();
    util::ScopedSpan span("pfs/read", node_.name(),
                          static_cast<std::uint64_t>(net_.simulator().now()),
                          root);
    node_.flightJournal().record(net_.simulator().now(),
                                 util::FrEvent::kClientOp, root.trace_id,
                                 offset, out.size(), "pfs_read");
    auto n = co_await storage_client_.read(handle.object, offset, out, root);
    span.endAt(static_cast<std::uint64_t>(net_.simulator().now()));
    if (!n.ok())
        co_return util::Err{PfsStatus::kStorageError};
    co_return n.value().bytes;
}

sim::Task<PfsResult<void>>
PfsClient::write(PfsHandle handle, std::uint64_t offset,
                 std::span<const std::uint8_t> data)
{
    NASD_ASSERT(handle.writable, "write on a read-only PFS handle");
    util::TraceContext root = util::flightRecorder().mintTrace();
    util::ScopedSpan span("pfs/write", node_.name(),
                          static_cast<std::uint64_t>(net_.simulator().now()),
                          root);
    node_.flightJournal().record(net_.simulator().now(),
                                 util::FrEvent::kClientOp, root.trace_id,
                                 offset, data.size(), "pfs_write");
    auto wrote =
        co_await storage_client_.write(handle.object, offset, data, root);
    span.endAt(static_cast<std::uint64_t>(net_.simulator().now()));
    if (!wrote.ok())
        co_return util::Err{PfsStatus::kStorageError};
    co_return PfsResult<void>{};
}

sim::Task<PfsResult<std::uint64_t>>
PfsClient::size(PfsHandle handle)
{
    auto s = co_await storage_client_.size(handle.object);
    if (!s.ok())
        co_return util::Err{PfsStatus::kStorageError};
    co_return s.value();
}

sim::Task<PfsResult<void>>
PfsClient::unlink(std::string name)
{
    auto reply = co_await net::call<PfsStatusReply>(
        net_, node_, manager_.node(), kControlPayload + name.size(),
        [&]() -> sim::Task<net::RpcReply<PfsStatusReply>> {
            auto r = co_await manager_.serveUnlink(name);
            co_return net::RpcReply<PfsStatusReply>{r, 16};
        });
    if (reply.status != PfsStatus::kOk)
        co_return util::Err{reply.status};
    co_return PfsResult<void>{};
}

} // namespace nasd::pfs
