#include "fs/nfs/nfs_server.h"

#include "util/logging.h"

namespace nasd::fs {

const char *
toString(NfsStatus status)
{
    switch (status) {
      case NfsStatus::kOk:
        return "ok";
      case NfsStatus::kNoEnt:
        return "no-entry";
      case NfsStatus::kExist:
        return "exists";
      case NfsStatus::kNotDir:
        return "not-directory";
      case NfsStatus::kIsDir:
        return "is-directory";
      case NfsStatus::kNotEmpty:
        return "not-empty";
      case NfsStatus::kNoSpace:
        return "no-space";
      case NfsStatus::kStale:
        return "stale-handle";
      case NfsStatus::kAccess:
        return "access-denied";
      case NfsStatus::kTooBig:
        return "too-big";
      case NfsStatus::kIoError:
        return "io-error";
    }
    return "unknown";
}

NfsStatus
fromFsStatus(FsStatus status)
{
    switch (status) {
      case FsStatus::kOk:
        return NfsStatus::kOk;
      case FsStatus::kNoSuchFile:
        return NfsStatus::kNoEnt;
      case FsStatus::kExists:
        return NfsStatus::kExist;
      case FsStatus::kNotDirectory:
        return NfsStatus::kNotDir;
      case FsStatus::kIsDirectory:
        return NfsStatus::kIsDir;
      case FsStatus::kNoSpace:
        return NfsStatus::kNoSpace;
      case FsStatus::kNameTooLong:
        return NfsStatus::kTooBig;
      case FsStatus::kDirectoryNotEmpty:
        return NfsStatus::kNotEmpty;
      case FsStatus::kFileTooBig:
        return NfsStatus::kTooBig;
    }
    return NfsStatus::kIoError;
}

std::uint32_t
NfsServer::addVolume(FfsFileSystem &fs)
{
    volumes_.push_back(&fs);
    return static_cast<std::uint32_t>(volumes_.size() - 1);
}

NfsFileHandle
NfsServer::rootHandle(std::uint32_t volume) const
{
    NASD_ASSERT(volume < volumes_.size());
    return NfsFileHandle{volume, kRootInode};
}

util::Result<FfsFileSystem *, FsStatus>
NfsServer::volumeOf(const NfsFileHandle &fh)
{
    if (fh.volume >= volumes_.size())
        return util::Err{FsStatus::kNoSuchFile};
    return volumes_[fh.volume];
}

NfsAttr
NfsServer::toAttr(const FileStat &st)
{
    NfsAttr attr;
    attr.is_directory = st.is_directory;
    attr.size = st.size;
    attr.mode = st.mode;
    attr.uid = st.uid;
    attr.gid = st.gid;
    attr.mtime_ns = st.mtime_ns;
    attr.ctime_ns = st.ctime_ns;
    return attr;
}

sim::Task<NfsLookupReply>
NfsServer::serveLookup(NfsFileHandle dir, std::string name)
{
    NfsLookupReply reply;
    auto vol = volumeOf(dir);
    if (!vol.ok()) {
        reply.status = NfsStatus::kStale;
        co_return reply;
    }
    auto found = co_await vol.value()->lookup(dir.ino, name);
    if (!found.ok()) {
        reply.status = fromFsStatus(found.error());
        co_return reply;
    }
    reply.handle = NfsFileHandle{dir.volume, found.value()};
    auto st = co_await vol.value()->stat(found.value());
    if (st.ok())
        reply.attrs = toAttr(st.value());
    ops_served_.add(1);
    co_return reply;
}

sim::Task<NfsAttrReply>
NfsServer::serveGetattr(NfsFileHandle fh)
{
    NfsAttrReply reply;
    auto vol = volumeOf(fh);
    if (!vol.ok()) {
        reply.status = NfsStatus::kStale;
        co_return reply;
    }
    auto st = co_await vol.value()->stat(fh.ino);
    if (!st.ok()) {
        reply.status = fromFsStatus(st.error());
        co_return reply;
    }
    reply.attrs = toAttr(st.value());
    ops_served_.add(1);
    co_return reply;
}

sim::Task<NfsAttrReply>
NfsServer::serveSetattr(NfsFileHandle fh, std::uint32_t mode,
                        std::uint32_t uid, std::uint32_t gid)
{
    NfsAttrReply reply;
    auto vol = volumeOf(fh);
    if (!vol.ok()) {
        reply.status = NfsStatus::kStale;
        co_return reply;
    }
    auto set = co_await vol.value()->setMode(fh.ino, mode, uid, gid);
    if (!set.ok()) {
        reply.status = fromFsStatus(set.error());
        co_return reply;
    }
    auto st = co_await vol.value()->stat(fh.ino);
    if (st.ok())
        reply.attrs = toAttr(st.value());
    ops_served_.add(1);
    co_return reply;
}

sim::Task<NfsReadReply>
NfsServer::serveRead(NfsFileHandle fh, std::uint64_t offset,
                     std::span<std::uint8_t> out)
{
    NfsReadReply reply;
    auto vol = volumeOf(fh);
    if (!vol.ok()) {
        reply.status = NfsStatus::kStale;
        co_return reply;
    }
    auto n = co_await vol.value()->read(fh.ino, offset, out);
    if (!n.ok()) {
        reply.status = fromFsStatus(n.error());
        co_return reply;
    }
    reply.count = n.value();
    reply.eof = n.value() < out.size();
    ops_served_.add(1);
    co_return reply;
}

sim::Task<NfsWriteReply>
NfsServer::serveWrite(NfsFileHandle fh, std::uint64_t offset,
                      std::span<const std::uint8_t> data)
{
    NfsWriteReply reply;
    auto vol = volumeOf(fh);
    if (!vol.ok()) {
        reply.status = NfsStatus::kStale;
        co_return reply;
    }
    auto w = co_await vol.value()->write(fh.ino, offset, data);
    if (!w.ok()) {
        reply.status = fromFsStatus(w.error());
        co_return reply;
    }
    auto st = co_await vol.value()->stat(fh.ino);
    if (st.ok())
        reply.attrs = toAttr(st.value());
    ops_served_.add(1);
    co_return reply;
}

sim::Task<NfsLookupReply>
NfsServer::serveCreate(NfsFileHandle dir, std::string name)
{
    NfsLookupReply reply;
    auto vol = volumeOf(dir);
    if (!vol.ok()) {
        reply.status = NfsStatus::kStale;
        co_return reply;
    }
    auto made = co_await vol.value()->create(dir.ino, name);
    if (!made.ok()) {
        reply.status = fromFsStatus(made.error());
        co_return reply;
    }
    reply.handle = NfsFileHandle{dir.volume, made.value()};
    auto st = co_await vol.value()->stat(made.value());
    if (st.ok())
        reply.attrs = toAttr(st.value());
    ops_served_.add(1);
    co_return reply;
}

sim::Task<NfsLookupReply>
NfsServer::serveMkdir(NfsFileHandle dir, std::string name)
{
    NfsLookupReply reply;
    auto vol = volumeOf(dir);
    if (!vol.ok()) {
        reply.status = NfsStatus::kStale;
        co_return reply;
    }
    auto made = co_await vol.value()->mkdir(dir.ino, name);
    if (!made.ok()) {
        reply.status = fromFsStatus(made.error());
        co_return reply;
    }
    reply.handle = NfsFileHandle{dir.volume, made.value()};
    auto st = co_await vol.value()->stat(made.value());
    if (st.ok())
        reply.attrs = toAttr(st.value());
    ops_served_.add(1);
    co_return reply;
}

sim::Task<NfsStatusReply>
NfsServer::serveRemove(NfsFileHandle dir, std::string name)
{
    NfsStatusReply reply;
    auto vol = volumeOf(dir);
    if (!vol.ok()) {
        reply.status = NfsStatus::kStale;
        co_return reply;
    }
    auto removed = co_await vol.value()->unlink(dir.ino, name);
    if (!removed.ok()) {
        reply.status = fromFsStatus(removed.error());
        co_return reply;
    }
    ops_served_.add(1);
    co_return reply;
}

sim::Task<NfsReaddirReply>
NfsServer::serveReaddir(NfsFileHandle dir)
{
    NfsReaddirReply reply;
    auto vol = volumeOf(dir);
    if (!vol.ok()) {
        reply.status = NfsStatus::kStale;
        co_return reply;
    }
    auto entries = co_await vol.value()->readdir(dir.ino);
    if (!entries.ok()) {
        reply.status = fromFsStatus(entries.error());
        co_return reply;
    }
    for (const auto &e : entries.value()) {
        reply.entries.push_back(NfsDirEntryWire{
            e.name, NfsFileHandle{dir.volume, e.ino}, e.is_directory});
    }
    ops_served_.add(1);
    co_return reply;
}

} // namespace nasd::fs
