#include "fs/port/nasd_port.h"

#include <algorithm>

#include "util/codec.h"
#include "util/logging.h"

namespace nasd::fs {

namespace {

constexpr std::size_t kHeaderBytes = 4; // u32 live length
constexpr std::size_t kEntryFixedBytes = 4 + 8 + 1 + 1; // before the name

} // namespace

std::vector<std::uint8_t>
encodeDirectory(const std::vector<NasdDirEntry> &entries)
{
    std::size_t live = 0;
    for (const auto &e : entries)
        live += kEntryFixedBytes + e.name.size();
    std::vector<std::uint8_t> raw;
    raw.reserve(kHeaderBytes + live);
    util::Encoder enc(raw);
    enc.put<std::uint32_t>(static_cast<std::uint32_t>(live));
    for (const auto &e : entries) {
        enc.put<std::uint32_t>(e.fh.drive);
        enc.put<std::uint64_t>(e.fh.oid);
        enc.put<std::uint8_t>(e.is_directory ? 1 : 0);
        enc.put<std::uint8_t>(static_cast<std::uint8_t>(e.name.size()));
        enc.putBytes(std::span<const std::uint8_t>(
            reinterpret_cast<const std::uint8_t *>(e.name.data()),
            e.name.size()));
    }
    return raw;
}

NfsResult<std::vector<NasdDirEntry>>
decodeDirectory(std::span<const std::uint8_t> raw, std::uint32_t drives)
{
    std::vector<NasdDirEntry> entries;
    if (raw.empty())
        return entries;
    if (raw.size() < kHeaderBytes)
        return util::Err{NfsStatus::kIoError};
    const std::uint32_t live = util::Decoder(raw).get<std::uint32_t>();
    if (live > raw.size() - kHeaderBytes)
        return util::Err{NfsStatus::kIoError};
    util::Decoder dec(raw.subspan(kHeaderBytes, live));
    while (dec.remaining() > 0) {
        if (dec.remaining() < kEntryFixedBytes)
            return util::Err{NfsStatus::kIoError};
        NasdDirEntry e;
        e.fh.drive = dec.get<std::uint32_t>();
        e.fh.oid = dec.get<std::uint64_t>();
        e.is_directory = dec.get<std::uint8_t>() != 0;
        const auto len = dec.get<std::uint8_t>();
        if (e.fh.drive >= drives || dec.remaining() < len)
            return util::Err{NfsStatus::kIoError};
        e.name.resize(len);
        dec.getBytes(std::span<std::uint8_t>(
            reinterpret_cast<std::uint8_t *>(e.name.data()), len));
        entries.push_back(std::move(e));
    }
    return entries;
}

NfsStatus
fromNasdStatus(NasdStatus status)
{
    switch (status) {
      case NasdStatus::kOk:
        return NfsStatus::kOk;
      case NasdStatus::kNoSuchObject:
      case NasdStatus::kNoSuchPartition:
        return NfsStatus::kNoEnt;
      case NasdStatus::kObjectExists:
        return NfsStatus::kExist;
      case NasdStatus::kNoSpace:
      case NasdStatus::kQuotaExceeded:
        return NfsStatus::kNoSpace;
      case NasdStatus::kBadCapability:
      case NasdStatus::kExpiredCapability:
      case NasdStatus::kVersionMismatch:
      case NasdStatus::kRightsViolation:
      case NasdStatus::kRangeViolation:
      case NasdStatus::kReplayedRequest:
        return NfsStatus::kAccess;
      default:
        return NfsStatus::kIoError;
    }
}

NasdNamespace::NasdNamespace(net::Network &net, net::NetNode &node,
                             std::vector<NasdDrive *> drives,
                             PartitionId partition, InitialAttrs attrs)
    : drives_(net, node, std::move(drives), partition),
      attrs_(std::move(attrs)), sim_(net.simulator())
{}

Capability
NasdNamespace::mint(const NasdFh &fh, std::uint8_t rights,
                    std::uint64_t region_end, std::uint64_t expiry_ns) const
{
    return drives_.mint(fh.drive, fh.oid, version(fh), rights, region_end,
                        expiry_ns);
}

CredentialFactory
NasdNamespace::credential(const NasdFh &fh) const
{
    return CredentialFactory(
        mint(fh, kRightRead | kRightWrite | kRightGetAttr | kRightSetAttr |
                     kRightRemove | kRightVersion));
}

sim::Task<void>
NasdNamespace::initialize(std::uint64_t partition_quota_bytes)
{
    co_await drives_.format(partition_quota_bytes);
    // A zero-length directory object is already an empty listing.
    auto root = co_await makeObject(0, true);
    NASD_ASSERT(root.ok(), "root directory create failed");
    root_ = root.value();
}

sim::Task<NfsResult<NasdFh>>
NasdNamespace::makeObject(std::uint32_t drive, bool directory)
{
    auto made = co_await drives_.create(drive, 0);
    if (!made.ok())
        co_return util::Err{fromNasdStatus(made.error())};
    const NasdFh fh{drive, made.value()};
    const auto &attrs = directory ? attrs_.directory : attrs_.file;
    if (!attrs)
        co_return fh;
    SetAttrRequest req;
    req.fs_specific = attrs;
    auto cred = credential(fh);
    auto set = co_await drives_.client(drive).setAttr(cred, req);
    if (set.ok())
        co_return fh;
    (void)co_await drives_.client(drive).remove(cred);
    co_return util::Err{fromNasdStatus(set.error())};
}

sim::Task<NfsResult<ObjectAttributes>>
NasdNamespace::attributes(NasdFh fh)
{
    if (fh.drive >= drives_.size())
        co_return util::Err{NfsStatus::kStale};
    auto cred = credential(fh);
    auto attrs = co_await drives_.client(fh.drive).getAttr(cred);
    if (!attrs.ok())
        co_return util::Err{fromNasdStatus(attrs.error())};
    co_return attrs.value();
}

sim::Task<NfsResult<std::vector<NasdDirEntry>>>
NasdNamespace::load(NasdFh dir)
{
    auto attrs = co_await attributes(dir);
    if (!attrs.ok())
        co_return util::Err{attrs.error()};
    if (attrs.value().size == 0)
        co_return std::vector<NasdDirEntry>{};
    auto cred = credential(dir);
    auto raw =
        co_await drives_.client(dir.drive).read(cred, 0, attrs.value().size);
    if (!raw.ok())
        co_return util::Err{fromNasdStatus(raw.error())};
    co_return decodeDirectory(raw.value(), drives_.size());
}

sim::Task<NfsStatus>
NasdNamespace::store(NasdFh dir, const std::vector<NasdDirEntry> &entries)
{
    const auto raw = encodeDirectory(entries);
    auto cred = credential(dir);
    auto wrote = co_await drives_.client(dir.drive).write(cred, 0, raw);
    co_return wrote.ok() ? NfsStatus::kOk : fromNasdStatus(wrote.error());
}

sim::Task<NfsResult<NasdFh>>
NasdNamespace::create(NasdFh dir, std::vector<NasdDirEntry> &listing,
                      std::string name, bool directory)
{
    if (std::ranges::find(listing, name, &NasdDirEntry::name) !=
        listing.end())
        co_return util::Err{NfsStatus::kExist};
    auto made = co_await makeObject(next_placement_++ % drives_.size(),
                                    directory);
    if (!made.ok())
        co_return made;
    const NasdFh fh = made.value();
    listing.push_back(NasdDirEntry{std::move(name), fh, directory});
    const NfsStatus status = co_await store(dir, listing);
    if (status == NfsStatus::kOk)
        co_return fh;
    // No directory names the new object: take it back off its drive.
    listing.pop_back();
    auto cred = credential(fh);
    (void)co_await drives_.client(fh.drive).remove(cred);
    co_return util::Err{status};
}

sim::Task<RemovedEntry>
NasdNamespace::remove(NasdFh dir, std::vector<NasdDirEntry> &listing,
                      std::string name)
{
    RemovedEntry out;
    const auto it = std::ranges::find(listing, name, &NasdDirEntry::name);
    if (it == listing.end()) {
        out.status = NfsStatus::kNoEnt;
        co_return out;
    }
    const NasdFh fh = it->fh;
    if (it->is_directory) {
        auto children = co_await load(fh);
        if (!children.ok() || !children.value().empty()) {
            out.status = children.ok() ? NfsStatus::kNotEmpty
                                       : children.error();
            co_return out;
        }
    }
    auto cred = credential(fh);
    auto removed = co_await drives_.client(fh.drive).remove(cred);
    if (!removed.ok()) {
        out.status = fromNasdStatus(removed.error());
        co_return out;
    }
    out.removed = fh;
    versions_.erase(fh);
    listing.erase(it);
    out.status = co_await store(dir, listing);
    co_return out;
}

} // namespace nasd::fs
