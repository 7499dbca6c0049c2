#include "fs/port/nasd_port.h"

#include "util/codec.h"

namespace nasd::fs {

std::vector<std::uint8_t>
encodeDirectory(const std::vector<NasdDirEntry> &entries)
{
    std::vector<std::uint8_t> raw;
    util::Encoder enc(raw);
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
    constexpr std::size_t kFixedBytes = 4 + 8 + 1 + 1; // before the name
    std::vector<NasdDirEntry> entries;
    util::Decoder dec(raw);
    while (dec.remaining() > 0) {
        if (dec.remaining() < kFixedBytes)
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

sim::Task<NfsResult<std::vector<NasdDirEntry>>>
readDirectory(ManagedDrives &drives, NasdFh dir, CredentialFactory &cred)
{
    auto attrs = co_await drives.client(dir.drive).getAttr(cred);
    if (!attrs.ok())
        co_return util::Err{fromNasdStatus(attrs.error())};
    auto raw =
        co_await drives.client(dir.drive).read(cred, 0, attrs.value().size);
    if (!raw.ok())
        co_return util::Err{fromNasdStatus(raw.error())};
    co_return decodeDirectory(raw.value(), drives.size());
}

} // namespace nasd::fs
