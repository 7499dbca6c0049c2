#include "nasd/managed_drives.h"

#include "util/logging.h"

namespace nasd {

ManagedDrives::ManagedDrives(net::Network &net, net::NetNode &node,
                             std::vector<NasdDrive *> drives,
                             PartitionId partition)
    : partition_(partition)
{
    NASD_ASSERT(!drives.empty());
    for (auto *drive : drives) {
        auto issuer = std::make_unique<CapabilityIssuer>(
            drive->config().master_key, drive->id());
        drives_.push_back(Drive{drive, std::move(issuer),
                                std::make_unique<NasdClient>(net, node,
                                                             *drive)});
    }
}

sim::Task<void>
ManagedDrives::format(std::uint64_t quota_bytes)
{
    for (const auto &d : drives_) {
        co_await d.drive->format();
        auto created = d.drive->store().createPartition(partition_,
                                                        quota_bytes);
        NASD_ASSERT(created.ok(), "partition creation failed on ",
                    d.drive->name());
    }
}

Capability
ManagedDrives::mint(std::uint32_t drive, ObjectId oid, ObjectVersion version,
                    std::uint8_t rights, std::uint64_t region_end,
                    std::uint64_t expiry_ns) const
{
    CapabilityPublic pub;
    pub.partition = partition_;
    pub.object_id = oid;
    pub.approved_version = version;
    pub.rights = rights;
    pub.region_end = region_end;
    pub.expiry_ns = expiry_ns;
    return drives_[drive].issuer->mint(pub);
}

sim::Task<StoreResult<ObjectId>>
ManagedDrives::create(std::uint32_t drive, std::uint64_t size_hint)
{
    CredentialFactory cred(
        mint(drive, kPartitionControlObject, 1, kRightCreate));
    co_return co_await drives_[drive].client->create(cred, size_hint);
}

} // namespace nasd
