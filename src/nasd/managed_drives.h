/**
 * @file
 * The drive-facing core every NASD file manager shares (Sections 4-5).
 *
 * NASD-NFS, NASD-AFS and the Cheops storage manager play one role: an
 * off-path manager that formats its drives, holds each drive's master
 * secret so it can mint capabilities for it, and reaches the drives
 * through its own node for the control operations it performs itself
 * (object creation, directory and attribute updates, rebuild I/O).
 * ManagedDrives owns exactly that plumbing for one manager's drive set
 * in one partition; the managers keep the policy: which rights, which
 * version, which byte range and for how long.
 */
#ifndef NASD_NASD_MANAGED_DRIVES_H_
#define NASD_NASD_MANAGED_DRIVES_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "nasd/capability.h"
#include "nasd/client.h"
#include "nasd/drive.h"
#include "net/network.h"
#include "sim/task.h"

namespace nasd {

class ManagedDrives
{
  public:
    /** Builds, drive by drive, the issuer for the drive's master key and
     *  then @p node's client for it. */
    ManagedDrives(net::Network &net, net::NetNode &node,
                  std::vector<NasdDrive *> drives, PartitionId partition);

    std::uint32_t size() const
    {
        return static_cast<std::uint32_t>(drives_.size());
    }

    PartitionId partition() const { return partition_; }

    /** The manager node's own client for drive @p drive. */
    NasdClient &client(std::uint32_t drive) { return *drives_[drive].client; }

    /** Format every drive, then create the partition on it with
     *  @p quota_bytes; a drive that refuses the partition aborts. */
    sim::Task<void> format(std::uint64_t quota_bytes);

    /** Mint a capability for object @p oid of the partition on drive
     *  @p drive. */
    [[nodiscard]] Capability mint(std::uint32_t drive, ObjectId oid,
                                  ObjectVersion version, std::uint8_t rights,
                                  std::uint64_t region_end = ~0ull,
                                  std::uint64_t expiry_ns = ~0ull) const;

    /** Create an object on drive @p drive with @p size_hint bytes
     *  preallocated, through a create capability on the partition
     *  control object. */
    sim::Task<StoreResult<ObjectId>> create(std::uint32_t drive,
                                            std::uint64_t size_hint);

  private:
    struct Drive
    {
        NasdDrive *drive;
        std::unique_ptr<CapabilityIssuer> issuer;
        std::unique_ptr<NasdClient> client;
    };

    std::vector<Drive> drives_;
    PartitionId partition_;
};

} // namespace nasd

#endif // NASD_NASD_MANAGED_DRIVES_H_
