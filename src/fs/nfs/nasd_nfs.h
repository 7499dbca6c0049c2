/**
 * @file
 * NASD-NFS: the NFS port to a NASD environment (Section 5.1).
 *
 * Each file and directory occupies exactly one NASD object. Data
 * moving operations (read, write) and attribute reads go directly from
 * the client to the drive; everything else (lookup, create, remove,
 * directory parsing, policy attribute changes) goes through the file
 * manager, which returns cachable capabilities piggybacked on lookup
 * replies. File length / modify time come straight from NASD object
 * attributes; mode/uid/gid live in the object's uninterpreted
 * filesystem-specific attribute field, which only the file manager
 * writes.
 */
#ifndef NASD_FS_NFS_NASD_NFS_H_
#define NASD_FS_NFS_NASD_NFS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "fs/nfs/nfs_client.h"
#include "fs/nfs/types.h"
#include "fs/port/nasd_port.h"
#include "nasd/client.h"
#include "nasd/drive.h"
#include "net/network.h"
#include "sim/simulator.h"

namespace nasd::fs {

/** Lookup/create reply: handle + attrs + piggybacked capability. */
struct [[nodiscard]] NasdNfsLookupReply
{
    NfsStatus status = NfsStatus::kOk;
    NasdNfsFh fh;
    NfsAttr attrs;
    Capability capability; ///< piggybacked (Section 5.1)
};

struct [[nodiscard]] NasdNfsReaddirReply
{
    NfsStatus status = NfsStatus::kOk;
    std::vector<NasdDirEntry> entries;
};

struct [[nodiscard]] NasdNfsStatusReply
{
    NfsStatus status = NfsStatus::kOk;
};

/**
 * The NASD-NFS file manager: namespace, policy, and capability mint.
 *
 * Runs on its own (modest) machine; its CPU is charged only for the
 * control operations, never for data movement — that is the point of
 * the architecture.
 */
class NasdNfsFileManager
{
  public:
    /**
     * @param drives The NASD drives holding this filesystem; file
     *        placement round-robins across them.
     * @param partition Partition used on every drive.
     */
    NasdNfsFileManager(sim::Simulator &sim, net::Network &net,
                       net::NetNode &node,
                       std::vector<NasdDrive *> drives,
                       PartitionId partition);

    net::NetNode &node() { return node_; }

    /** Create partitions and the root directory object. */
    sim::Task<void>
    initialize(std::uint64_t partition_quota_bytes)
    {
        return ns_.initialize(partition_quota_bytes);
    }

    NasdNfsFh rootHandle() const { return ns_.root(); }

    // Server-side handlers -------------------------------------------------

    /**
     * Look up @p name in directory @p dir. The reply carries a
     * capability granting read (and write when @p want_write) access
     * to the object at its current version.
     */
    sim::Task<NasdNfsLookupReply> serveLookup(NasdNfsFh dir,
                                              std::string name,
                                              bool want_write);

    /** Create a file, or with @p directory a directory, in @p dir. */
    sim::Task<NasdNfsLookupReply> serveCreate(NasdNfsFh dir,
                                              std::string name,
                                              bool directory);
    sim::Task<NasdNfsStatusReply> serveRemove(NasdNfsFh dir,
                                              std::string name);
    sim::Task<NasdNfsReaddirReply> serveReaddir(NasdNfsFh dir);

    /** Policy attribute change (mode bits), file-manager mediated. */
    sim::Task<NasdNfsStatusReply> serveSetPolicy(NasdNfsFh fh,
                                                 std::uint32_t mode,
                                                 std::uint32_t uid,
                                                 std::uint32_t gid);

    /** Re-issue a capability (e.g. after expiry or version bump). */
    sim::Task<NasdNfsLookupReply> serveGetCap(NasdNfsFh fh,
                                              bool want_write);

    /**
     * Revoke all outstanding capabilities for @p fh by bumping the
     * object's logical version.
     */
    sim::Task<NasdNfsStatusReply> serveRevoke(NasdNfsFh fh);

  private:
    /** Mint a capability for @p fh at its current version. */
    Capability mintCapability(const NasdNfsFh &fh, std::uint8_t rights);

    /** @p dir's listing, from the cache or else from its drive. */
    sim::Task<NfsResult<std::vector<NasdDirEntry>>>
    loadDirectory(NasdNfsFh dir);

    sim::Simulator &sim_;
    net::NetNode &node_;
    NasdNamespace ns_;
    /// The FM is the only directory writer, so it caches directory
    /// contents (write-through to the drive objects).
    std::map<NasdNfsFh, std::vector<NasdDirEntry>> dir_cache_;

    /// Capability lifetime handed to clients.
    static constexpr std::uint64_t kCapLifetimeNs = 600ull * 1000000000;
};

/**
 * The NASD-NFS client: control through the file manager, data straight
 * to the drives, with a capability cache refreshed on rejection.
 */
class NasdNfsClient
{
  public:
    NasdNfsClient(net::Network &net, net::NetNode &node,
                  NasdNfsFileManager &fm, std::vector<NasdDrive *> drives,
                  NfsClientParams params = {});

    net::NetNode &node() { return node_; }

    sim::Task<NfsResult<NasdNfsFh>> lookup(NasdNfsFh dir, std::string name,
                                           bool want_write = false);
    sim::Task<NfsResult<NasdNfsFh>> create(NasdNfsFh dir, std::string name);
    sim::Task<NfsResult<NasdNfsFh>> mkdir(NasdNfsFh dir, std::string name);
    sim::Task<NfsResult<void>> remove(NasdNfsFh dir, std::string name);
    sim::Task<NfsResult<std::vector<NasdDirEntry>>>
    readdir(NasdNfsFh dir);

    /** Attribute read: straight to the drive (Section 5.1). */
    sim::Task<NfsResult<NfsAttr>> getattr(NasdNfsFh fh);

    /** Policy attribute change: through the file manager. */
    sim::Task<NfsResult<void>> setattr(NasdNfsFh fh, std::uint32_t mode,
                                       std::uint32_t uid, std::uint32_t gid);

    /** Data read: straight to the drive with a cached capability. */
    sim::Task<NfsResult<std::uint64_t>> read(NasdNfsFh fh,
                                             std::uint64_t offset,
                                             std::span<std::uint8_t> out);

    sim::Task<NfsResult<void>> write(NasdNfsFh fh, std::uint64_t offset,
                                     std::span<const std::uint8_t> data);

    /** Number of control RPCs this client sent to the file manager. */
    std::uint64_t fmCalls() const { return fm_calls_; }

    /** Free chunk-window slots; must equal the configured window
     *  whenever no chunk is in flight (permits must never leak). */
    std::uint32_t windowPermits() const
    {
        return window_.availablePermits();
    }

  private:
    struct CachedCap
    {
        std::unique_ptr<CredentialFactory> cred;
        bool writable = false;
    };

    /** One control RPC to the file manager; @p serve runs there. */
    template <typename Reply, typename Serve>
    sim::Task<Reply> callFm(std::uint64_t request_bytes, Serve serve);

    /** Get (fetching if needed) a capability for @p fh. */
    sim::Task<NfsResult<CredentialFactory *>> capabilityFor(NasdNfsFh fh,
                                                            bool write);

    /** Cache @p cap as @p fh's credential; returns the cached one. */
    CredentialFactory *cacheCap(NasdNfsFh fh, Capability cap, bool writable);

    sim::Task<NfsResult<std::uint64_t>>
    readChunk(NasdNfsFh fh, std::uint64_t offset,
              std::span<std::uint8_t> out);
    sim::Task<NfsResult<void>> writeChunk(NasdNfsFh fh,
                                          std::uint64_t offset,
                                          std::span<const std::uint8_t> d);

    net::Network &net_;
    net::NetNode &node_;
    NasdNfsFileManager &fm_;
    std::vector<std::unique_ptr<NasdClient>> drive_clients_;
    NfsClientParams params_;
    sim::Semaphore window_;
    util::Counter &window_wait_ns_; ///< time chunks queued for a window slot
    std::map<NasdNfsFh, CachedCap> cap_cache_;
    std::uint64_t fm_calls_ = 0;
};

} // namespace nasd::fs

#endif // NASD_FS_NFS_NASD_NFS_H_
