/**
 * @file
 * NASD-AFS: the AFS port to a NASD environment (Section 5.1).
 *
 * AFS differs from NFS in exactly the ways the paper calls out, and
 * this module implements each of them:
 *
 *  - clients parse directory files locally, so there is no operation
 *    to piggyback capabilities on: clients obtain and relinquish
 *    capabilities with explicit RPCs (FetchCap / ReleaseCap);
 *  - sequential consistency comes from callbacks: when a write
 *    capability is issued for a file, the file manager breaks the
 *    callbacks of every client caching it, and it blocks new callbacks
 *    on a file while a write capability is outstanding (bounded by the
 *    capability's expiration time);
 *  - per-volume quota is enforced by escrow: a write capability's byte
 *    range is sized to the space the file may grow into; when the
 *    capability is relinquished (or expires) the file manager examines
 *    the object's new size and settles the quota books;
 *  - clients cache whole files (AFS semantics) and serve repeated
 *    reads locally until a callback break invalidates the copy.
 */
#ifndef NASD_FS_AFS_AFS_H_
#define NASD_FS_AFS_AFS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "fs/nfs/types.h"
#include "fs/port/nasd_port.h"
#include "nasd/client.h"
#include "nasd/drive.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "sim/sync.h"
#include "util/metrics.h"

namespace nasd::fs {

struct [[nodiscard]] AfsFetchCapReply
{
    NfsStatus status = NfsStatus::kOk;
    Capability capability;
    NfsAttr attrs;
};

struct [[nodiscard]] AfsStatusReply
{
    NfsStatus status = NfsStatus::kOk;
};

struct [[nodiscard]] AfsCreateReply
{
    NfsStatus status = NfsStatus::kOk;
    AfsFid fid;
};

class AfsClient;

/**
 * The NASD-AFS file manager: volume quota, capability issue/reclaim,
 * and callback management.
 */
class AfsFileManager
{
  public:
    AfsFileManager(sim::Simulator &sim, net::Network &net,
                   net::NetNode &node, std::vector<NasdDrive *> drives,
                   PartitionId partition, std::uint64_t volume_quota_bytes);

    net::NetNode &node() { return node_; }

    /** Format drives, create partitions, create the root directory. */
    sim::Task<void>
    initialize(std::uint64_t partition_quota_bytes)
    {
        return ns_.initialize(partition_quota_bytes);
    }

    AfsFid rootFid() const { return ns_.root(); }

    /** Register a client for callback breaks. */
    void registerClient(AfsClient *client);
    /** Forget @p client (its destructor calls this): no callback break
     *  reaches it afterwards. */
    void unregisterClient(AfsClient *client);

    // Server-side handlers -------------------------------------------------

    /**
     * Obtain a capability. For reads this also establishes a callback
     * (the promise to notify before the file changes); if a write
     * capability is outstanding, the call waits until it is
     * relinquished or expires. For writes this breaks all existing
     * callbacks and escrows quota through the capability byte range.
     */
    sim::Task<AfsFetchCapReply> serveFetchCap(AfsFid fid, bool want_write,
                                              std::uint32_t client_id,
                                              std::uint64_t size_hint = 0);

    /** Relinquish a write capability: settle quota, unblock readers. */
    sim::Task<AfsStatusReply> serveReleaseCap(AfsFid fid,
                                              std::uint32_t client_id);

    /** Create a file or directory entry (namespace mutations go
     *  through the file manager even though parsing is local). */
    sim::Task<AfsCreateReply> serveCreate(AfsFid dir, std::string name,
                                          bool directory);

    sim::Task<AfsStatusReply> serveRemove(AfsFid dir, std::string name);

    /** Volume space accounting (bytes charged against the quota,
     *  including escrowed space). */
    std::uint64_t quotaUsedBytes() const { return quota_used_; }
    std::uint64_t quotaBytes() const { return volume_quota_; }

    std::uint64_t callbacksBroken() const { return callbacks_broken_.value(); }

    /** Files with manager state (callbacks, quota, a write grant). */
    std::size_t trackedFiles() const { return files_.size(); }

    /** Escrow granted beyond the current size of a file. */
    static constexpr std::uint64_t kEscrowBytes = 1024 * 1024;

    /** Write capability lifetime (bounds reader waiting time).
     *  Runtime-configurable so fault tests can expire caps quickly. */
    std::uint64_t writeCapLifetimeNs() const { return write_cap_lifetime_ns_; }
    void setWriteCapLifetime(sim::Tick lifetime)
    {
        write_cap_lifetime_ns_ = static_cast<std::uint64_t>(lifetime);
    }

  private:
    struct FileState
    {
        std::uint64_t charged_bytes = 0;     ///< settled quota charge
        std::uint64_t escrowed_bytes = 0;    ///< outstanding escrow
        std::uint32_t write_holder = 0;      ///< client id, 0 = none
        std::uint64_t write_expiry_ns = 0;
        std::set<std::uint32_t> callbacks;   ///< clients caching it
        std::unique_ptr<sim::Gate> writer_done;
    };

    /** Notify every callback holder (except @p except) and clear. */
    sim::Task<void> breakCallbacks(AfsFid fid, std::uint32_t except);

    sim::Simulator &sim_;
    net::Network &net_;
    net::NetNode &node_;
    NasdNamespace ns_;
    std::uint64_t volume_quota_;
    std::uint64_t write_cap_lifetime_ns_ = 30ull * 1000000000;
    std::uint64_t quota_used_ = 0;
    /// Objects removed so far: a fetch that overlapped one asks the
    /// drive again before it tracks the file.
    std::uint64_t removals_ = 0;
    std::map<AfsFid, FileState> files_;
    std::map<std::uint32_t, AfsClient *> clients_;
    /// Callback breaks delivered ("<node>/afs_fm/callbacks_broken").
    util::Counter &callbacks_broken_;
};

/**
 * The NASD-AFS client: whole-file caching, local directory parsing,
 * explicit capability management, callback handling.
 */
class AfsClient
{
  public:
    AfsClient(net::Network &net, net::NetNode &node, AfsFileManager &fm,
              std::vector<NasdDrive *> drives, std::uint32_t client_id);
    ~AfsClient();

    net::NetNode &node() { return node_; }
    std::uint32_t id() const { return id_; }

    /** Look up @p name by fetching and parsing the directory locally. */
    sim::Task<NfsResult<AfsFid>> lookup(AfsFid dir, std::string name);

    /** Read the whole file (AFS whole-file caching); returns bytes. */
    sim::Task<NfsResult<std::uint64_t>> read(AfsFid fid,
                                             std::uint64_t offset,
                                             std::span<std::uint8_t> out);

    /**
     * Write: obtains a write capability (with escrow), stores data
     * directly at the drive, then relinquishes the capability so the
     * file manager can settle quota.
     */
    sim::Task<NfsResult<void>> write(AfsFid fid, std::uint64_t offset,
                                     std::span<const std::uint8_t> data);

    sim::Task<NfsResult<AfsFid>> create(AfsFid dir, std::string name);
    sim::Task<NfsResult<AfsFid>> mkdir(AfsFid dir, std::string name);
    sim::Task<NfsResult<void>> remove(AfsFid dir, std::string name);
    sim::Task<NfsResult<std::vector<NasdDirEntry>>> readdir(AfsFid dir);

    /** Callback break delivered by the file manager. */
    void onCallbackBreak(AfsFid fid);

    std::uint64_t cacheHits() const { return cache_hits_.value(); }
    std::uint64_t cacheMisses() const { return cache_misses_.value(); }

  private:
    struct CachedFile
    {
        std::vector<std::uint8_t> data;
        bool valid = false;
    };

    /** FetchCap RPC to the file manager. */
    sim::Task<AfsFetchCapReply> fetchCap(AfsFid fid, bool want_write,
                                         std::uint64_t size_hint);

    /** Create RPC behind create() and mkdir(). */
    sim::Task<NfsResult<AfsFid>> createEntry(AfsFid dir, std::string name,
                                             bool directory);

    /** Fetch (with callback registration) the whole file into cache. */
    sim::Task<NfsResult<CachedFile *>> fetchFile(AfsFid fid);

    net::Network &net_;
    net::NetNode &node_;
    AfsFileManager &fm_;
    std::vector<std::unique_ptr<NasdClient>> drive_clients_;
    std::uint32_t id_;
    std::map<AfsFid, CachedFile> cache_;
    std::string metric_prefix_; ///< registry subtree ("<node>/afs")
    /// Whole-file cache accounting ("<node>/afs/cache_{hits,misses}").
    util::Counter &cache_hits_;
    util::Counter &cache_misses_;
};

} // namespace nasd::fs

#endif // NASD_FS_AFS_AFS_H_
