/**
 * @file
 * What the NASD-NFS and NASD-AFS ports share (Section 5.1): the file
 * handle naming one NASD object, the directory object's byte format,
 * the mapping of NASD drive statuses onto NFS statuses, and the
 * namespace core both file managers run on their drives.
 *
 * A directory is one NASD object: a u32 header holding the byte length
 * of the live entries, then the entries back to back (u32 drive, u64
 * object id, u8 is-directory, u8 name length, name bytes). Bytes past
 * the live length are dead and ignored, so a directory is rewritten by
 * one write at offset 0 and its object never shrinks; a zero-length
 * object is an empty directory. Directory objects come back from
 * drives, so decoding checks the header and every length against the
 * bytes present and every drive index against the drive set, and
 * reports a truncated or corrupt object as kIoError.
 */
#ifndef NASD_FS_PORT_NASD_PORT_H_
#define NASD_FS_PORT_NASD_PORT_H_

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "fs/nfs/types.h"
#include "nasd/client.h"
#include "nasd/managed_drives.h"
#include "nasd/types.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace nasd::fs {

/** One file or directory: the drive holding it and its object. A
 *  manager or client checks `drive` against its drive count where a
 *  caller's handle enters it, and answers a handle naming no drive of
 *  its namespace with kStale. */
struct NasdFh
{
    std::uint32_t drive = 0;
    ObjectId oid = 0;

    auto operator<=>(const NasdFh &) const = default;
};

/** NASD-NFS file handle. */
using NasdNfsFh = NasdFh;
/** NASD-AFS file identifier (like an AFS FID). */
using AfsFid = NasdFh;

/** One directory entry. */
struct NasdDirEntry
{
    std::string name;
    NasdFh fh;
    bool is_directory = false;
};

/** Serialize directory contents into the directory object's bytes. */
std::vector<std::uint8_t>
encodeDirectory(const std::vector<NasdDirEntry> &entries);

/** Parse a directory object of a namespace on @p drives drives;
 *  kIoError if the header or an entry runs past the end or an entry
 *  names a drive index @p drives or above. */
NfsResult<std::vector<NasdDirEntry>>
decodeDirectory(std::span<const std::uint8_t> raw, std::uint32_t drives);

/** Request bytes of a port client's control RPC to its file manager,
 *  before any name it carries. */
inline constexpr std::uint64_t kControlPayload = 96;

/** Map a NASD drive status onto the NFS status a caller sees. */
NfsStatus fromNasdStatus(NasdStatus status);

/** The fs-specific attribute bytes a port stamps on every new object of
 *  each kind; a kind with none keeps the drive's zeroed field. */
struct InitialAttrs
{
    std::optional<std::array<std::uint8_t, kFsSpecificBytes>> file;
    std::optional<std::array<std::uint8_t, kFsSpecificBytes>> directory;
};

/** What remove() did. `removed` names the object once it is gone from
 *  its drive, even when storing the listing then failed. */
struct RemovedEntry
{
    NfsStatus status = NfsStatus::kOk;
    std::optional<NasdFh> removed;
};

/** The namespace core of a NASD file manager: its drives and root,
 *  placement, versions, own credential, and directory load, store,
 *  create and remove. Each port keeps its policy on top: NASD-NFS its
 *  policy attributes, directory cache and revocation; AFS its callbacks
 *  and quota escrow. */
class NasdNamespace
{
  public:
    NasdNamespace(net::Network &net, net::NetNode &node,
                  std::vector<NasdDrive *> drives, PartitionId partition,
                  InitialAttrs attrs);

    ManagedDrives &drives() { return drives_; }
    NasdFh root() const { return root_; }

    /** Format the drives and create the root directory on drive 0. */
    sim::Task<void> initialize(std::uint64_t partition_quota_bytes);

    /** Record the version a revocation moved @p fh's object to. */
    void setVersion(const NasdFh &fh, ObjectVersion v) { versions_[fh] = v; }

    /** Mint a capability for @p fh at its current version. */
    [[nodiscard]] Capability mint(const NasdFh &fh, std::uint8_t rights,
                                  std::uint64_t region_end = ~0ull,
                                  std::uint64_t expiry_ns = ~0ull) const;

    /** The manager's own credential for @p fh: every object right. */
    CredentialFactory credential(const NasdFh &fh) const;

    /** @p fh's object attributes, through the manager's own client;
     *  kStale for a handle naming no drive. */
    sim::Task<NfsResult<ObjectAttributes>> attributes(NasdFh fh);

    /** Read directory @p dir from its drive and decode it. */
    sim::Task<NfsResult<std::vector<NasdDirEntry>>> load(NasdFh dir);

    /** Held by a port from its load of directory @p dir to the store
     *  that create() or remove() makes: mutations of one directory run
     *  one at a time, so none stores a listing another has changed
     *  since. */
    sim::Task<sim::ScopedPermit>
    serializeMutation(const NasdFh &dir)
    {
        return sim::scopedAcquire(
            sim_, mutations_.try_emplace(dir, sim_, 1).first->second);
    }

    /** Create @p name in @p dir, listed as @p listing: make the object
     *  on the next drive in turn, append its entry and store. If a step
     *  fails the object is removed again (best effort). */
    sim::Task<NfsResult<NasdFh>> create(NasdFh dir,
                                        std::vector<NasdDirEntry> &listing,
                                        std::string name, bool directory);

    /** Remove @p name from @p dir, listed as @p listing: refuse a
     *  non-empty directory (kNotEmpty), remove the object, then store.
     *  A failed store therefore leaves a name naming nothing. */
    sim::Task<RemovedEntry> remove(NasdFh dir,
                                   std::vector<NasdDirEntry> &listing,
                                   std::string name);

  private:
    /** The version @p fh's capabilities approve: 1 until revoked. */
    ObjectVersion
    version(const NasdFh &fh) const
    {
        const auto it = versions_.find(fh);
        return it == versions_.end() ? 1 : it->second;
    }

    /** Create an object on @p drive with its kind's initial attributes;
     *  if they cannot be set, the object is removed again. */
    sim::Task<NfsResult<NasdFh>> makeObject(std::uint32_t drive,
                                            bool directory);

    /** Store @p entries as @p dir's listing: one write at offset 0. A
     *  failed store leaves the drive's old listing or the new one. */
    sim::Task<NfsStatus> store(NasdFh dir,
                               const std::vector<NasdDirEntry> &entries);

    ManagedDrives drives_;
    InitialAttrs attrs_;
    NasdFh root_;
    std::uint32_t next_placement_ = 0;
    /// The manager is the only version-bumper, so it tracks versions.
    std::map<NasdFh, ObjectVersion> versions_;
    sim::Simulator &sim_;
    /// One lock per directory ever mutated (entries stay: waiters and
    /// holders refer to them).
    std::map<NasdFh, sim::Semaphore> mutations_;
};

} // namespace nasd::fs

#endif // NASD_FS_PORT_NASD_PORT_H_
