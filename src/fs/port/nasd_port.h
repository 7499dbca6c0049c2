/**
 * @file
 * What the NASD-NFS and NASD-AFS ports share (Section 5.1): the file
 * handle naming one NASD object, the directory object's byte format,
 * reading a directory back from its drive, and the mapping of NASD
 * drive statuses onto NFS statuses.
 *
 * A directory is one NASD object holding its entries back to back:
 * u32 drive, u64 object id, u8 is-directory, u8 name length, name
 * bytes. Directory objects come back from drives, so decoding checks
 * every length against the bytes present and every drive index against
 * the drive set, and reports a truncated or corrupt object as kIoError.
 */
#ifndef NASD_FS_PORT_NASD_PORT_H_
#define NASD_FS_PORT_NASD_PORT_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "fs/nfs/types.h"
#include "nasd/client.h"
#include "nasd/managed_drives.h"
#include "nasd/types.h"
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
 *  kIoError if an entry runs past the end or names a drive index
 *  @p drives or above. */
NfsResult<std::vector<NasdDirEntry>>
decodeDirectory(std::span<const std::uint8_t> raw, std::uint32_t drives);

/** Map a NASD drive status onto the NFS status a caller sees. */
NfsStatus fromNasdStatus(NasdStatus status);

/** Read the whole directory object @p dir through the manager's own
 *  client with @p cred (getAttr for its size, one read) and decode it. */
sim::Task<NfsResult<std::vector<NasdDirEntry>>>
readDirectory(ManagedDrives &drives, NasdFh dir, CredentialFactory &cred);

} // namespace nasd::fs

#endif // NASD_FS_PORT_NASD_PORT_H_
