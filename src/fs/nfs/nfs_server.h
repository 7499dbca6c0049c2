/**
 * @file
 * The baseline store-and-forward NFS server (organization 2/3 of
 * Figure 2) — the system NASD is compared against in Figure 9 and the
 * Andrew benchmark.
 *
 * Every byte a client reads crosses the peripheral network into server
 * memory and is copied back out over the client network; the server
 * CPU pays local-filesystem copy costs plus RPC protocol costs per
 * byte, which is exactly the bottleneck the paper measures (a 500 MHz
 * server with 54 MB/s of disks and 38 MB/s of network delivering
 * ~22 MB/s to applications).
 *
 * The server can export several volumes (independent FFS instances):
 * Figure 9's "NFS" line uses one volume striped over n disks, its
 * "NFS-parallel" line one volume per disk.
 */
#ifndef NASD_FS_NFS_NFS_SERVER_H_
#define NASD_FS_NFS_NFS_SERVER_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "fs/ffs/ffs.h"
#include "fs/nfs/types.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "util/metrics.h"

namespace nasd::fs {

// Wire reply types (plain structs).

struct [[nodiscard]] NfsLookupReply
{
    NfsStatus status = NfsStatus::kOk;
    NfsFileHandle handle;
    NfsAttr attrs;
};

struct [[nodiscard]] NfsAttrReply
{
    NfsStatus status = NfsStatus::kOk;
    NfsAttr attrs;
};

/** READ reply: the bytes landed in the caller's buffer, the reply
 *  carries their count (which the reply message charges on the wire). */
struct [[nodiscard]] NfsReadReply
{
    NfsStatus status = NfsStatus::kOk;
    std::uint64_t count = 0;
    bool eof = false;
};

struct [[nodiscard]] NfsWriteReply
{
    NfsStatus status = NfsStatus::kOk;
    NfsAttr attrs;
};

struct [[nodiscard]] NfsStatusReply
{
    NfsStatus status = NfsStatus::kOk;
};

struct NfsDirEntryWire
{
    std::string name;
    NfsFileHandle handle;
    bool is_directory = false;
};

struct [[nodiscard]] NfsReaddirReply
{
    NfsStatus status = NfsStatus::kOk;
    std::vector<NfsDirEntryWire> entries;
};

/** The baseline NFS server (see file comment). */
class NfsServer
{
  public:
    /**
     * @param node The server machine (its CPU is charged for all FS
     *        and protocol work; FFS volumes should be constructed with
     *        this node's CPU as their host CPU).
     */
    NfsServer(sim::Simulator &sim, net::NetNode &node)
        : sim_(sim), node_(node),
          ops_served_(util::metrics().counter(
              util::metrics().uniquePrefix(node.name() + "/nfs") +
              "/ops_served"))
    {}

    NfsServer(const NfsServer &) = delete;
    NfsServer &operator=(const NfsServer &) = delete;

    net::NetNode &node() { return node_; }

    /** Export a volume; returns its volume id. */
    std::uint32_t addVolume(FfsFileSystem &fs);

    /** Root file handle of a volume. */
    NfsFileHandle rootHandle(std::uint32_t volume) const;

    // Server-side handlers (wrapped in RPC by NfsClient) -------------------

    sim::Task<NfsLookupReply> serveLookup(NfsFileHandle dir,
                                          std::string name);
    sim::Task<NfsAttrReply> serveGetattr(NfsFileHandle fh);
    sim::Task<NfsAttrReply> serveSetattr(NfsFileHandle fh,
                                         std::uint32_t mode,
                                         std::uint32_t uid,
                                         std::uint32_t gid);
    /** READ into @p out, the client's buffer: net::call runs the
     *  handler once while the caller waits, so nothing is staged. */
    sim::Task<NfsReadReply> serveRead(NfsFileHandle fh, std::uint64_t offset,
                                      std::span<std::uint8_t> out);
    /** WRITE from @p data, the client's buffer (see serveRead). */
    sim::Task<NfsWriteReply> serveWrite(NfsFileHandle fh,
                                        std::uint64_t offset,
                                        std::span<const std::uint8_t> data);
    sim::Task<NfsLookupReply> serveCreate(NfsFileHandle dir,
                                          std::string name);
    sim::Task<NfsLookupReply> serveMkdir(NfsFileHandle dir,
                                         std::string name);
    sim::Task<NfsStatusReply> serveRemove(NfsFileHandle dir,
                                          std::string name);
    sim::Task<NfsReaddirReply> serveReaddir(NfsFileHandle dir);

    std::uint64_t opsServed() const { return ops_served_.value(); }

  private:
    FsResult<FfsFileSystem *> volumeOf(const NfsFileHandle &fh);

    static NfsAttr toAttr(const FileStat &st);

    sim::Simulator &sim_;
    net::NetNode &node_;
    std::vector<FfsFileSystem *> volumes_;
    /// All handler invocations ("<node>/nfs/ops_served").
    util::Counter &ops_served_;
};

} // namespace nasd::fs

#endif // NASD_FS_NFS_NFS_SERVER_H_
