/**
 * @file
 * A Berkeley FFS-flavoured local filesystem (the paper's Figure 6
 * baseline, and the backing store of the comparison NFS server).
 *
 * Real data structures on a block device: superblock, inode table with
 * direct / single / double indirect block maps, bitmap allocation with
 * clustering, directories as files, and a buffer cache. Timing matches
 * the behaviours the paper measures:
 *
 *  - reads are issued to the device cluster-at-a-time (maxcontig), so
 *    a cache-missing sequential scan pays per-cluster command and
 *    rotation costs and lands near half of what the NASD object
 *    system's extent-sized reads achieve (~2.5 vs ~5 MB/s);
 *  - a per-file sequential-readahead heuristic prefetches ahead, and
 *    is defeated by interleaved request streams to one file (the NFS
 *    vs NFS-parallel gap of Figure 9);
 *  - writes of at most 64 KB are acknowledged immediately
 *    (write-behind), larger writes wait for the media — the "strange
 *    write performance" called out under Figure 6;
 *  - when a host CPU is attached, per-byte copy costs are charged so
 *    cached reads run at memory-copy speed, not infinitely fast.
 */
#ifndef NASD_FS_FFS_FFS_H_
#define NASD_FS_FFS_FFS_H_

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "disk/block_device.h"
#include "sim/resource.h"
#include "sim/simulator.h"
#include "util/lru_set.h"
#include "util/result.h"
#include "util/stats.h"

namespace nasd::fs {

/** FFS error codes. */
enum class [[nodiscard]] FsStatus : std::uint8_t {
    kOk = 0,
    kNoSuchFile,
    kExists,
    kNotDirectory,
    kIsDirectory,
    kNoSpace,
    kNameTooLong,
    kDirectoryNotEmpty,
    kFileTooBig,
};

const char *toString(FsStatus status);

/** Inode number. */
using InodeNum = std::uint32_t;

inline constexpr InodeNum kRootInode = 1;

/** File metadata returned by stat(). */
struct FileStat
{
    InodeNum ino = 0;
    bool is_directory = false;
    std::uint64_t size = 0;
    std::uint32_t mode = 0644;
    std::uint32_t uid = 0;
    std::uint32_t gid = 0;
    std::uint64_t mtime_ns = 0;
    std::uint64_t ctime_ns = 0;
};

/** One directory entry. */
struct DirEntry
{
    std::string name;
    InodeNum ino = 0;
    bool is_directory = false;
};

/** Tunables; defaults model the prototype-era FFS. */
struct FfsParams
{
    std::uint32_t fs_block_bytes = 8192;
    std::uint32_t max_inodes = 4096;
    /// Largest device read issued at once. The era's UFS read
    /// block-at-a-time (8 KB), leaning on drive readahead to stream —
    /// which is why its cache-missing sequential reads reach only half
    /// of what NASD's extent-sized reads achieve (Figure 6).
    std::uint32_t cluster_bytes = 8 * 1024;
    /// Clusters prefetched ahead of a detected sequential stream.
    std::uint32_t readahead_clusters = 3;
    std::uint64_t buffer_cache_bytes = 16ull * 1024 * 1024;
    /// Writes at most this large are acknowledged before media update.
    std::uint64_t write_behind_limit = 64 * 1024;
    /// Per-byte copy cost charged to the host CPU (buffer cache to
    /// user). 2.77 cycles/byte makes a 133 MHz host read cached data
    /// at ~48 MB/s, the paper's FFS number.
    double copy_cycles_per_byte = 2.77;
    /// Fixed syscall + FS code path per operation, in instructions.
    std::uint64_t op_overhead_instr = 4000;
    /// L2 size; requests beyond this copy slower (Figure 6 droop).
    std::uint64_t l2_bytes = 512 * 1024;
    double l2_miss_copy_penalty = 1.35;
};

template <typename T>
using FsResult = util::Result<T, FsStatus>;

/** Operation counters for tests and benches. */
struct FfsStats
{
    explicit FfsStats(const std::string &prefix);

    util::Counter &reads;
    util::Counter &writes;
    util::Counter &creates;
    util::Counter &lookups;
    util::Counter &cache_hit_bytes;
    util::Counter &cache_miss_bytes;
    util::Counter &readahead_hits;
    util::Counter &readahead_defeats; ///< sequential detector misses
};

/** The filesystem (see file comment). */
class FfsFileSystem
{
  public:
    /**
     * @param host_cpu CPU charged for copies and op overhead; may be
     *        null (no CPU accounting, device time only).
     */
    FfsFileSystem(sim::Simulator &sim, disk::BlockDevice &device,
                  sim::CpuResource *host_cpu, FfsParams params = {});

    FfsFileSystem(const FfsFileSystem &) = delete;
    FfsFileSystem &operator=(const FfsFileSystem &) = delete;

    /** Create an empty filesystem (with a root directory). */
    sim::Task<void> format();

    // Namespace operations -------------------------------------------------

    sim::Task<FsResult<InodeNum>> create(InodeNum dir, std::string_view name);
    sim::Task<FsResult<InodeNum>> mkdir(InodeNum dir, std::string_view name);
    sim::Task<FsResult<InodeNum>> lookup(InodeNum dir,
                                         std::string_view name);
    sim::Task<FsResult<std::vector<DirEntry>>> readdir(InodeNum dir);
    sim::Task<FsResult<void>> unlink(InodeNum dir, std::string_view name);

    /** Resolve a '/'-separated path from the root. */
    sim::Task<FsResult<InodeNum>> resolve(std::string_view path);

    // File operations -------------------------------------------------------

    sim::Task<FsResult<FileStat>> stat(InodeNum ino);
    sim::Task<FsResult<std::uint64_t>> read(InodeNum ino,
                                            std::uint64_t offset,
                                            std::span<std::uint8_t> out);
    sim::Task<FsResult<void>> write(InodeNum ino, std::uint64_t offset,
                                    std::span<const std::uint8_t> data);
    sim::Task<FsResult<void>> truncate(InodeNum ino, std::uint64_t size);
    sim::Task<FsResult<void>> setMode(InodeNum ino, std::uint32_t mode,
                                      std::uint32_t uid, std::uint32_t gid);

    /** Push all dirty data to media. */
    sim::Task<void> sync();

    const FfsStats &stats() const { return stats_; }
    std::uint64_t freeBlocks() const;

  private:
    /// Stream trackers per file before readahead starts thrashing.
    static constexpr std::size_t kStreamSlots = 8;

    struct Inode
    {
        bool valid = false;
        bool is_directory = false;
        std::uint64_t size = 0;
        std::uint32_t mode = 0644;
        std::uint32_t uid = 0;
        std::uint32_t gid = 0;
        std::uint64_t mtime_ns = 0;
        std::uint64_t ctime_ns = 0;
        /// Block map: fs-block index -> device fs-block number.
        /// (The indirect structure is modeled for size accounting; the
        /// map itself is the authoritative translation.)
        std::vector<std::uint32_t> blocks;

        /// Sequential-read detector: a small table of concurrent
        /// stream trackers. When more streams hit one file than the
        /// table holds, readahead thrashes — the Figure 9 "NFS"
        /// single-file degradation.
        struct Stream
        {
            std::uint64_t last_end = 0;
            std::uint64_t prefetch_end = 0;
            std::uint64_t last_use = 0;
        };
        /// A fixed table: a reader holds its Stream* across co_await,
        /// so the trackers must never move. The first stream_count
        /// are in use.
        std::array<Stream, kStreamSlots> streams{};
        std::size_t stream_count = 0;
    };

    static constexpr std::uint32_t kDirectBlocks = 12;

    std::uint32_t deviceBlocksPerFsBlock() const;
    std::uint64_t fsBlockToDeviceBlock(std::uint32_t fs_block) const;

    /** Charge op overhead + per-byte copy cost to the host CPU. */
    sim::Task<void> chargeCpu(std::uint64_t bytes);

    /** Number of indirect-block fetches implied by touching
     *  fs-block index @p index of a file (0, 1, or 2). */
    std::uint32_t indirectDepth(std::uint64_t index) const;

    /** Ensure metadata blocks for @p inode's block @p index are
     *  resident (charges device reads on miss). */
    sim::Task<void> touchBlockMap(Inode &inode, std::uint64_t index);

    FsResult<std::uint32_t> allocBlock(std::uint32_t hint);
    void freeBlock(std::uint32_t block);

    /** Grow @p inode to cover @p blocks fs blocks. */
    FsResult<void> growFile(Inode &inode, std::uint64_t blocks);

    /** Read file data with cluster-granular device access. */
    sim::Task<void> readBlocks(Inode &inode, std::uint64_t offset,
                               std::span<std::uint8_t> out);

    sim::Task<void> writeBlocks(Inode &inode, std::uint64_t offset,
                                std::span<const std::uint8_t> data,
                                bool wait_for_media);

    // Directory helpers (directory contents are file data).
    sim::Task<FsResult<std::vector<DirEntry>>> loadDir(InodeNum dir);
    sim::Task<FsResult<void>> storeDir(InodeNum dir,
                                       const std::vector<DirEntry> &entries);

    sim::Task<FsResult<InodeNum>> createNode(InodeNum dir,
                                             std::string_view name,
                                             bool directory);

    sim::Simulator &sim_;
    disk::BlockDevice &device_;
    sim::CpuResource *host_cpu_;
    FfsParams params_;
    FfsStats stats_;

    std::vector<Inode> inodes_;
    std::vector<bool> block_bitmap_;
    std::uint32_t data_start_fs_block_ = 0;
    std::uint32_t total_fs_blocks_ = 0;
    std::uint32_t free_fs_blocks_ = 0;
    std::uint32_t next_alloc_hint_ = 0;
    std::uint64_t stream_clock_ = 0; ///< LRU clock for stream trackers

    /// Resident fs blocks (timing only).
    std::unique_ptr<util::LruSet> cache_;
};

} // namespace nasd::fs

#endif // NASD_FS_FFS_FFS_H_
