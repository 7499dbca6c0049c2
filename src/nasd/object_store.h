/**
 * @file
 * The NASD drive's object system (Section 4.2).
 *
 * Exports a flat namespace of variable-length objects grouped into
 * soft, resizable partitions, with per-object attributes including an
 * uninterpreted filesystem-specific field, logical version numbers for
 * capability revocation, capacity reservation, and copy-on-write
 * object versions. This is the component the paper sizes at ~16 kLoC
 * in its prototype: object access, cache, and disk space management,
 * independent of the host OS.
 *
 * Layout on the underlying block device:
 *
 *   block 0                superblock (partition table, region map)
 *   refcount region        one byte per allocation unit
 *   inode region           one 512 B inode block per object slot
 *   data region            8 KB allocation units
 *
 * Bytes are real and persistent: mount() rebuilds the full store from
 * the device. Simulated time is charged through the device for media
 * traffic and through the unit cache for drive-DRAM hits.
 */
#ifndef NASD_NASD_OBJECT_STORE_H_
#define NASD_NASD_OBJECT_STORE_H_

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "disk/block_device.h"
#include "nasd/allocator.h"
#include "nasd/types.h"
#include "sim/simulator.h"
#include "sim/task.h"
#include "util/attribution.h"
#include "util/byte_sink.h"
#include "util/lru_set.h"
#include "util/result.h"
#include "util/stats.h"

namespace nasd {

/** Geometry and caching configuration of an object store. */
struct StoreConfig
{
    std::uint32_t alloc_unit_bytes = 8192;
    std::uint32_t max_inodes = 8192;
    /// Drive DRAM available for caching object data.
    std::uint64_t data_cache_bytes = 32ull * 1024 * 1024;
    /// Number of inodes whose metadata stays cached.
    std::uint32_t meta_cache_inodes = 2048;
};

/**
 * The caller's buffer that a drive read lands in, shared by every
 * attempt of one client read (NasdClient::read). An attempt copies into
 * @ref out only while @ref live holds its id. The client gives each
 * attempt a fresh id and sets @ref live to 0 before the read returns,
 * so an attempt that timed out, was superseded or arrived as a
 * duplicate still pays all of its simulated time but writes nothing.
 */
struct ReadLanding
{
    std::span<std::uint8_t> out;
    std::uint64_t live = 0; ///< id of the attempt that may write; 0: none
};

/**
 * The bytes of one client write, shared by every attempt of one
 * NasdClient::write: the write-side twin of ReadLanding. @ref bytes
 * views the caller's buffer while the write is in progress. If the
 * write returns while an attempt's delivery is still running (timed
 * out, delayed or duplicated), the client calls keep(), and the
 * attempt then lands the same bytes from @ref kept after the caller's
 * buffer is gone. The store reads @ref bytes only at the instant it
 * lands them, never across a suspension.
 */
struct WriteSource
{
    std::span<const std::uint8_t> bytes;
    std::vector<std::uint8_t> kept; ///< empty unless keep() was called

    /** Copy the bytes into @ref kept and view them there. */
    void
    keep()
    {
        kept.assign(bytes.begin(), bytes.end());
        bytes = kept;
    }
};

/** What one store operation touched; drives cost accounting. */
struct OpTrace
{
    bool meta_miss = false;
    std::uint64_t device_bytes_read = 0;
    std::uint64_t device_bytes_written = 0;
    std::uint64_t cache_hit_bytes = 0;
    /** When set, synchronous device I/O on the op's path charges its
     *  waits and service phases here (write-behind media drains and
     *  other spawned work are excluded: the op does not wait on them). */
    util::OpAttribution *attr = nullptr;
    /** When set, a span read copies into its buffer only while
     *  landing->live == attempt (see ReadLanding). */
    const ReadLanding *landing = nullptr;
    std::uint64_t attempt = 0;
    /** When set, a write lands source->bytes, read when they land (see
     *  WriteSource); its data span gives only their count. */
    const WriteSource *source = nullptr;
};

/** Aggregate counters for tests and benchmarks; registry-backed under
 *  "<prefix>/..." in the current util::MetricsRegistry. */
struct StoreStats
{
    explicit StoreStats(const std::string &prefix);

    util::Counter &reads;
    util::Counter &writes;
    util::Counter &creates;
    util::Counter &removes;
    util::Counter &clones;
    util::Counter &meta_misses;
    util::Counter &cache_hit_bytes;
    util::Counter &cache_miss_bytes;
};

/** Attribute updates applied by setAttributes. */
struct SetAttrRequest
{
    std::optional<std::uint64_t> reserve_capacity;
    std::optional<std::uint64_t> truncate_size;
    std::optional<std::array<std::uint8_t, kFsSpecificBytes>> fs_specific;
    std::optional<std::uint64_t> cluster_hint;
    bool bump_version = false; ///< revokes outstanding capabilities
};

/** Summary of one partition's allocation state. */
struct PartitionInfo
{
    std::uint64_t quota_bytes = 0;
    std::uint64_t used_bytes = 0;
    std::uint32_t object_count = 0;
    std::uint32_t key_epoch = 0;
};

template <typename T>
using StoreResult = util::Result<T, NasdStatus>;

/** The object system of one NASD drive (see file comment). */
class ObjectStore
{
  public:
    ObjectStore(sim::Simulator &sim, disk::BlockDevice &device,
                StoreConfig config = {});

    ObjectStore(const ObjectStore &) = delete;
    ObjectStore &operator=(const ObjectStore &) = delete;

    /** Write a fresh, empty store to the device. */
    sim::Task<void> format();

    /** Rebuild all in-memory state from the device. */
    sim::Task<void> mount();

    bool mounted() const { return mounted_; }

    // Partition administration (drive-owner operations) ------------------

    [[nodiscard]] StoreResult<void> createPartition(PartitionId pid,
                                      std::uint64_t quota_bytes);
    [[nodiscard]] StoreResult<void> resizePartition(PartitionId pid,
                                      std::uint64_t quota_bytes);
    [[nodiscard]] StoreResult<void> removePartition(PartitionId pid);
    [[nodiscard]] StoreResult<PartitionInfo>
    partitionInfo(PartitionId pid) const;

    /** Bump a partition's working-key epoch (set-key request). */
    [[nodiscard]] StoreResult<void> rotateKeyEpoch(PartitionId pid);

    // Object operations ---------------------------------------------------

    /**
     * Create an object; @p capacity_hint bytes are reserved up front
     * (clustered, contiguous when possible).
     */
    sim::Task<StoreResult<ObjectId>>
    createObject(PartitionId pid, std::uint64_t capacity_hint,
                 OpTrace *trace = nullptr);

    sim::Task<StoreResult<void>> removeObject(PartitionId pid, ObjectId oid,
                                              OpTrace *trace = nullptr);

    /**
     * Read up to @p length bytes at @p offset: hand each piece to
     * @p sink where it lies in the device's image, in offset order,
     * the instant the device delivers it (a hole as zeros). Returns
     * the byte count actually read (clamped at end of object), which
     * the pieces total.
     */
    sim::Task<StoreResult<std::uint64_t>>
    read(PartitionId pid, ObjectId oid, std::uint64_t offset,
         std::uint64_t length, util::ByteSink sink,
         OpTrace *trace = nullptr);

    /**
     * Read up to @p out.size() bytes at @p offset into @p out: the
     * read above with a sink that copies. With @p trace->landing set,
     * each piece is copied only if the attempt is still live at that
     * instant.
     */
    sim::Task<StoreResult<std::uint64_t>>
    read(PartitionId pid, ObjectId oid, std::uint64_t offset,
         std::span<std::uint8_t> out, OpTrace *trace = nullptr);

    /** Write @p data at @p offset, extending the object as needed.
     *  With @p trace->source set, the bytes come from it instead. */
    sim::Task<StoreResult<void>>
    write(PartitionId pid, ObjectId oid, std::uint64_t offset,
          std::span<const std::uint8_t> data, OpTrace *trace = nullptr);

    sim::Task<StoreResult<ObjectAttributes>>
    getAttributes(PartitionId pid, ObjectId oid, OpTrace *trace = nullptr);

    sim::Task<StoreResult<ObjectAttributes>>
    setAttributes(PartitionId pid, ObjectId oid, const SetAttrRequest &req,
                  OpTrace *trace = nullptr);

    /**
     * Construct a copy-on-write version of @p oid: a new object
     * sharing every extent; writes to either copy then relocate the
     * written extents.
     */
    sim::Task<StoreResult<ObjectId>>
    cloneVersion(PartitionId pid, ObjectId oid, OpTrace *trace = nullptr);

    /** All allocated object names in the partition (the well-known
     *  object directory's contents). */
    sim::Task<StoreResult<std::vector<ObjectId>>>
    listObjects(PartitionId pid, OpTrace *trace = nullptr);

    /** Push all write-behind data to media. */
    sim::Task<void> flushAll();

    /**
     * Zero-time version lookup used by capability verification (the
     * drive pays the metadata fetch inside the operation itself).
     */
    [[nodiscard]] StoreResult<ObjectVersion> peekVersion(PartitionId pid,
                                           ObjectId oid) const;

    const StoreStats &stats() const { return stats_; }
    std::uint32_t allocUnitBytes() const { return config_.alloc_unit_bytes; }
    std::uint32_t freeUnits() const { return alloc_->freeUnits(); }
    const ExtentAllocator &allocator() const { return *alloc_; }

  private:
    struct Inode
    {
        bool valid = false;
        PartitionId partition = 0;
        ObjectId id = 0;
        ObjectAttributes attrs;
        std::vector<Extent> extents;
    };

    /** Inode slots, materialised on first use in fixed-size chunks
     *  that never move: an Inode & stays valid while the table grows
     *  (ops hold one across co_await, and cloneVersion claims a slot
     *  while holding its source). */
    class InodeTable
    {
      public:
        Inode &operator[](std::uint32_t index)
        {
            return (*chunks_[index / kChunk])[index % kChunk];
        }
        const Inode &operator[](std::uint32_t index) const
        {
            return (*chunks_[index / kChunk])[index % kChunk];
        }
        /** Slots materialised so far: [0, size()). */
        std::uint32_t size() const { return size_; }
        /** Materialise slot size() and return its index. */
        std::uint32_t append();
        void clear();

      private:
        static constexpr std::uint32_t kChunk = 64;
        std::vector<std::unique_ptr<std::array<Inode, kChunk>>> chunks_;
        std::uint32_t size_ = 0;
    };

    struct Partition
    {
        bool valid = false;
        std::uint64_t quota_units = 0;
        std::uint64_t used_units = 0;
        std::uint32_t object_count = 0;
        std::uint32_t key_epoch = 0;
    };

    // --- lookups ---------------------------------------------------------

    [[nodiscard]] StoreResult<std::uint32_t>
    findInode(PartitionId pid, ObjectId oid) const;

    /** Take a free inode slot: the one freed last, else the lowest
     *  never used; kNoSpace when all max_inodes slots are in use. */
    [[nodiscard]] StoreResult<std::uint32_t> claimSlot();

    /** Charge a metadata fetch if the inode is not resident. */
    sim::Task<void> touchInode(std::uint32_t index, OpTrace *trace);

    // --- geometry ---------------------------------------------------------

    std::uint32_t blocksPerUnit() const;
    std::uint64_t unitStartByte(std::uint32_t unit) const;
    std::uint64_t inodeBlock(std::uint32_t index) const;

    /** Map logical unit number @p logical of @p inode to its physical
     *  unit. @pre logical < total units of the object. */
    std::uint32_t physicalUnit(const Inode &inode,
                               std::uint64_t logical) const;

    std::uint64_t
    unitsForBytes(std::uint64_t bytes) const
    {
        return (bytes + config_.alloc_unit_bytes - 1) /
               config_.alloc_unit_bytes;
    }

    // --- data path ---------------------------------------------------------

    /** Read [offset, offset+length) of the object's data with cache
     *  accounting; the bytes go to @p sink. */
    sim::Task<void> readRange(const Inode &inode, std::uint64_t offset,
                              std::uint64_t length, util::ByteSink sink,
                              OpTrace *trace);

    /** Write @p data at @p offset; extents must already cover it and
     *  be exclusively owned. */
    sim::Task<void> writeRange(const Inode &inode, std::uint64_t offset,
                               std::span<const std::uint8_t> data,
                               OpTrace *trace);

    /** Grow the object to cover @p units total units. */
    [[nodiscard]] StoreResult<void> growObject(Inode &inode, std::uint64_t units);

    /** Copy-on-write: give the object exclusive ownership of every
     *  extent overlapping logical units [first, last]. */
    sim::Task<StoreResult<void>> ensureExclusive(Inode &inode,
                                                 std::uint64_t first_unit,
                                                 std::uint64_t last_unit,
                                                 OpTrace *trace);

    /** Drop all extents beyond @p units total units. */
    void shrinkObject(Inode &inode, std::uint64_t units);

    // --- persistence -------------------------------------------------------

    std::vector<std::uint8_t> encodeSuperblock() const;
    void decodeSuperblock(std::span<const std::uint8_t> block);
    std::vector<std::uint8_t> encodeInode(const Inode &inode) const;
    Inode decodeInode(std::span<const std::uint8_t> block) const;

    /** Queue an asynchronous metadata write-back of the superblock. */
    void writeBackSuperblock();
    /** Queue an asynchronous write-back of one inode block. */
    void writeBackInode(std::uint32_t index);
    /** Queue an asynchronous write-back of the refcount region. */
    void writeBackRefcounts();

    sim::Simulator &sim_;
    disk::BlockDevice &device_;
    StoreConfig config_;
    StoreStats stats_;
    bool mounted_ = false;

    // Region geometry (blocks), fixed at format time.
    std::uint64_t refcount_start_block_ = 0;
    std::uint64_t refcount_blocks_ = 0;
    std::uint64_t inode_start_block_ = 0;
    std::uint64_t data_start_block_ = 0;
    std::uint32_t num_units_ = 0;

    std::array<Partition, 16> partitions_{};
    InodeTable inodes_;
    std::map<std::pair<PartitionId, ObjectId>, std::uint32_t> index_;
    /// Free slots below inodes_.size(), reused last in first out;
    /// slots from inodes_.size() up are free and never used.
    std::vector<std::uint32_t> freed_slots_;
    std::unique_ptr<ExtentAllocator> alloc_;
    ObjectId next_object_id_ = kFirstUserObject;

    /// Resident data units and inodes (timing only; bytes live on the
    /// device's backing store).
    std::unique_ptr<util::LruSet> data_cache_;
    std::unique_ptr<util::LruSet> meta_cache_;
};

} // namespace nasd

#endif // NASD_NASD_OBJECT_STORE_H_
