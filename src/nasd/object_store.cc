#include "nasd/object_store.h"

#include <algorithm>

#include "util/codec.h"
#include "util/logging.h"
#include "util/metrics.h"

namespace nasd {

StoreStats::StoreStats(const std::string &prefix)
    : reads(util::metrics().counter(prefix + "/reads")),
      writes(util::metrics().counter(prefix + "/writes")),
      creates(util::metrics().counter(prefix + "/creates")),
      removes(util::metrics().counter(prefix + "/removes")),
      clones(util::metrics().counter(prefix + "/clones")),
      meta_misses(util::metrics().counter(prefix + "/meta_misses")),
      cache_hit_bytes(util::metrics().counter(prefix + "/cache_hit_bytes")),
      cache_miss_bytes(
          util::metrics().counter(prefix + "/cache_miss_bytes"))
{}

namespace {

constexpr std::uint64_t kSuperblockMagic = 0x4e41534431564f42ull;
constexpr std::uint32_t kMaxInlineExtents = 47;
constexpr std::uint32_t kInodeBytes = 512;

} // namespace

// -------------------------------------------------------------- InodeTable

std::uint32_t
ObjectStore::InodeTable::append()
{
    if (size_ % kChunk == 0)
        chunks_.push_back(std::make_unique<std::array<Inode, kChunk>>());
    return size_++;
}

void
ObjectStore::InodeTable::clear()
{
    chunks_.clear();
    size_ = 0;
}

// ------------------------------------------------------------ construction

ObjectStore::ObjectStore(sim::Simulator &sim, disk::BlockDevice &device,
                         StoreConfig config)
    : sim_(sim), device_(device), config_(config),
      stats_(util::metrics().uniquePrefix("store"))
{
    NASD_ASSERT(config_.alloc_unit_bytes % device_.blockSize() == 0,
                "allocation unit must be a multiple of the block size");

    // Carve the device into regions.
    const std::uint32_t bs = device_.blockSize();
    const std::uint32_t bpu = config_.alloc_unit_bytes / bs;
    const std::uint64_t total_blocks = device_.numBlocks();

    // Estimate units, then refine once for the refcount region size.
    std::uint64_t units = total_blocks / bpu;
    for (int pass = 0; pass < 2; ++pass) {
        const std::uint64_t refcount_blocks = (units + bs - 1) / bs;
        const std::uint64_t meta_blocks =
            1 + refcount_blocks + config_.max_inodes;
        NASD_ASSERT(total_blocks > meta_blocks, "device too small");
        units = (total_blocks - meta_blocks) / bpu;
    }

    num_units_ = static_cast<std::uint32_t>(units);
    refcount_start_block_ = 1;
    refcount_blocks_ = (num_units_ + bs - 1) / bs;
    inode_start_block_ = refcount_start_block_ + refcount_blocks_;
    data_start_block_ = inode_start_block_ + config_.max_inodes;

    alloc_ = std::make_unique<ExtentAllocator>(num_units_);
    data_cache_ = std::make_unique<util::LruSet>(std::max<std::size_t>(
        1, config_.data_cache_bytes / config_.alloc_unit_bytes));
    meta_cache_ = std::make_unique<util::LruSet>(config_.meta_cache_inodes);
}

std::uint32_t
ObjectStore::blocksPerUnit() const
{
    return config_.alloc_unit_bytes / device_.blockSize();
}

std::uint64_t
ObjectStore::unitStartByte(std::uint32_t unit) const
{
    return (data_start_block_ +
            static_cast<std::uint64_t>(unit) * blocksPerUnit()) *
           device_.blockSize();
}

std::uint64_t
ObjectStore::inodeBlock(std::uint32_t index) const
{
    return inode_start_block_ + index;
}

// ------------------------------------------------------------- persistence

std::vector<std::uint8_t>
ObjectStore::encodeSuperblock() const
{
    std::vector<std::uint8_t> out;
    util::Encoder enc(out);
    enc.put<std::uint64_t>(kSuperblockMagic);
    enc.put<std::uint32_t>(config_.alloc_unit_bytes);
    enc.put<std::uint32_t>(config_.max_inodes);
    enc.put<std::uint32_t>(num_units_);
    enc.put<std::uint64_t>(next_object_id_);
    for (const auto &p : partitions_) {
        enc.put<std::uint8_t>(p.valid ? 1 : 0);
        enc.put<std::uint64_t>(p.quota_units);
        enc.put<std::uint64_t>(p.used_units);
        enc.put<std::uint32_t>(p.object_count);
        enc.put<std::uint32_t>(p.key_epoch);
    }
    enc.padTo(device_.blockSize());
    return out;
}

void
ObjectStore::decodeSuperblock(std::span<const std::uint8_t> block)
{
    util::Decoder dec(block);
    const auto magic = dec.get<std::uint64_t>();
    NASD_ASSERT(magic == kSuperblockMagic, "bad superblock magic");
    const auto unit_bytes = dec.get<std::uint32_t>();
    const auto max_inodes = dec.get<std::uint32_t>();
    const auto units = dec.get<std::uint32_t>();
    NASD_ASSERT(unit_bytes == config_.alloc_unit_bytes &&
                    max_inodes == config_.max_inodes &&
                    units == num_units_,
                "store geometry mismatch on mount");
    next_object_id_ = dec.get<std::uint64_t>();
    for (auto &p : partitions_) {
        p.valid = dec.get<std::uint8_t>() != 0;
        p.quota_units = dec.get<std::uint64_t>();
        p.used_units = dec.get<std::uint64_t>();
        p.object_count = dec.get<std::uint32_t>();
        p.key_epoch = dec.get<std::uint32_t>();
    }
}

std::vector<std::uint8_t>
ObjectStore::encodeInode(const Inode &inode) const
{
    std::vector<std::uint8_t> out;
    util::Encoder enc(out);
    enc.put<std::uint8_t>(inode.valid ? 1 : 0);
    enc.put<std::uint16_t>(inode.partition);
    enc.put<std::uint64_t>(inode.id);
    enc.put<std::uint32_t>(inode.attrs.version);
    enc.put<std::uint64_t>(inode.attrs.size);
    enc.put<std::uint64_t>(inode.attrs.capacity);
    enc.put<std::uint64_t>(inode.attrs.create_time);
    enc.put<std::uint64_t>(inode.attrs.modify_time);
    enc.put<std::uint64_t>(inode.attrs.attr_modify_time);
    enc.put<std::uint64_t>(inode.attrs.cluster_hint);
    enc.putBytes(inode.attrs.fs_specific);
    NASD_ASSERT(inode.extents.size() <= kMaxInlineExtents,
                "object too fragmented for inline extent list");
    enc.put<std::uint16_t>(static_cast<std::uint16_t>(inode.extents.size()));
    for (const auto &e : inode.extents) {
        enc.put<std::uint32_t>(e.start);
        enc.put<std::uint32_t>(e.count);
    }
    enc.padTo(kInodeBytes);
    return out;
}

ObjectStore::Inode
ObjectStore::decodeInode(std::span<const std::uint8_t> block) const
{
    util::Decoder dec(block);
    Inode inode;
    inode.valid = dec.get<std::uint8_t>() != 0;
    inode.partition = dec.get<std::uint16_t>();
    inode.id = dec.get<std::uint64_t>();
    inode.attrs.version = dec.get<std::uint32_t>();
    inode.attrs.size = dec.get<std::uint64_t>();
    inode.attrs.capacity = dec.get<std::uint64_t>();
    inode.attrs.create_time = dec.get<std::uint64_t>();
    inode.attrs.modify_time = dec.get<std::uint64_t>();
    inode.attrs.attr_modify_time = dec.get<std::uint64_t>();
    inode.attrs.cluster_hint = dec.get<std::uint64_t>();
    dec.getBytes(inode.attrs.fs_specific);
    const auto count = dec.get<std::uint16_t>();
    inode.extents.resize(count);
    for (auto &e : inode.extents) {
        e.start = dec.get<std::uint32_t>();
        e.count = dec.get<std::uint32_t>();
    }
    return inode;
}

void
ObjectStore::writeBackSuperblock()
{
    device_.poke(0, encodeSuperblock()); // bytes land immediately
    sim_.spawn(device_.writeBack(0, 1));
}

void
ObjectStore::writeBackInode(std::uint32_t index)
{
    device_.poke(inodeBlock(index) * device_.blockSize(),
                 encodeInode(inodes_[index]));
    sim_.spawn(device_.writeBack(inodeBlock(index), 1));
    meta_cache_->insert(index);
}

void
ObjectStore::writeBackRefcounts()
{
    // Land the units changed since the last write-back (the image holds
    // every other count already), but charge the media write of the
    // whole region; it is small (1 byte per 8 KB of data) and this
    // happens only on allocate/free paths. The region's tail past the
    // last unit stays as format() zeroed it.
    const Extent dirty = alloc_->takeDirty();
    if (dirty.count > 0) {
        std::vector<std::uint8_t> bytes(dirty.count);
        alloc_->copyRefcounts(dirty.start, bytes);
        device_.poke(refcount_start_block_ * device_.blockSize() +
                         dirty.start,
                     bytes);
    }
    sim_.spawn(device_.writeBack(
        refcount_start_block_, static_cast<std::uint32_t>(refcount_blocks_)));
}

sim::Task<void>
ObjectStore::format()
{
    // Reset in-memory state.
    partitions_ = {};
    index_.clear();
    next_object_id_ = kFirstUserObject;
    alloc_ = std::make_unique<ExtentAllocator>(num_units_);
    inodes_.clear();
    freed_slots_.clear();

    // Superblock + refcount region.
    const std::uint32_t bs = device_.blockSize();
    co_await device_.write(0, 1, encodeSuperblock());
    device_.zero(refcount_start_block_ * bs, refcount_blocks_ * bs);
    co_await device_.writeBack(refcount_start_block_,
                               static_cast<std::uint32_t>(refcount_blocks_));
    // Inode region: write invalid (all-zero) inodes in batches.
    const std::uint32_t batch = 256;
    for (std::uint32_t i = 0; i < config_.max_inodes; i += batch) {
        const std::uint32_t n = std::min(batch, config_.max_inodes - i);
        device_.zero((inode_start_block_ + i) * bs,
                     static_cast<std::uint64_t>(n) * bs);
        co_await device_.writeBack(inode_start_block_ + i, n);
    }
    mounted_ = true;
}

sim::Task<void>
ObjectStore::mount()
{
    const std::uint32_t bs = device_.blockSize();

    std::vector<std::uint8_t> sb(bs);
    co_await device_.read(0, 1, sb);
    decodeSuperblock(sb);

    std::vector<std::uint8_t> region(refcount_blocks_ * bs);
    co_await device_.read(refcount_start_block_,
                          static_cast<std::uint32_t>(refcount_blocks_),
                          region);
    alloc_ = std::make_unique<ExtentAllocator>(ExtentAllocator::fromRefcounts(
        std::span<const std::uint8_t>(region).first(num_units_)));

    // Every slot's block is read (and charged); only slots up to the
    // highest valid one are kept, and the holes below it are freed in
    // ascending order of reuse.
    index_.clear();
    inodes_.clear();
    freed_slots_.clear();
    std::vector<std::uint8_t> block(bs);
    for (std::uint32_t i = 0; i < config_.max_inodes; ++i) {
        co_await device_.read(inodeBlock(i), 1, block);
        Inode inode = decodeInode(block);
        if (!inode.valid)
            continue;
        while (inodes_.size() <= i)
            inodes_.append();
        index_[{inode.partition, inode.id}] = i;
        inodes_[i] = std::move(inode);
    }
    for (std::uint32_t i = inodes_.size(); i > 0; --i) {
        if (!inodes_[i - 1].valid)
            freed_slots_.push_back(i - 1);
    }
    mounted_ = true;
}

// --------------------------------------------------------------- partitions

util::Result<void, NasdStatus>
ObjectStore::createPartition(PartitionId pid, std::uint64_t quota_bytes)
{
    if (pid >= partitions_.size())
        return util::Err{NasdStatus::kNoSuchPartition};
    if (partitions_[pid].valid)
        return util::Err{NasdStatus::kPartitionExists};
    partitions_[pid] = Partition{};
    partitions_[pid].valid = true;
    partitions_[pid].quota_units = unitsForBytes(quota_bytes);
    writeBackSuperblock();
    return {};
}

util::Result<void, NasdStatus>
ObjectStore::resizePartition(PartitionId pid, std::uint64_t quota_bytes)
{
    if (pid >= partitions_.size() || !partitions_[pid].valid)
        return util::Err{NasdStatus::kNoSuchPartition};
    const std::uint64_t new_quota = unitsForBytes(quota_bytes);
    if (new_quota < partitions_[pid].used_units)
        return util::Err{NasdStatus::kQuotaExceeded};
    partitions_[pid].quota_units = new_quota;
    writeBackSuperblock();
    return {};
}

util::Result<void, NasdStatus>
ObjectStore::removePartition(PartitionId pid)
{
    if (pid >= partitions_.size() || !partitions_[pid].valid)
        return util::Err{NasdStatus::kNoSuchPartition};
    if (partitions_[pid].object_count > 0)
        return util::Err{NasdStatus::kPartitionNotEmpty};
    partitions_[pid].valid = false;
    writeBackSuperblock();
    return {};
}

util::Result<PartitionInfo, NasdStatus>
ObjectStore::partitionInfo(PartitionId pid) const
{
    if (pid >= partitions_.size() || !partitions_[pid].valid)
        return util::Err{NasdStatus::kNoSuchPartition};
    const auto &p = partitions_[pid];
    PartitionInfo info;
    info.quota_bytes = p.quota_units * config_.alloc_unit_bytes;
    info.used_bytes = p.used_units * config_.alloc_unit_bytes;
    info.object_count = p.object_count;
    info.key_epoch = p.key_epoch;
    return info;
}

util::Result<void, NasdStatus>
ObjectStore::rotateKeyEpoch(PartitionId pid)
{
    if (pid >= partitions_.size() || !partitions_[pid].valid)
        return util::Err{NasdStatus::kNoSuchPartition};
    ++partitions_[pid].key_epoch;
    writeBackSuperblock();
    return {};
}

// ------------------------------------------------------------------ lookups

util::Result<std::uint32_t, NasdStatus>
ObjectStore::findInode(PartitionId pid, ObjectId oid) const
{
    if (pid >= partitions_.size() || !partitions_[pid].valid)
        return util::Err{NasdStatus::kNoSuchPartition};
    const auto it = index_.find({pid, oid});
    if (it == index_.end())
        return util::Err{NasdStatus::kNoSuchObject};
    return it->second;
}

util::Result<std::uint32_t, NasdStatus>
ObjectStore::claimSlot()
{
    if (!freed_slots_.empty()) {
        const std::uint32_t index = freed_slots_.back();
        freed_slots_.pop_back();
        return index;
    }
    if (inodes_.size() == config_.max_inodes)
        return util::Err{NasdStatus::kNoSpace};
    return inodes_.append();
}

sim::Task<void>
ObjectStore::touchInode(std::uint32_t index, OpTrace *trace)
{
    if (meta_cache_->touch(index))
        co_return;
    // Metadata miss: fetch the inode block from the device.
    std::vector<std::uint8_t> block(device_.blockSize());
    co_await device_.read(inodeBlock(index), 1, block,
                          trace != nullptr ? trace->attr : nullptr);
    meta_cache_->insert(index);
    stats_.meta_misses.add();
    if (trace != nullptr) {
        trace->meta_miss = true;
        trace->device_bytes_read += block.size();
    }
}

std::uint32_t
ObjectStore::physicalUnit(const Inode &inode, std::uint64_t logical) const
{
    std::uint64_t skipped = 0;
    for (const auto &e : inode.extents) {
        if (logical < skipped + e.count)
            return e.start + static_cast<std::uint32_t>(logical - skipped);
        skipped += e.count;
    }
    NASD_PANIC("logical unit ", logical, " beyond object extents");
}

// ---------------------------------------------------------------- data path

sim::Task<void>
ObjectStore::readRange(const Inode &inode, std::uint64_t offset,
                       std::uint64_t length, util::ByteSink sink,
                       OpTrace *trace)
{
    if (length == 0)
        co_return;
    const std::uint64_t ub = config_.alloc_unit_bytes;
    const std::uint64_t end = offset + length;
    const std::uint64_t first = offset / ub;
    const std::uint64_t last = (end - 1) / ub;

    std::uint64_t allocated_units = 0;
    for (const auto &e : inode.extents)
        allocated_units += e.count;

    struct UnitRef
    {
        std::uint64_t logical;
        std::uint32_t phys;
        bool hit;
        bool hole;
    };
    std::vector<UnitRef> units;
    units.reserve(static_cast<std::size_t>(last - first + 1));
    for (std::uint64_t l = first; l <= last; ++l) {
        UnitRef ref{l, 0, false, l >= allocated_units};
        if (!ref.hole) {
            ref.phys = physicalUnit(inode, l);
            ref.hit = data_cache_->touch(ref.phys);
        }
        units.push_back(ref);
    }

    // Deliver one logical unit's piece of the request.
    const auto deliverPiece = [&](const UnitRef &ref) {
        const std::uint64_t u_start = ref.logical * ub;
        const std::uint64_t piece_start = std::max(offset, u_start);
        const std::uint64_t piece_end = std::min(end, u_start + ub);
        const std::uint64_t bytes = piece_end - piece_start;
        if (ref.hole) {
            util::sinkZeros(bytes, sink);
        } else {
            device_.view(unitStartByte(ref.phys) + (piece_start - u_start),
                         bytes, sink);
        }
        return bytes;
    };

    std::size_t i = 0;
    while (i < units.size()) {
        if (units[i].hole || units[i].hit) {
            const auto bytes = deliverPiece(units[i]);
            if (units[i].hit) {
                stats_.cache_hit_bytes.add(bytes);
                if (trace != nullptr)
                    trace->cache_hit_bytes += bytes;
            }
            ++i;
            continue;
        }
        // Coalesce physically contiguous misses into one device read.
        std::size_t j = i + 1;
        while (j < units.size() && !units[j].hit && !units[j].hole &&
               units[j].phys == units[i].phys + (j - i)) {
            ++j;
        }
        const auto run_units = static_cast<std::uint32_t>(j - i);
        const std::uint32_t bpu = blocksPerUnit();
        const std::uint64_t run_start = units[i].logical * ub;
        const std::uint64_t run_end = run_start + run_units * ub;
        const auto run_bytes = static_cast<std::size_t>(run_end - run_start);
        const std::uint64_t block =
            data_start_block_ + static_cast<std::uint64_t>(units[i].phys) * bpu;
        // Charge the whole run (the media transfer is unit-granular),
        // then hand the bytes the request covers to the sink straight
        // from the image, the instant the device delivers them.
        co_await device_.fetch(block, run_units * bpu,
                               trace != nullptr ? trace->attr : nullptr);
        const std::uint64_t lo = std::max(offset, run_start);
        const std::uint64_t hi = std::min(end, run_end);
        device_.view(unitStartByte(units[i].phys) + (lo - run_start), hi - lo,
                     sink);
        stats_.cache_miss_bytes.add(run_bytes);
        if (trace != nullptr)
            trace->device_bytes_read += run_bytes;
        for (std::size_t k = i; k < j; ++k)
            data_cache_->insert(units[k].phys);
        i = j;
    }
}

sim::Task<void>
ObjectStore::writeRange(const Inode &inode, std::uint64_t offset,
                        std::span<const std::uint8_t> data, OpTrace *trace)
{
    if (data.empty())
        co_return;
    const std::uint64_t ub = config_.alloc_unit_bytes;
    const std::uint64_t bs = device_.blockSize();
    const std::uint64_t end = offset + data.size();
    const std::uint64_t first = offset / ub;
    const std::uint64_t last = (end - 1) / ub;

    // Gather physically contiguous runs of the logical range.
    std::uint64_t l = first;
    std::uint64_t consumed = 0;
    while (l <= last) {
        const std::uint32_t phys = physicalUnit(inode, l);
        std::uint64_t run_len = 1;
        while (l + run_len <= last &&
               physicalUnit(inode, l + run_len) ==
                   phys + static_cast<std::uint32_t>(run_len)) {
            ++run_len;
        }

        // Byte range of this run that the request covers.
        const std::uint64_t run_l_start = l * ub;
        const std::uint64_t piece_start = std::max(offset, run_l_start);
        const std::uint64_t piece_end =
            std::min(end, (l + run_len) * ub);
        const std::uint64_t piece_bytes = piece_end - piece_start;
        const std::uint64_t phys_byte =
            unitStartByte(phys) + (piece_start - run_l_start);

        // Land the bytes, mark residency, and queue the media write.
        device_.poke(phys_byte,
                     data.subspan(static_cast<std::size_t>(consumed),
                                  static_cast<std::size_t>(piece_bytes)));
        for (std::uint64_t k = 0; k < run_len; ++k)
            data_cache_->insert(phys + static_cast<std::uint32_t>(k));

        const std::uint64_t aligned_start = phys_byte / bs * bs;
        const std::uint64_t aligned_end = (phys_byte + piece_bytes + bs - 1) /
                                          bs * bs;
        if (trace != nullptr)
            trace->device_bytes_written += aligned_end - aligned_start;
        sim_.spawn(device_.writeBack(
            aligned_start / bs,
            static_cast<std::uint32_t>((aligned_end - aligned_start) / bs)));

        consumed += piece_bytes;
        l += run_len;
    }
}

util::Result<void, NasdStatus>
ObjectStore::growObject(Inode &inode, std::uint64_t units)
{
    std::uint64_t have = 0;
    for (const auto &e : inode.extents)
        have += e.count;
    if (units <= have)
        return {};
    const std::uint64_t need = units - have;

    auto &part = partitions_[inode.partition];
    if (part.used_units + need > part.quota_units)
        return util::Err{NasdStatus::kQuotaExceeded};

    const std::uint32_t hint =
        inode.extents.empty()
            ? static_cast<std::uint32_t>(inode.attrs.cluster_hint %
                                         std::max(1u, num_units_))
            : inode.extents.back().start + inode.extents.back().count;
    auto result = alloc_->allocate(static_cast<std::uint32_t>(need), hint);
    if (!result.ok())
        return util::Err{result.error()};

    // Count the inline extents the allocation ends up needing (an
    // extent that continues the previous one merges into it) before
    // touching the inode, so a full table fails with nothing changed.
    std::size_t slots = inode.extents.size();
    std::uint64_t tail_end =
        inode.extents.empty()
            ? ~std::uint64_t{0}
            : std::uint64_t{inode.extents.back().start} +
                  inode.extents.back().count;
    for (const auto &e : result.value()) {
        slots += e.start == tail_end ? 0 : 1;
        tail_end = std::uint64_t{e.start} + e.count;
    }
    if (slots > kMaxInlineExtents) {
        for (const auto &e : result.value())
            alloc_->unref(e);
        NASD_WARN("object ", inode.id, " too fragmented; extent table full");
        return util::Err{NasdStatus::kNoSpace};
    }

    for (const auto &e : result.value()) {
        // Freshly allocated units may be recycled from removed
        // objects: zero them so never-written ranges read as zeros
        // (and so copy-on-write clones cannot leak stale data).
        device_.zero(unitStartByte(e.start),
                     static_cast<std::uint64_t>(e.count) *
                         config_.alloc_unit_bytes);

        if (!inode.extents.empty() &&
            inode.extents.back().start + inode.extents.back().count ==
                e.start) {
            inode.extents.back().count += e.count;
        } else {
            inode.extents.push_back(e);
        }
    }
    part.used_units += need;
    writeBackRefcounts();
    return {};
}

sim::Task<util::Result<void, NasdStatus>>
ObjectStore::ensureExclusive(Inode &inode, std::uint64_t first_unit,
                             std::uint64_t last_unit, OpTrace *trace)
{
    // Partition quota is a count of unit *references* held by the
    // partition's objects, so a COW relocation is quota-neutral: the
    // object trades shared references for exclusive ones. Real space
    // exhaustion surfaces as kNoSpace from the allocator.
    const std::uint64_t ub = config_.alloc_unit_bytes;
    bool touched_refcounts = false;

    for (std::size_t ei = 0; ei < inode.extents.size(); ++ei) {
        // Logical position of extent ei (extent list may grow as we
        // splice in fragmented replacements, so recompute each round).
        std::uint64_t e_first = 0;
        for (std::size_t k = 0; k < ei; ++k)
            e_first += inode.extents[k].count;
        const Extent e = inode.extents[ei];
        const std::uint64_t e_last = e_first + e.count - 1;
        if (e_last < first_unit || e_first > last_unit)
            continue;

        bool shared = false;
        for (std::uint32_t u = e.start; u < e.start + e.count; ++u) {
            if (alloc_->refcount(u) > 1) {
                shared = true;
                break;
            }
        }
        if (!shared)
            continue;

        // Relocate the whole extent (extent-granularity COW).
        auto fresh = alloc_->allocate(e.count, e.start);
        if (!fresh.ok())
            co_return util::Err{fresh.error()};
        if (inode.extents.size() - 1 + fresh.value().size() >
            kMaxInlineExtents) {
            for (const auto &ne : fresh.value())
                alloc_->unref(ne);
            co_return util::Err{NasdStatus::kNoSpace};
        }

        // Read the old data through the device (pays media time unless
        // cached), then land it at the new location.
        std::vector<std::uint8_t> buf(
            static_cast<std::size_t>(e.count) * ub);
        const std::uint32_t bpu = blocksPerUnit();
        bool all_cached = true;
        for (std::uint32_t u = e.start; u < e.start + e.count; ++u)
            all_cached = all_cached && data_cache_->touch(u);
        if (all_cached) {
            device_.peek(unitStartByte(e.start), buf);
            if (trace != nullptr)
                trace->cache_hit_bytes += buf.size();
        } else {
            co_await device_.read(
                data_start_block_ +
                    static_cast<std::uint64_t>(e.start) * bpu,
                e.count * bpu, buf,
                trace != nullptr ? trace->attr : nullptr);
            if (trace != nullptr)
                trace->device_bytes_read += buf.size();
        }

        // The replacement allocation may be fragmented; scatter the
        // copy and queue the media writes.
        std::size_t copied = 0;
        for (const auto &ne : fresh.value()) {
            const std::size_t bytes =
                static_cast<std::size_t>(ne.count) * ub;
            device_.poke(unitStartByte(ne.start),
                         std::span<const std::uint8_t>(buf.data() + copied,
                                                       bytes));
            sim_.spawn(device_.writeBack(
                data_start_block_ +
                    static_cast<std::uint64_t>(ne.start) * bpu,
                ne.count * bpu));
            if (trace != nullptr)
                trace->device_bytes_written += bytes;
            for (std::uint32_t u = ne.start; u < ne.start + ne.count; ++u)
                data_cache_->insert(u);
            copied += bytes;
        }

        alloc_->unref(e);
        touched_refcounts = true;

        // Splice the replacement extents into position ei.
        const auto &fresh_extents = fresh.value();
        inode.extents.erase(inode.extents.begin() +
                            static_cast<std::ptrdiff_t>(ei));
        inode.extents.insert(inode.extents.begin() +
                                 static_cast<std::ptrdiff_t>(ei),
                             fresh_extents.begin(), fresh_extents.end());
        ei += fresh_extents.size() - 1;
    }
    if (touched_refcounts)
        writeBackRefcounts();
    co_return util::Result<void, NasdStatus>{};
}

void
ObjectStore::shrinkObject(Inode &inode, std::uint64_t units)
{
    std::uint64_t have = 0;
    for (const auto &e : inode.extents)
        have += e.count;
    if (units >= have)
        return;
    std::uint64_t to_free = have - units;
    auto &part = partitions_[inode.partition];
    while (to_free > 0 && !inode.extents.empty()) {
        auto &tail = inode.extents.back();
        const auto take = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(to_free, tail.count));
        const Extent freed{tail.start + tail.count - take, take};
        for (std::uint32_t u = freed.start; u < freed.start + freed.count;
             ++u)
            data_cache_->erase(u);
        alloc_->unref(freed);
        tail.count -= take;
        if (tail.count == 0)
            inode.extents.pop_back();
        part.used_units -= take;
        to_free -= take;
    }
    writeBackRefcounts();
}

// ------------------------------------------------------------- object ops

sim::Task<util::Result<ObjectId, NasdStatus>>
ObjectStore::createObject(PartitionId pid, std::uint64_t capacity_hint,
                          OpTrace *trace)
{
    NASD_ASSERT(mounted_, "store not mounted");
    if (pid >= partitions_.size() || !partitions_[pid].valid)
        co_return util::Err{NasdStatus::kNoSuchPartition};
    auto slot = claimSlot();
    if (!slot.ok())
        co_return util::Err{slot.error()};

    const std::uint32_t index = slot.value();
    Inode &inode = inodes_[index];
    inode = Inode{};
    inode.valid = true;
    inode.partition = pid;
    inode.id = next_object_id_++;
    inode.attrs.version = 1;
    inode.attrs.capacity = capacity_hint;
    inode.attrs.create_time = sim_.now();
    inode.attrs.modify_time = sim_.now();
    inode.attrs.attr_modify_time = sim_.now();

    if (capacity_hint > 0) {
        auto grown = growObject(inode, unitsForBytes(capacity_hint));
        if (!grown.ok()) {
            inode.valid = false;
            freed_slots_.push_back(index);
            co_return util::Err{grown.error()};
        }
    }

    index_[{pid, inode.id}] = index;
    ++partitions_[pid].object_count;
    stats_.creates.add();

    writeBackInode(index);
    writeBackSuperblock();
    if (trace != nullptr)
        trace->device_bytes_written += kInodeBytes;
    co_return inode.id;
}

sim::Task<util::Result<void, NasdStatus>>
ObjectStore::removeObject(PartitionId pid, ObjectId oid, OpTrace *trace)
{
    NASD_ASSERT(mounted_, "store not mounted");
    auto found = findInode(pid, oid);
    if (!found.ok())
        co_return util::Err{found.error()};
    const std::uint32_t index = found.value();
    co_await touchInode(index, trace);

    Inode &inode = inodes_[index];
    auto &part = partitions_[pid];
    for (const auto &e : inode.extents) {
        for (std::uint32_t u = e.start; u < e.start + e.count; ++u)
            data_cache_->erase(u);
        alloc_->unref(e);
        part.used_units -= e.count;
    }
    inode = Inode{};
    index_.erase({pid, oid});
    freed_slots_.push_back(index);
    --part.object_count;
    stats_.removes.add();

    writeBackInode(index);
    writeBackRefcounts();
    writeBackSuperblock();
    co_return util::Result<void, NasdStatus>{};
}

sim::Task<util::Result<std::uint64_t, NasdStatus>>
ObjectStore::read(PartitionId pid, ObjectId oid, std::uint64_t offset,
                  std::uint64_t length, util::ByteSink sink, OpTrace *trace)
{
    NASD_ASSERT(mounted_, "store not mounted");
    auto found = findInode(pid, oid);
    if (!found.ok())
        co_return util::Err{found.error()};
    co_await touchInode(found.value(), trace);
    const Inode &inode = inodes_[found.value()];

    if (offset >= inode.attrs.size)
        co_return std::uint64_t{0};
    const std::uint64_t n =
        std::min<std::uint64_t>(length, inode.attrs.size - offset);
    co_await readRange(inode, offset, n, sink, trace);
    stats_.reads.add();
    co_return n;
}

sim::Task<util::Result<std::uint64_t, NasdStatus>>
ObjectStore::read(PartitionId pid, ObjectId oid, std::uint64_t offset,
                  std::span<std::uint8_t> out, OpTrace *trace)
{
    // A guarded read (OpTrace::landing) copies only while its attempt
    // is live; it is checked at every piece, since the caller may have
    // moved on during any device read.
    std::size_t landed = 0;
    const auto copy = [&](std::span<const std::uint8_t> piece) {
        if (trace == nullptr || trace->landing == nullptr ||
            trace->landing->live == trace->attempt)
            std::copy(piece.begin(), piece.end(), out.begin() + landed);
        landed += piece.size();
    };
    co_return co_await read(pid, oid, offset, out.size(), copy, trace);
}

sim::Task<util::Result<void, NasdStatus>>
ObjectStore::write(PartitionId pid, ObjectId oid, std::uint64_t offset,
                   std::span<const std::uint8_t> data, OpTrace *trace)
{
    NASD_ASSERT(mounted_, "store not mounted");
    auto found = findInode(pid, oid);
    if (!found.ok())
        co_return util::Err{found.error()};
    const std::uint32_t index = found.value();
    co_await touchInode(index, trace);
    Inode &inode = inodes_[index];

    if (data.empty())
        co_return util::Result<void, NasdStatus>{};

    const std::uint64_t end = offset + data.size();
    auto grown = growObject(inode, unitsForBytes(end));
    if (!grown.ok())
        co_return util::Err{grown.error()};

    const std::uint64_t ub = config_.alloc_unit_bytes;
    auto exclusive =
        co_await ensureExclusive(inode, offset / ub, (end - 1) / ub, trace);
    if (!exclusive.ok())
        co_return util::Err{exclusive.error()};

    // A client write's bytes may have moved into its WriteSource while
    // this op was suspended; writeRange lands them without suspending.
    const auto bytes = trace != nullptr && trace->source != nullptr
                           ? trace->source->bytes
                           : data;
    co_await writeRange(inode, offset, bytes, trace);
    inode.attrs.size = std::max(inode.attrs.size, end);
    inode.attrs.capacity = std::max(inode.attrs.capacity, end);
    inode.attrs.modify_time = sim_.now();
    writeBackInode(index);
    stats_.writes.add();
    co_return util::Result<void, NasdStatus>{};
}

sim::Task<util::Result<ObjectAttributes, NasdStatus>>
ObjectStore::getAttributes(PartitionId pid, ObjectId oid, OpTrace *trace)
{
    NASD_ASSERT(mounted_, "store not mounted");
    auto found = findInode(pid, oid);
    if (!found.ok())
        co_return util::Err{found.error()};
    co_await touchInode(found.value(), trace);
    co_return inodes_[found.value()].attrs;
}

sim::Task<util::Result<ObjectAttributes, NasdStatus>>
ObjectStore::setAttributes(PartitionId pid, ObjectId oid,
                           const SetAttrRequest &req, OpTrace *trace)
{
    NASD_ASSERT(mounted_, "store not mounted");
    auto found = findInode(pid, oid);
    if (!found.ok())
        co_return util::Err{found.error()};
    const std::uint32_t index = found.value();
    co_await touchInode(index, trace);
    Inode &inode = inodes_[index];

    if (req.reserve_capacity.has_value()) {
        auto grown = growObject(inode, unitsForBytes(*req.reserve_capacity));
        if (!grown.ok())
            co_return util::Err{grown.error()};
        inode.attrs.capacity =
            std::max(inode.attrs.capacity, *req.reserve_capacity);
    }
    if (req.truncate_size.has_value()) {
        if (*req.truncate_size < inode.attrs.size) {
            shrinkObject(inode, unitsForBytes(*req.truncate_size));
            // Zero the retained tail of the last unit so a later
            // extension reads zeros there, not stale bytes. The unit
            // may be shared with a copy-on-write clone, so make it
            // exclusive before touching it.
            const std::uint64_t ub = config_.alloc_unit_bytes;
            std::uint64_t allocated = 0;
            for (const auto &e : inode.extents)
                allocated += e.count;
            const std::uint64_t last_unit = *req.truncate_size / ub;
            if (*req.truncate_size % ub != 0 && last_unit < allocated) {
                auto exclusive = co_await ensureExclusive(
                    inode, last_unit, last_unit, trace);
                if (!exclusive.ok())
                    co_return util::Err{exclusive.error()};
                const std::uint64_t within = *req.truncate_size % ub;
                const std::uint32_t phys =
                    physicalUnit(inode, last_unit);
                device_.zero(unitStartByte(phys) + within, ub - within);
            }
        }
        inode.attrs.size = *req.truncate_size;
    }
    if (req.fs_specific.has_value())
        inode.attrs.fs_specific = *req.fs_specific;
    if (req.cluster_hint.has_value())
        inode.attrs.cluster_hint = *req.cluster_hint;
    if (req.bump_version)
        ++inode.attrs.version;
    inode.attrs.attr_modify_time = sim_.now();

    writeBackInode(index);
    co_return inode.attrs;
}

sim::Task<util::Result<ObjectId, NasdStatus>>
ObjectStore::cloneVersion(PartitionId pid, ObjectId oid, OpTrace *trace)
{
    NASD_ASSERT(mounted_, "store not mounted");
    auto found = findInode(pid, oid);
    if (!found.ok())
        co_return util::Err{found.error()};
    co_await touchInode(found.value(), trace);
    const Inode &src = inodes_[found.value()];

    auto slot = claimSlot();
    if (!slot.ok())
        co_return util::Err{slot.error()};
    const std::uint32_t index = slot.value();

    // Quota: the clone is charged for every (shared) unit it references.
    std::uint64_t total_units = 0;
    for (const auto &e : src.extents)
        total_units += e.count;
    auto &part = partitions_[pid];
    if (part.used_units + total_units > part.quota_units) {
        freed_slots_.push_back(index);
        co_return util::Err{NasdStatus::kQuotaExceeded};
    }

    Inode &clone = inodes_[index];
    clone = Inode{};
    clone.valid = true;
    clone.partition = pid;
    clone.id = next_object_id_++;
    clone.attrs = src.attrs;
    clone.attrs.version = 1;
    clone.attrs.create_time = sim_.now();
    clone.extents = src.extents;
    for (const auto &e : clone.extents)
        alloc_->ref(e);
    part.used_units += total_units;
    ++part.object_count;

    index_[{pid, clone.id}] = index;
    stats_.clones.add();
    writeBackInode(index);
    writeBackRefcounts();
    writeBackSuperblock();
    if (trace != nullptr)
        trace->device_bytes_written += kInodeBytes;
    co_return clone.id;
}

sim::Task<util::Result<std::vector<ObjectId>, NasdStatus>>
ObjectStore::listObjects(PartitionId pid, OpTrace *trace)
{
    NASD_ASSERT(mounted_, "store not mounted");
    (void)trace;
    if (pid >= partitions_.size() || !partitions_[pid].valid)
        co_return util::Err{NasdStatus::kNoSuchPartition};
    std::vector<ObjectId> ids;
    const auto lo = index_.lower_bound({pid, 0});
    const auto hi = index_.upper_bound({pid, ~0ull});
    for (auto it = lo; it != hi; ++it)
        ids.push_back(it->first.second);
    co_return ids;
}

sim::Task<void>
ObjectStore::flushAll()
{
    co_await device_.flush();
}

util::Result<ObjectVersion, NasdStatus>
ObjectStore::peekVersion(PartitionId pid, ObjectId oid) const
{
    auto found = findInode(pid, oid);
    if (!found.ok())
        return util::Err{found.error()};
    return inodes_[found.value()].attrs.version;
}

} // namespace nasd
