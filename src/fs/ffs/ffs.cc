#include "fs/ffs/ffs.h"

#include <algorithm>
#include <memory>

#include "sim/sync.h"
#include "util/codec.h"
#include "util/logging.h"
#include "util/metrics.h"

namespace nasd::fs {

FfsStats::FfsStats(const std::string &prefix)
    : reads(util::metrics().counter(prefix + "/reads")),
      writes(util::metrics().counter(prefix + "/writes")),
      creates(util::metrics().counter(prefix + "/creates")),
      lookups(util::metrics().counter(prefix + "/lookups")),
      cache_hit_bytes(util::metrics().counter(prefix + "/cache_hit_bytes")),
      cache_miss_bytes(
          util::metrics().counter(prefix + "/cache_miss_bytes")),
      readahead_hits(util::metrics().counter(prefix + "/readahead_hits")),
      readahead_defeats(
          util::metrics().counter(prefix + "/readahead_defeats"))
{}

namespace {

constexpr std::uint32_t kIndirectPointers = 2048; // 8 KB / 4 B

} // namespace

const char *
toString(FsStatus status)
{
    switch (status) {
      case FsStatus::kOk:
        return "ok";
      case FsStatus::kNoSuchFile:
        return "no-such-file";
      case FsStatus::kExists:
        return "exists";
      case FsStatus::kNotDirectory:
        return "not-directory";
      case FsStatus::kIsDirectory:
        return "is-directory";
      case FsStatus::kNoSpace:
        return "no-space";
      case FsStatus::kNameTooLong:
        return "name-too-long";
      case FsStatus::kDirectoryNotEmpty:
        return "directory-not-empty";
      case FsStatus::kFileTooBig:
        return "file-too-big";
    }
    return "unknown";
}

// ------------------------------------------------------------ construction

FfsFileSystem::FfsFileSystem(sim::Simulator &sim, disk::BlockDevice &device,
                             sim::CpuResource *host_cpu, FfsParams params)
    : sim_(sim), device_(device), host_cpu_(host_cpu), params_(params),
      stats_(util::metrics().uniquePrefix("ffs"))
{
    NASD_ASSERT(params_.fs_block_bytes % device_.blockSize() == 0);
    NASD_ASSERT(params_.cluster_bytes % params_.fs_block_bytes == 0);

    const std::uint64_t device_fs_blocks =
        device_.capacityBytes() / params_.fs_block_bytes;
    // Metadata region: superblock + 3 metadata blocks per inode
    // (inode block + up to two indirect levels).
    data_start_fs_block_ =
        1 + params_.max_inodes * 3;
    NASD_ASSERT(device_fs_blocks > data_start_fs_block_ + 16,
                "device too small for FFS layout");
    total_fs_blocks_ =
        static_cast<std::uint32_t>(device_fs_blocks - data_start_fs_block_);

    inodes_.resize(params_.max_inodes + 1); // 1-based inode numbers
    block_bitmap_.assign(total_fs_blocks_, false);
    free_fs_blocks_ = total_fs_blocks_;

    cache_ = std::make_unique<util::LruSet>(std::max<std::size_t>(
        8, params_.buffer_cache_bytes / params_.fs_block_bytes));
}

std::uint32_t
FfsFileSystem::deviceBlocksPerFsBlock() const
{
    return params_.fs_block_bytes / device_.blockSize();
}

std::uint64_t
FfsFileSystem::fsBlockToDeviceBlock(std::uint32_t fs_block) const
{
    return (static_cast<std::uint64_t>(data_start_fs_block_) + fs_block) *
           deviceBlocksPerFsBlock();
}

sim::Task<void>
FfsFileSystem::format()
{
    for (auto &inode : inodes_)
        inode = Inode{};
    block_bitmap_.assign(total_fs_blocks_, false);
    free_fs_blocks_ = total_fs_blocks_;
    next_alloc_hint_ = 0;

    Inode &root = inodes_[kRootInode];
    root.valid = true;
    root.is_directory = true;
    root.mode = 0755;
    root.mtime_ns = sim_.now();
    root.ctime_ns = sim_.now();
    co_await storeDir(kRootInode, {});
}

// -------------------------------------------------------------- accounting

sim::Task<void>
FfsFileSystem::chargeCpu(std::uint64_t bytes)
{
    if (host_cpu_ == nullptr)
        co_return;
    co_await host_cpu_->execute(params_.op_overhead_instr);
    if (bytes == 0)
        co_return;
    double effective = static_cast<double>(std::min(bytes, params_.l2_bytes));
    if (bytes > params_.l2_bytes) {
        effective += static_cast<double>(bytes - params_.l2_bytes) *
                     params_.l2_miss_copy_penalty;
    }
    const auto cycles = static_cast<std::uint64_t>(
        effective * params_.copy_cycles_per_byte);
    if (cycles > 0)
        co_await host_cpu_->executeAt(cycles, 1.0);
}

std::uint32_t
FfsFileSystem::indirectDepth(std::uint64_t index) const
{
    if (index < kDirectBlocks)
        return 0;
    if (index < kDirectBlocks + kIndirectPointers)
        return 1;
    return 2;
}

sim::Task<void>
FfsFileSystem::touchBlockMap(Inode &inode, std::uint64_t index)
{
    const std::uint32_t depth = indirectDepth(index);
    if (depth == 0)
        co_return;
    // Model indirect-block residency: metadata blocks live in the
    // per-inode metadata region; one fetch per missing level.
    const auto ino = static_cast<std::uint32_t>(&inode - inodes_.data());
    for (std::uint32_t level = 1; level <= depth; ++level) {
        const std::uint32_t meta_fs_block = 1 + ino * 3 + level;
        // Metadata cache ids sit above the data block namespace.
        const std::uint32_t cache_id = total_fs_blocks_ + meta_fs_block;
        if (cache_->touch(cache_id))
            continue;
        std::vector<std::uint8_t> buf(params_.fs_block_bytes);
        co_await device_.read(static_cast<std::uint64_t>(meta_fs_block) *
                                  deviceBlocksPerFsBlock(),
                              deviceBlocksPerFsBlock(), buf);
        cache_->insert(cache_id);
    }
}

// -------------------------------------------------------------- allocation

util::Result<std::uint32_t, FsStatus>
FfsFileSystem::allocBlock(std::uint32_t hint)
{
    if (free_fs_blocks_ == 0)
        return util::Err{FsStatus::kNoSpace};
    for (std::uint32_t i = 0; i < total_fs_blocks_; ++i) {
        const std::uint32_t b = (hint + i) % total_fs_blocks_;
        if (!block_bitmap_[b]) {
            block_bitmap_[b] = true;
            --free_fs_blocks_;
            next_alloc_hint_ = b + 1;
            return b;
        }
    }
    return util::Err{FsStatus::kNoSpace};
}

void
FfsFileSystem::freeBlock(std::uint32_t block)
{
    NASD_ASSERT(block_bitmap_[block], "double free of fs block");
    block_bitmap_[block] = false;
    ++free_fs_blocks_;
    cache_->erase(block);
}

util::Result<void, FsStatus>
FfsFileSystem::growFile(Inode &inode, std::uint64_t blocks)
{
    constexpr std::uint64_t max_blocks =
        kDirectBlocks + kIndirectPointers +
        static_cast<std::uint64_t>(kIndirectPointers) * kIndirectPointers;
    if (blocks > max_blocks)
        return util::Err{FsStatus::kFileTooBig};
    while (inode.blocks.size() < blocks) {
        const std::uint32_t hint =
            inode.blocks.empty() ? next_alloc_hint_
                                 : inode.blocks.back() + 1;
        auto b = allocBlock(hint);
        if (!b.ok())
            return util::Err{b.error()};
        inode.blocks.push_back(b.value());
    }
    return {};
}

std::uint64_t
FfsFileSystem::freeBlocks() const
{
    return free_fs_blocks_;
}

// --------------------------------------------------------------- data path

sim::Task<void>
FfsFileSystem::readBlocks(Inode &inode, std::uint64_t offset,
                          std::span<std::uint8_t> out)
{
    if (out.empty())
        co_return;
    const std::uint64_t fsb = params_.fs_block_bytes;
    const std::uint64_t end = offset + out.size();

    // Sequential stream detection: match this read against the
    // file's stream table.
    Inode::Stream *stream = nullptr;
    for (std::size_t i = 0; i < inode.stream_count; ++i) {
        if (inode.streams[i].last_end == offset) {
            stream = &inode.streams[i];
            break;
        }
    }
    bool established = stream != nullptr && offset != 0;
    if (stream == nullptr) {
        if (inode.stream_count < kStreamSlots) {
            stream = &inode.streams[inode.stream_count++];
        } else {
            // Too many concurrent streams: evict the stalest tracker.
            stats_.readahead_defeats.add();
            stream = &inode.streams[0];
            for (auto &s : inode.streams) {
                if (s.last_use < stream->last_use)
                    stream = &s;
            }
            *stream = Inode::Stream{};
        }
    }
    stream->last_end = end;
    stream->last_use = ++stream_clock_;

    const std::uint64_t cluster_blocks = params_.cluster_bytes / fsb;

    std::uint64_t pos = offset;
    while (pos < end) {
        // The cluster (aligned group of fs blocks) containing pos.
        const std::uint64_t index = pos / fsb;
        const std::uint64_t cluster_first =
            index / cluster_blocks * cluster_blocks;
        const std::uint64_t cluster_last = std::min<std::uint64_t>(
            cluster_first + cluster_blocks - 1,
            (inode.size + fsb - 1) / fsb == 0
                ? 0
                : (inode.size + fsb - 1) / fsb - 1);
        const std::uint64_t piece_end =
            std::min(end, (cluster_last + 1) * fsb);

        co_await touchBlockMap(inode, cluster_last);

        // Which fs blocks of this cluster miss the cache?
        bool any_miss = false;
        for (std::uint64_t i = index;
             i <= cluster_last && i < inode.blocks.size(); ++i) {
            if (!cache_->touch(inode.blocks[i])) {
                any_miss = true;
                break;
            }
        }

        if (any_miss) {
            // One device read per physically contiguous run in the
            // cluster (maxcontig-limited I/O).
            std::uint64_t i = index;
            while (i <= cluster_last && i < inode.blocks.size()) {
                std::uint64_t j = i;
                while (j + 1 <= cluster_last &&
                       j + 1 < inode.blocks.size() &&
                       inode.blocks[j + 1] == inode.blocks[j] + 1) {
                    ++j;
                }
                const auto run = static_cast<std::uint32_t>(j - i + 1);
                const std::uint64_t run_start = i * fsb;
                const std::uint64_t run_end = (j + 1) * fsb;
                const auto run_bytes =
                    static_cast<std::size_t>(run_end - run_start);
                const std::uint64_t block =
                    fsBlockToDeviceBlock(inode.blocks[i]);
                const std::uint32_t count = run * deviceBlocksPerFsBlock();
                if (run_start >= pos && run_end <= piece_end) {
                    // The request covers the run: read straight into it.
                    co_await device_.read(
                        block, count,
                        out.subspan(
                            static_cast<std::size_t>(run_start - offset),
                            run_bytes));
                } else {
                    // Clustered I/O reaches past the request: charge
                    // the run, then copy out its covered bytes.
                    co_await device_.fetch(block, count);
                    const std::uint64_t lo = std::max(pos, run_start);
                    const std::uint64_t hi = std::min(piece_end, run_end);
                    if (lo < hi) {
                        device_.peek(
                            block * device_.blockSize() + (lo - run_start),
                            out.subspan(
                                static_cast<std::size_t>(lo - offset),
                                static_cast<std::size_t>(hi - lo)));
                    }
                }
                stats_.cache_miss_bytes.add(run_bytes);
                for (std::uint64_t k = i; k <= j; ++k)
                    cache_->insert(inode.blocks[k]);
                i = j + 1;
            }

            // Readahead: once the stream is established, prefetch
            // ahead of it — but only blocks neither cached nor already
            // requested by an earlier prefetch of this stream.
            if (established && params_.readahead_clusters > 0) {
                const std::uint64_t ra_first = std::max<std::uint64_t>(
                    cluster_last + 1, stream->prefetch_end);
                const std::uint64_t ra_limit =
                    cluster_last +
                    cluster_blocks * params_.readahead_clusters;
                const std::uint64_t ra_last = std::min<std::uint64_t>(
                    ra_limit,
                    inode.blocks.empty() ? 0 : inode.blocks.size() - 1);
                if (ra_first < inode.blocks.size() &&
                    ra_first <= ra_last) {
                    stats_.readahead_hits.add();
                    stream->prefetch_end = ra_last + 1;
                    std::vector<std::uint32_t> targets;
                    for (std::uint64_t t = ra_first; t <= ra_last; ++t) {
                        if (!cache_->touch(inode.blocks[t]))
                            targets.push_back(inode.blocks[t]);
                    }
                    sim_.spawn([](FfsFileSystem &fs,
                                  std::vector<std::uint32_t> blocks)
                                   -> sim::Task<void> {
                        // Prefetch contiguous runs; mark resident when
                        // the media read completes.
                        std::size_t ri = 0;
                        while (ri < blocks.size()) {
                            std::size_t rj = ri;
                            while (rj + 1 < blocks.size() &&
                                   blocks[rj + 1] == blocks[rj] + 1) {
                                ++rj;
                            }
                            const auto run =
                                static_cast<std::uint32_t>(rj - ri + 1);
                            // Only the timing matters: the bytes
                            // stay in the image.
                            co_await fs.device_.fetch(
                                fs.fsBlockToDeviceBlock(blocks[ri]),
                                run * fs.deviceBlocksPerFsBlock());
                            for (std::size_t k = ri; k <= rj; ++k)
                                fs.cache_->insert(blocks[k]);
                            ri = rj + 1;
                        }
                    }(*this, std::move(targets)));
                }
            }
        } else {
            stats_.cache_hit_bytes.add(piece_end - pos);
            // Cache hits: copy the already-paid-for bytes straight out
            // of the device backing store.
            for (std::uint64_t i = index;
                 i <= cluster_last && i * fsb < piece_end; ++i) {
                if (i >= inode.blocks.size())
                    break;
                const std::uint64_t b_start = i * fsb;
                const std::uint64_t p_start = std::max(pos, b_start);
                const std::uint64_t p_end =
                    std::min(piece_end, b_start + fsb);
                if (p_start >= p_end)
                    continue;
                device_.peek(
                    fsBlockToDeviceBlock(inode.blocks[i]) *
                            device_.blockSize() +
                        (p_start - b_start),
                    out.subspan(static_cast<std::size_t>(p_start - offset),
                                static_cast<std::size_t>(p_end - p_start)));
            }
        }
        pos = piece_end;
    }
}

sim::Task<void>
FfsFileSystem::writeBlocks(Inode &inode, std::uint64_t offset,
                           std::span<const std::uint8_t> data,
                           bool wait_for_media)
{
    if (data.empty())
        co_return;
    const std::uint64_t fsb = params_.fs_block_bytes;
    const std::uint64_t end = offset + data.size();

    // Land bytes and mark residency block by block, but batch the
    // media updates into one device write per physically contiguous
    // run (the clustering a real FFS write path performs).
    std::uint64_t pos = offset;
    while (pos < end) {
        const std::uint64_t index = pos / fsb;
        co_await touchBlockMap(inode, index);
        NASD_ASSERT(index < inode.blocks.size());

        // Extend the run while fs blocks stay physically adjacent.
        std::uint64_t run_last = index;
        while ((run_last + 1) * fsb < end &&
               run_last + 1 < inode.blocks.size() &&
               inode.blocks[run_last + 1] == inode.blocks[run_last] + 1) {
            ++run_last;
        }
        const std::uint64_t p_end = std::min(end, (run_last + 1) * fsb);
        const std::uint64_t b_start = index * fsb;
        const std::uint64_t device_byte =
            fsBlockToDeviceBlock(inode.blocks[index]) *
                device_.blockSize() +
            (pos - b_start);
        device_.poke(device_byte,
                     data.subspan(static_cast<std::size_t>(pos - offset),
                                  static_cast<std::size_t>(p_end - pos)));
        for (std::uint64_t i = index; i <= run_last; ++i)
            cache_->insert(inode.blocks[i]);

        // Media update: whole containing device blocks, one write of
        // the bytes just landed.
        const std::uint32_t bs = device_.blockSize();
        const std::uint64_t aligned_start = device_byte / bs * bs;
        const std::uint64_t aligned_end = (device_byte + (p_end - pos) +
                                           bs - 1) /
                                          bs * bs;
        auto media = device_.writeBack(
            aligned_start / bs,
            static_cast<std::uint32_t>((aligned_end - aligned_start) / bs));
        if (wait_for_media)
            co_await std::move(media);
        else
            sim_.spawn(std::move(media));
        pos = p_end;
    }
    if (wait_for_media)
        co_await device_.flush();
}

// ------------------------------------------------------------- directories

sim::Task<FsResult<std::vector<DirEntry>>>
FfsFileSystem::loadDir(InodeNum dir)
{
    if (dir >= inodes_.size() || !inodes_[dir].valid)
        co_return util::Err{FsStatus::kNoSuchFile};
    Inode &inode = inodes_[dir];
    if (!inode.is_directory)
        co_return util::Err{FsStatus::kNotDirectory};

    std::vector<std::uint8_t> raw(inode.size);
    co_await readBlocks(inode, 0, raw);

    std::vector<DirEntry> entries;
    util::Decoder dec(raw);
    while (dec.remaining() > 0) {
        DirEntry e;
        e.ino = dec.get<std::uint32_t>();
        e.is_directory = dec.get<std::uint8_t>() != 0;
        const auto len = dec.get<std::uint8_t>();
        e.name.resize(len);
        dec.getBytes(std::span<std::uint8_t>(
            reinterpret_cast<std::uint8_t *>(e.name.data()), len));
        entries.push_back(std::move(e));
    }
    co_return entries;
}

sim::Task<FsResult<void>>
FfsFileSystem::storeDir(InodeNum dir, const std::vector<DirEntry> &entries)
{
    Inode &inode = inodes_[dir];
    std::vector<std::uint8_t> raw;
    util::Encoder enc(raw);
    for (const auto &e : entries) {
        enc.put<std::uint32_t>(e.ino);
        enc.put<std::uint8_t>(e.is_directory ? 1 : 0);
        enc.put<std::uint8_t>(static_cast<std::uint8_t>(e.name.size()));
        enc.putBytes(std::span<const std::uint8_t>(
            reinterpret_cast<const std::uint8_t *>(e.name.data()),
            e.name.size()));
    }

    // Size the directory file, then write its contents.
    const std::uint64_t blocks =
        raw.empty() ? 1
                    : (raw.size() + params_.fs_block_bytes - 1) /
                          params_.fs_block_bytes;
    auto grown = growFile(inode, blocks);
    if (!grown.ok())
        co_return util::Err{grown.error()};
    while (inode.blocks.size() > blocks) {
        freeBlock(inode.blocks.back());
        inode.blocks.pop_back();
    }
    inode.size = raw.size();
    inode.mtime_ns = sim_.now();
    if (!raw.empty())
        co_await writeBlocks(inode, 0, raw, false);
    co_return FsResult<void>{};
}

sim::Task<FsResult<InodeNum>>
FfsFileSystem::createNode(InodeNum dir, std::string_view name,
                          bool directory)
{
    if (name.empty() || name.size() > 255)
        co_return util::Err{FsStatus::kNameTooLong};
    auto entries = co_await loadDir(dir);
    if (!entries.ok())
        co_return util::Err{entries.error()};
    for (const auto &e : entries.value()) {
        if (e.name == name)
            co_return util::Err{FsStatus::kExists};
    }

    // Find a free inode.
    InodeNum ino = 0;
    for (InodeNum i = 1; i < inodes_.size(); ++i) {
        if (!inodes_[i].valid) {
            ino = i;
            break;
        }
    }
    if (ino == 0)
        co_return util::Err{FsStatus::kNoSpace};

    inodes_[ino] = Inode{};
    inodes_[ino].valid = true;
    inodes_[ino].is_directory = directory;
    inodes_[ino].mode = directory ? 0755 : 0644;
    inodes_[ino].mtime_ns = sim_.now();
    inodes_[ino].ctime_ns = sim_.now();

    auto updated = entries.value();
    updated.push_back(DirEntry{std::string(name), ino, directory});
    auto stored = co_await storeDir(dir, updated);
    if (!stored.ok()) {
        inodes_[ino].valid = false;
        co_return util::Err{stored.error()};
    }
    co_await chargeCpu(0);
    stats_.creates.add();
    co_return ino;
}

// ------------------------------------------------------------- public API

sim::Task<FsResult<InodeNum>>
FfsFileSystem::create(InodeNum dir, std::string_view name)
{
    co_return co_await createNode(dir, name, false);
}

sim::Task<FsResult<InodeNum>>
FfsFileSystem::mkdir(InodeNum dir, std::string_view name)
{
    auto made = co_await createNode(dir, name, true);
    if (!made.ok())
        co_return made;
    auto stored = co_await storeDir(made.value(), {});
    if (!stored.ok())
        co_return util::Err{stored.error()};
    co_return made;
}

sim::Task<FsResult<InodeNum>>
FfsFileSystem::lookup(InodeNum dir, std::string_view name)
{
    stats_.lookups.add();
    co_await chargeCpu(0);
    auto entries = co_await loadDir(dir);
    if (!entries.ok())
        co_return util::Err{entries.error()};
    for (const auto &e : entries.value()) {
        if (e.name == name)
            co_return e.ino;
    }
    co_return util::Err{FsStatus::kNoSuchFile};
}

sim::Task<FsResult<std::vector<DirEntry>>>
FfsFileSystem::readdir(InodeNum dir)
{
    co_await chargeCpu(0);
    co_return co_await loadDir(dir);
}

sim::Task<FsResult<void>>
FfsFileSystem::unlink(InodeNum dir, std::string_view name)
{
    auto entries = co_await loadDir(dir);
    if (!entries.ok())
        co_return util::Err{entries.error()};
    auto updated = entries.value();
    const auto it = std::find_if(updated.begin(), updated.end(),
                                 [&](const DirEntry &e) {
                                     return e.name == name;
                                 });
    if (it == updated.end())
        co_return util::Err{FsStatus::kNoSuchFile};

    Inode &victim = inodes_[it->ino];
    if (victim.is_directory) {
        auto children = co_await loadDir(it->ino);
        if (children.ok() && !children.value().empty())
            co_return util::Err{FsStatus::kDirectoryNotEmpty};
    }
    for (const auto b : victim.blocks)
        freeBlock(b);
    victim = Inode{};

    updated.erase(it);
    co_return co_await storeDir(dir, updated);
}

sim::Task<FsResult<InodeNum>>
FfsFileSystem::resolve(std::string_view path)
{
    InodeNum current = kRootInode;
    std::size_t pos = 0;
    while (pos < path.size()) {
        while (pos < path.size() && path[pos] == '/')
            ++pos;
        if (pos >= path.size())
            break;
        const std::size_t next = path.find('/', pos);
        const std::string_view part =
            path.substr(pos, next == std::string_view::npos ? path.size() -
                                                                  pos
                                                            : next - pos);
        auto found = co_await lookup(current, part);
        if (!found.ok())
            co_return util::Err{found.error()};
        current = found.value();
        pos = next == std::string_view::npos ? path.size() : next;
    }
    co_return current;
}

sim::Task<FsResult<FileStat>>
FfsFileSystem::stat(InodeNum ino)
{
    co_await chargeCpu(0);
    if (ino >= inodes_.size() || !inodes_[ino].valid)
        co_return util::Err{FsStatus::kNoSuchFile};
    const Inode &inode = inodes_[ino];
    FileStat st;
    st.ino = ino;
    st.is_directory = inode.is_directory;
    st.size = inode.size;
    st.mode = inode.mode;
    st.uid = inode.uid;
    st.gid = inode.gid;
    st.mtime_ns = inode.mtime_ns;
    st.ctime_ns = inode.ctime_ns;
    co_return st;
}

sim::Task<FsResult<std::uint64_t>>
FfsFileSystem::read(InodeNum ino, std::uint64_t offset,
                    std::span<std::uint8_t> out)
{
    if (ino >= inodes_.size() || !inodes_[ino].valid)
        co_return util::Err{FsStatus::kNoSuchFile};
    Inode &inode = inodes_[ino];
    if (inode.is_directory)
        co_return util::Err{FsStatus::kIsDirectory};

    if (offset >= inode.size)
        co_return std::uint64_t{0};
    const std::uint64_t n =
        std::min<std::uint64_t>(out.size(), inode.size - offset);
    co_await readBlocks(inode, offset, out.subspan(0, n));
    co_await chargeCpu(n);
    stats_.reads.add();
    co_return n;
}

sim::Task<FsResult<void>>
FfsFileSystem::write(InodeNum ino, std::uint64_t offset,
                     std::span<const std::uint8_t> data)
{
    if (ino >= inodes_.size() || !inodes_[ino].valid)
        co_return util::Err{FsStatus::kNoSuchFile};
    Inode &inode = inodes_[ino];
    if (inode.is_directory)
        co_return util::Err{FsStatus::kIsDirectory};

    const std::uint64_t end = offset + data.size();
    auto grown = growFile(inode, (end + params_.fs_block_bytes - 1) /
                                     params_.fs_block_bytes);
    if (!grown.ok())
        co_return util::Err{grown.error()};

    // FFS write-behind quirk: small writes ack immediately, large
    // writes wait for the media (Figure 6's "strange write
    // performance").
    const bool wait = data.size() > params_.write_behind_limit;
    co_await writeBlocks(inode, offset, data, wait);
    inode.size = std::max(inode.size, end);
    inode.mtime_ns = sim_.now();
    co_await chargeCpu(data.size());
    stats_.writes.add();
    co_return FsResult<void>{};
}

sim::Task<FsResult<void>>
FfsFileSystem::truncate(InodeNum ino, std::uint64_t size)
{
    if (ino >= inodes_.size() || !inodes_[ino].valid)
        co_return util::Err{FsStatus::kNoSuchFile};
    Inode &inode = inodes_[ino];
    const std::uint64_t blocks =
        (size + params_.fs_block_bytes - 1) / params_.fs_block_bytes;
    if (blocks > inode.blocks.size()) {
        auto grown = growFile(inode, blocks);
        if (!grown.ok())
            co_return util::Err{grown.error()};
    }
    while (inode.blocks.size() > blocks) {
        freeBlock(inode.blocks.back());
        inode.blocks.pop_back();
    }
    inode.size = size;
    inode.mtime_ns = sim_.now();
    co_await chargeCpu(0);
    co_return FsResult<void>{};
}

sim::Task<FsResult<void>>
FfsFileSystem::setMode(InodeNum ino, std::uint32_t mode, std::uint32_t uid,
                       std::uint32_t gid)
{
    if (ino >= inodes_.size() || !inodes_[ino].valid)
        co_return util::Err{FsStatus::kNoSuchFile};
    inodes_[ino].mode = mode;
    inodes_[ino].uid = uid;
    inodes_[ino].gid = gid;
    inodes_[ino].ctime_ns = sim_.now();
    co_await chargeCpu(0);
    co_return FsResult<void>{};
}

sim::Task<void>
FfsFileSystem::sync()
{
    co_await device_.flush();
}

} // namespace nasd::fs
