#include "disk/striping.h"

#include <cstring>
#include <memory>

#include "sim/sync.h"
#include "util/logging.h"

namespace nasd::disk {

StripingDriver::StripingDriver(sim::Simulator &sim,
                               std::vector<BlockDevice *> members,
                               std::uint64_t stripe_unit_bytes)
    : sim_(sim), members_(std::move(members))
{
    NASD_ASSERT(!members_.empty(), "striping driver needs members");
    const std::uint32_t bs = members_[0]->blockSize();
    for (const auto *m : members_)
        NASD_ASSERT(m->blockSize() == bs, "mixed block sizes in stripe");
    NASD_ASSERT(stripe_unit_bytes % bs == 0,
                "stripe unit must be a multiple of the block size");
    unit_blocks_ = stripe_unit_bytes / bs;
    NASD_ASSERT(unit_blocks_ > 0);
}

std::uint32_t
StripingDriver::blockSize() const
{
    return members_[0]->blockSize();
}

std::uint64_t
StripingDriver::numBlocks() const
{
    std::uint64_t min_blocks = members_[0]->numBlocks();
    for (const auto *m : members_)
        min_blocks = std::min(min_blocks, m->numBlocks());
    // Whole stripes only.
    const std::uint64_t units = min_blocks / unit_blocks_;
    return units * unit_blocks_ * members_.size();
}

std::vector<StripingDriver::Extent>
StripingDriver::mapRange(std::uint64_t block, std::uint32_t count) const
{
    std::vector<Extent> extents;
    const std::uint64_t end = block + count;
    std::uint64_t p = block;
    while (p < end) {
        const std::uint64_t unit = p / unit_blocks_;
        const std::size_t disk = unit % members_.size();
        const std::uint64_t unit_on_disk = unit / members_.size();
        const std::uint64_t within = p % unit_blocks_;
        const auto take = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(end - p, unit_blocks_ - within));
        const std::uint64_t disk_block = unit_on_disk * unit_blocks_ + within;

        Extent *tail = nullptr;
        for (auto &e : extents) {
            if (e.disk == disk &&
                e.disk_block + e.count == disk_block) {
                tail = &e;
                break;
            }
        }
        const std::uint64_t host_offset =
            (p - block) * members_[0]->blockSize();
        if (tail != nullptr) {
            tail->count += take;
            tail->pieces.emplace_back(host_offset, take);
        } else {
            Extent e;
            e.disk = disk;
            e.disk_block = disk_block;
            e.count = take;
            e.pieces.emplace_back(host_offset, take);
            extents.push_back(std::move(e));
        }
        p += take;
    }
    return extents;
}

sim::Task<void>
StripingDriver::readExtent(const Extent &e, std::span<std::uint8_t> out,
                           util::OpAttribution *attr)
{
    const std::uint32_t bs = blockSize();
    const std::size_t len = static_cast<std::size_t>(e.count) * bs;
    if (e.pieces.size() == 1) {
        // One piece is one contiguous host range: read straight into it.
        co_await members_[e.disk]->read(
            e.disk_block, e.count,
            out.subspan(static_cast<std::size_t>(e.pieces.front().first),
                        len),
            attr);
        co_return;
    }
    // Several pieces: gather on the member, then scatter to the host.
    const auto temp = std::make_unique_for_overwrite<std::uint8_t[]>(len);
    co_await members_[e.disk]->read(e.disk_block, e.count,
                                    std::span(temp.get(), len), attr);
    std::size_t temp_off = 0;
    for (const auto &[host_offset, blocks] : e.pieces) {
        const std::size_t bytes = static_cast<std::size_t>(blocks) * bs;
        std::memcpy(out.data() + host_offset, temp.get() + temp_off, bytes);
        temp_off += bytes;
    }
}

sim::Task<void>
StripingDriver::writeExtent(const Extent &e,
                            std::span<const std::uint8_t> data,
                            util::OpAttribution *attr)
{
    const std::uint32_t bs = blockSize();
    std::vector<std::uint8_t> temp(static_cast<std::size_t>(e.count) * bs);
    std::size_t temp_off = 0;
    for (const auto &[host_offset, blocks] : e.pieces) {
        const std::size_t bytes = static_cast<std::size_t>(blocks) * bs;
        std::memcpy(temp.data() + temp_off, data.data() + host_offset,
                    bytes);
        temp_off += bytes;
    }
    co_await members_[e.disk]->write(e.disk_block, e.count, temp, attr);
}

sim::Task<void>
StripingDriver::read(std::uint64_t block, std::uint32_t count,
                     std::span<std::uint8_t> out,
                     util::OpAttribution *attr)
{
    NASD_ASSERT(out.size() == static_cast<std::size_t>(count) * blockSize());
    const auto extents = mapRange(block, count);
    if (attr == nullptr || extents.size() == 1) {
        std::vector<sim::Task<void>> tasks;
        tasks.reserve(extents.size());
        for (const auto &e : extents)
            tasks.push_back(readExtent(e, out, attr));
        co_await sim::parallelAll(sim_, std::move(tasks));
        co_return;
    }
    // Parallel fan-out: each branch attributes into its own scratch,
    // then the merged profile is normalized to the measured elapsed
    // time (critical-path normalization — summing the branches would
    // over-count time the op did not actually spend waiting).
    const sim::Tick start = sim_.now();
    std::vector<util::OpAttribution> parts(extents.size());
    std::vector<sim::Task<void>> tasks;
    tasks.reserve(extents.size());
    for (std::size_t i = 0; i < extents.size(); ++i)
        tasks.push_back(readExtent(extents[i], out, &parts[i]));
    co_await sim::parallelAll(sim_, std::move(tasks));
    util::OpAttribution merged;
    for (const auto &part : parts)
        merged.merge(part);
    merged.scaleToTotal(sim_.now() - start);
    attr->merge(merged);
}

sim::Task<void>
StripingDriver::write(std::uint64_t block, std::uint32_t count,
                      std::span<const std::uint8_t> data,
                      util::OpAttribution *attr)
{
    NASD_ASSERT(data.size() ==
                static_cast<std::size_t>(count) * blockSize());
    const auto extents = mapRange(block, count);
    if (attr == nullptr || extents.size() == 1) {
        std::vector<sim::Task<void>> tasks;
        tasks.reserve(extents.size());
        for (const auto &e : extents)
            tasks.push_back(writeExtent(e, data, attr));
        co_await sim::parallelAll(sim_, std::move(tasks));
        co_return;
    }
    const sim::Tick start = sim_.now();
    std::vector<util::OpAttribution> parts(extents.size());
    std::vector<sim::Task<void>> tasks;
    tasks.reserve(extents.size());
    for (std::size_t i = 0; i < extents.size(); ++i)
        tasks.push_back(writeExtent(extents[i], data, &parts[i]));
    co_await sim::parallelAll(sim_, std::move(tasks));
    util::OpAttribution merged;
    for (const auto &part : parts)
        merged.merge(part);
    merged.scaleToTotal(sim_.now() - start);
    attr->merge(merged);
}

void
StripingDriver::peek(std::uint64_t byte_offset,
                     std::span<std::uint8_t> out) const
{
    const std::uint64_t unit_bytes = unit_blocks_ * blockSize();
    std::size_t done = 0;
    while (done < out.size()) {
        const std::uint64_t pos = byte_offset + done;
        const std::uint64_t unit = pos / unit_bytes;
        const std::size_t disk = unit % members_.size();
        const std::uint64_t unit_on_disk = unit / members_.size();
        const std::uint64_t within = pos % unit_bytes;
        const std::size_t take = static_cast<std::size_t>(
            std::min<std::uint64_t>(out.size() - done,
                                    unit_bytes - within));
        members_[disk]->peek(unit_on_disk * unit_bytes + within,
                             out.subspan(done, take));
        done += take;
    }
}

void
StripingDriver::poke(std::uint64_t byte_offset,
                     std::span<const std::uint8_t> data)
{
    const std::uint64_t unit_bytes = unit_blocks_ * blockSize();
    std::size_t done = 0;
    while (done < data.size()) {
        const std::uint64_t pos = byte_offset + done;
        const std::uint64_t unit = pos / unit_bytes;
        const std::size_t disk = unit % members_.size();
        const std::uint64_t unit_on_disk = unit / members_.size();
        const std::uint64_t within = pos % unit_bytes;
        const std::size_t take = static_cast<std::size_t>(
            std::min<std::uint64_t>(data.size() - done,
                                    unit_bytes - within));
        members_[disk]->poke(unit_on_disk * unit_bytes + within,
                             data.subspan(done, take));
        done += take;
    }
}

sim::Task<void>
StripingDriver::flush()
{
    std::vector<sim::Task<void>> tasks;
    tasks.reserve(members_.size());
    for (auto *m : members_)
        tasks.push_back(m->flush());
    co_await sim::parallelAll(sim_, std::move(tasks));
}

} // namespace nasd::disk
