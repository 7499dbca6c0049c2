#include "disk/striping.h"

#include <algorithm>

#include "sim/sync.h"
#include "util/logging.h"

namespace nasd::disk {

namespace {

/** Run branch(i, attr) for each of @p n extents in parallel and charge
 *  the op's critical path to @p attr. */
template <typename Branch>
sim::Task<void>
fanOut(sim::Simulator &sim, std::size_t n, util::OpAttribution *attr,
       Branch branch)
{
    if (attr == nullptr || n == 1) {
        std::vector<sim::Task<void>> tasks;
        tasks.reserve(n);
        for (std::size_t i = 0; i < n; ++i)
            tasks.push_back(branch(i, attr));
        co_await sim::parallelAll(sim, std::move(tasks));
        co_return;
    }
    // Parallel fan-out: each branch attributes into its own scratch,
    // then the merged profile is normalized to the measured elapsed
    // time (critical-path normalization — summing the branches would
    // over-count time the op did not actually spend waiting).
    const sim::Tick start = sim.now();
    std::vector<util::OpAttribution> parts(n);
    std::vector<sim::Task<void>> tasks;
    tasks.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        tasks.push_back(branch(i, &parts[i]));
    co_await sim::parallelAll(sim, std::move(tasks));
    util::OpAttribution merged;
    for (const auto &part : parts)
        merged.merge(part);
    merged.scaleToTotal(sim.now() - start);
    attr->merge(merged);
}

} // namespace

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
    // Charge the member's transfer, then scatter its bytes straight
    // from the member's image into the host pieces: no gather buffer.
    BlockDevice &member = *members_[e.disk];
    co_await member.fetch(e.disk_block, e.count, attr);
    const std::uint32_t bs = blockSize();
    std::uint64_t at = e.disk_block * bs;
    for (const auto &[host_offset, blocks] : e.pieces) {
        const std::size_t bytes = static_cast<std::size_t>(blocks) * bs;
        member.peek(at, out.subspan(static_cast<std::size_t>(host_offset),
                                    bytes));
        at += bytes;
    }
}

sim::Task<void>
StripingDriver::read(std::uint64_t block, std::uint32_t count,
                     std::span<std::uint8_t> out,
                     util::OpAttribution *attr)
{
    NASD_ASSERT(out.size() == static_cast<std::size_t>(count) * blockSize());
    const auto extents = mapRange(block, count);
    co_await fanOut(sim_, extents.size(), attr,
                    [&](std::size_t i, util::OpAttribution *a) {
                        return readExtent(extents[i], out, a);
                    });
}

sim::Task<void>
StripingDriver::fetch(std::uint64_t block, std::uint32_t count,
                      util::OpAttribution *attr)
{
    const auto extents = mapRange(block, count);
    co_await fanOut(sim_, extents.size(), attr,
                    [&](std::size_t i, util::OpAttribution *a) {
                        const Extent &e = extents[i];
                        return members_[e.disk]->fetch(e.disk_block, e.count,
                                                       a);
                    });
}

sim::Task<void>
StripingDriver::writeBack(std::uint64_t block, std::uint32_t count,
                          util::OpAttribution *attr)
{
    // The bytes are already on the members (poke splits them the same
    // way), so each extent is one member writeBack; nothing is
    // gathered.
    const auto extents = mapRange(block, count);
    co_await fanOut(sim_, extents.size(), attr,
                    [&](std::size_t i, util::OpAttribution *a) {
                        const Extent &e = extents[i];
                        return members_[e.disk]->writeBack(e.disk_block,
                                                           e.count, a);
                    });
}

template <typename Fn>
void
StripingDriver::forEachPiece(std::uint64_t byte_offset, std::uint64_t length,
                             Fn fn) const
{
    const std::uint64_t unit_bytes = unit_blocks_ * blockSize();
    std::uint64_t done = 0;
    while (done < length) {
        const std::uint64_t pos = byte_offset + done;
        const std::uint64_t unit = pos / unit_bytes;
        const std::size_t disk = unit % members_.size();
        const std::uint64_t unit_on_disk = unit / members_.size();
        const std::uint64_t within = pos % unit_bytes;
        const std::uint64_t take =
            std::min<std::uint64_t>(length - done, unit_bytes - within);
        fn(*members_[disk], unit_on_disk * unit_bytes + within, done, take);
        done += take;
    }
}

void
StripingDriver::view(std::uint64_t byte_offset, std::uint64_t length,
                     util::ByteSink sink) const
{
    forEachPiece(byte_offset, length,
                 [&](const BlockDevice &m, std::uint64_t at, std::uint64_t,
                     std::uint64_t take) { m.view(at, take, sink); });
}

void
StripingDriver::poke(std::uint64_t byte_offset,
                     std::span<const std::uint8_t> data)
{
    forEachPiece(byte_offset, data.size(),
                 [&](BlockDevice &m, std::uint64_t at, std::uint64_t done,
                     std::uint64_t take) {
                     m.poke(at, data.subspan(static_cast<std::size_t>(done),
                                             static_cast<std::size_t>(take)));
                 });
}

void
StripingDriver::zero(std::uint64_t byte_offset, std::uint64_t length)
{
    forEachPiece(byte_offset, length,
                 [](BlockDevice &m, std::uint64_t at, std::uint64_t,
                    std::uint64_t take) { m.zero(at, take); });
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
