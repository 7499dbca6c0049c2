#include "disk/disk_model.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"
#include "util/metrics.h"

namespace nasd::disk {

DiskStats::DiskStats(const std::string &prefix)
    : reads(util::metrics().counter(prefix + "/reads")),
      writes(util::metrics().counter(prefix + "/writes")),
      cache_hits(util::metrics().counter(prefix + "/cache_hits")),
      cache_misses(util::metrics().counter(prefix + "/cache_misses")),
      media_blocks_read(
          util::metrics().counter(prefix + "/media_blocks_read")),
      media_blocks_written(
          util::metrics().counter(prefix + "/media_blocks_written")),
      seeks(util::metrics().counter(prefix + "/seeks")),
      bus_wait_ns(util::metrics().counter(prefix + "/bus_wait_ns")),
      bus_service_ns(util::metrics().counter(prefix + "/bus_service_ns")),
      mech_wait_ns(util::metrics().counter(prefix + "/mech_wait_ns")),
      mech_service_ns(util::metrics().counter(prefix + "/mech_service_ns"))
{}

namespace {

/// Fraction of the raw media rate achieved while draining the write
/// buffer in the background (head/track switches miss rotations).
constexpr double kWriteDrainEfficiency = 0.75;

} // namespace

DiskModel::DiskModel(sim::Simulator &sim, DiskParams params)
    : sim_(sim), params_(std::move(params)),
      stats_(util::metrics().uniquePrefix("disk")), mech_(sim, 1),
      bus_(sim, 1), segments_(params_.cache_segments)
{
    NASD_ASSERT(params_.cache_segments > 0);
}

sim::Tick
DiskModel::seekTime(std::uint64_t from_cyl, std::uint64_t to_cyl) const
{
    if (from_cyl == to_cyl)
        return 0;
    const double distance = from_cyl > to_cyl
                                ? static_cast<double>(from_cyl - to_cyl)
                                : static_cast<double>(to_cyl - from_cyl);
    // Calibrate t2t + k*sqrt(d) so that a third-of-stroke seek costs
    // the advertised average; clamp at the full-stroke time.
    const double third_stroke = static_cast<double>(params_.cylinders) / 3.0;
    const double k = (params_.avg_seek_ms - params_.track_to_track_ms) /
                     std::sqrt(third_stroke);
    const double ms = std::min(
        params_.max_seek_ms,
        params_.track_to_track_ms + k * std::sqrt(distance));
    return sim::msec(ms);
}

sim::Tick
DiskModel::mechanicalTime(std::uint64_t block, std::uint32_t count)
{
    const std::uint64_t cyl = cylinderOf(block);
    const sim::Tick seek = seekTime(current_cylinder_, cyl);
    if (seek > 0)
        stats_.seeks.add();

    // Rotational position is a deterministic function of the simulated
    // clock: the platter keeps spinning regardless of what we do.
    const double period = params_.rotationPeriodNs();
    const double at = static_cast<double>(sim_.now() + seek);
    const double pos = std::fmod(at, period) / period;
    const double target =
        static_cast<double>(block % params_.sectors_per_track) /
        params_.sectors_per_track;
    double wait_frac = target - pos;
    if (wait_frac < 0)
        wait_frac += 1.0;
    const auto rot = static_cast<sim::Tick>(wait_frac * period);

    const sim::Tick media = static_cast<sim::Tick>(count) *
                            perBlockMediaTime();

    current_cylinder_ = cylinderOf(block + count - 1);
    // media already carries mech_scale_ via perBlockMediaTime().
    return static_cast<sim::Tick>(static_cast<double>(seek + rot) *
                                  mech_scale_) +
           media;
}

DiskModel::CacheSegment *
DiskModel::findSegment(std::uint64_t block)
{
    for (auto &seg : segments_) {
        if (seg.contains(block))
            return &seg;
    }
    return nullptr;
}

void
DiskModel::cancelPendingReadahead()
{
    const sim::Tick now = sim_.now();
    for (auto &seg : segments_) {
        if (!seg.valid || seg.end <= seg.sync_end)
            continue;
        if (seg.availableAt(seg.end - 1) <= now)
            continue; // fully arrived
        std::uint64_t arrived = 0;
        if (now > seg.load_done && seg.per_block > 0)
            arrived = (now - seg.load_done) / seg.per_block;
        seg.end = std::min(seg.end, seg.sync_end + arrived);
        if (seg.end <= seg.start)
            seg.valid = false;
    }
}

void
DiskModel::installSegment(std::uint64_t block, std::uint32_t count,
                          sim::Tick load_done)
{
    const std::uint64_t seg_capacity_blocks = std::max<std::uint64_t>(
        1, params_.cache_bytes / params_.cache_segments /
               params_.block_size);
    const std::uint64_t ra_blocks =
        std::min<std::uint64_t>(params_.readahead_bytes / params_.block_size,
                                seg_capacity_blocks);

    // Extend an existing segment if this read continues it; otherwise
    // take the least-recently-used one.
    CacheSegment *seg = nullptr;
    for (auto &s : segments_) {
        if (s.valid && s.end == block) {
            seg = &s;
            break;
        }
    }
    if (seg == nullptr) {
        seg = &segments_[0];
        for (auto &s : segments_) {
            if (!s.valid) {
                seg = &s;
                break;
            }
            if (s.last_use < seg->last_use)
                seg = &s;
        }
        seg->valid = true;
        seg->start = block;
    }

    seg->sync_end = block + count;
    seg->end = std::min(seg->sync_end + ra_blocks,
                        numBlocks()); // readahead continues past request
    seg->load_done = load_done;
    seg->per_block = perBlockMediaTime();
    seg->last_use = load_done;

    // Bound the segment to its share of the cache (ring behaviour).
    if (seg->end - seg->start > seg_capacity_blocks)
        seg->start = seg->end - seg_capacity_blocks;
}

void
DiskModel::invalidateRange(std::uint64_t block, std::uint32_t count)
{
    const std::uint64_t end = block + count;
    for (auto &seg : segments_) {
        if (!seg.valid || end <= seg.start || block >= seg.end)
            continue;
        // Keep the prefix if the overlap is at the tail; otherwise drop.
        if (block > seg.start) {
            seg.end = block;
            seg.sync_end = std::min(seg.sync_end, seg.end);
        } else {
            seg.valid = false;
        }
    }
}

void
DiskModel::noteWait(util::ResourceClass c, sim::Tick ns,
                    util::OpAttribution *attr)
{
    (c == util::ResourceClass::kDiskBus ? stats_.bus_wait_ns
                                        : stats_.mech_wait_ns)
        .add(ns);
    if (attr)
        attr->addWait(c, ns);
}

void
DiskModel::noteService(util::ResourceClass c, sim::Tick ns,
                       util::OpAttribution *attr)
{
    (c == util::ResourceClass::kDiskBus ? stats_.bus_service_ns
                                        : stats_.mech_service_ns)
        .add(ns);
    if (attr)
        attr->addService(c, ns);
}

sim::Task<void>
DiskModel::read(std::uint64_t block, std::uint32_t count,
                std::span<std::uint8_t> out, util::OpAttribution *attr)
{
    NASD_ASSERT(out.size() ==
                static_cast<std::size_t>(count) * params_.block_size);
    co_await fetch(block, count, attr);
    data_.read(block * params_.block_size, out);
}

sim::Task<void>
DiskModel::fetch(std::uint64_t block, std::uint32_t count,
                 util::OpAttribution *attr)
{
    NASD_ASSERT(count > 0, "zero-length disk read");
    NASD_ASSERT(block + count <= numBlocks(), "read past end of disk");
    stats_.reads.add();
    using util::ResourceClass;

    // Command setup on the bus.
    auto bus = co_await sim::scopedAcquire(sim_, bus_);
    noteWait(ResourceClass::kDiskBus, bus.waitNs(), attr);
    const sim::Tick overhead = sim::msec(params_.controller_overhead_ms);
    co_await sim_.delay(overhead);
    noteService(ResourceClass::kDiskBus, overhead, attr);

    // Find the first block the cache cannot supply.
    std::uint64_t first_missing = block + count;
    for (std::uint64_t b = block; b < block + count; ++b) {
        if (findSegment(b) == nullptr) {
            first_missing = b;
            break;
        }
    }

    if (first_missing < block + count) {
        stats_.cache_misses.add();
        // Disconnect from the bus during the mechanical phase.
        bus.release();
        auto mech = co_await sim::scopedAcquire(sim_, mech_);
        noteWait(ResourceClass::kDiskMech, mech.waitNs(), attr);
        cancelPendingReadahead();
        const auto missing =
            static_cast<std::uint32_t>(block + count - first_missing);
        const sim::Tick t = mechanicalTime(first_missing, missing);
        co_await sim_.delay(t);
        noteService(ResourceClass::kDiskMech, t, attr);
        stats_.media_blocks_read.add(missing);
        installSegment(first_missing, missing, sim_.now());
        mech.release();
        bus = co_await sim::scopedAcquire(sim_, bus_);
        noteWait(ResourceClass::kDiskBus, bus.waitNs(), attr);
    } else {
        stats_.cache_hits.add();
        // All blocks cached, but readahead may still be in flight; wait
        // for the last needed block to arrive off the media. Charged as
        // mechanism service: the head is streaming those blocks.
        sim::Tick ready = 0;
        for (std::uint64_t b = block; b < block + count; ++b) {
            auto *seg = findSegment(b);
            NASD_ASSERT(seg != nullptr);
            ready = std::max(ready, seg->availableAt(b));
            seg->last_use = sim_.now();
        }
        if (ready > sim_.now()) {
            const sim::Tick stream = ready - sim_.now();
            co_await sim_.delay(stream);
            noteService(ResourceClass::kDiskMech, stream, attr);
        }
    }

    // Data transfer to the host.
    const sim::Tick xfer =
        busTime(static_cast<std::uint64_t>(count) * params_.block_size);
    co_await sim_.delay(xfer);
    noteService(ResourceClass::kDiskBus, xfer, attr);
    bus.release();
}

sim::Task<void>
DiskModel::writeBack(std::uint64_t block, std::uint32_t count,
                     util::OpAttribution *attr)
{
    NASD_ASSERT(count > 0, "zero-length disk write");
    NASD_ASSERT(block + count <= numBlocks(), "write past end of disk");
    stats_.writes.add();
    using util::ResourceClass;

    // The caller's bytes are already in the backing store (poke), so a
    // queued write can never roll back a newer update; only the cache
    // and the counters change at accept time.
    invalidateRange(block, count);
    stats_.media_blocks_written.add(count);
    const std::uint64_t bytes =
        static_cast<std::uint64_t>(count) * params_.block_size;

    auto bus = co_await sim::scopedAcquire(sim_, bus_);
    noteWait(ResourceClass::kDiskBus, bus.waitNs(), attr);
    const sim::Tick overhead = sim::msec(params_.controller_overhead_ms);
    co_await sim_.delay(overhead);
    const sim::Tick xfer = busTime(bytes);
    co_await sim_.delay(xfer);
    noteService(ResourceClass::kDiskBus, overhead + xfer, attr);
    bus.release();

    if (params_.write_behind) {
        // Acknowledge now; account the media work as queued drain time
        // and stall only if the backlog exceeds the buffer. A stall is
        // mechanism service: the head is draining the backlog.
        const double drain_bps =
            params_.mediaBytesPerSec() * kWriteDrainEfficiency /
            mech_scale_;
        const auto drain_ns = static_cast<sim::Tick>(
            static_cast<double>(bytes) / drain_bps * 1e9);
        media_free_at_ = std::max(media_free_at_, sim_.now()) + drain_ns;

        const auto buffer_ns = static_cast<sim::Tick>(
            static_cast<double>(params_.write_buffer_bytes) / drain_bps *
            1e9);
        const sim::Tick backlog = media_free_at_ - sim_.now();
        if (backlog > buffer_ns) {
            co_await sim_.delay(backlog - buffer_ns);
            noteService(ResourceClass::kDiskMech, backlog - buffer_ns,
                        attr);
        }
    } else {
        auto mech = co_await sim::scopedAcquire(sim_, mech_);
        noteWait(ResourceClass::kDiskMech, mech.waitNs(), attr);
        cancelPendingReadahead();
        const sim::Tick t = mechanicalTime(block, count);
        co_await sim_.delay(t);
        noteService(ResourceClass::kDiskMech, t, attr);
        mech.release();
    }
}

sim::Task<void>
DiskModel::flush()
{
    if (media_free_at_ > sim_.now())
        co_await sim_.delay(media_free_at_ - sim_.now());
}

} // namespace nasd::disk
