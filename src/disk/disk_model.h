/**
 * @file
 * Mechanical disk drive model.
 *
 * Simulates one late-90s disk drive: a seek curve calibrated to
 * track-to-track / average / full-stroke times, rotational position
 * derived deterministically from the simulated clock, media transfer at
 * the track rate, a segmented read cache with track readahead, and a
 * write-behind buffer that acknowledges writes at bus speed and drains
 * to media in the background.
 *
 * Data is real (a sparse byte store); only time is modeled. The model
 * reproduces the behaviours Figure 6 of the paper depends on:
 *  - single outstanding sequential reads see media and bus time in
 *    series (no overlap), ~2.5 MB/s per Medallist;
 *  - readahead makes small sequential reads stream near media rate;
 *  - write-behind acknowledges early, so apparent write bandwidth
 *    exceeds read bandwidth until the buffer fills.
 */
#ifndef NASD_DISK_DISK_MODEL_H_
#define NASD_DISK_DISK_MODEL_H_

#include <cstdint>
#include <span>
#include <vector>

#include "disk/block_device.h"
#include "disk/params.h"
#include "sim/simulator.h"
#include "sim/sync.h"
#include "util/sparse_store.h"
#include "util/stats.h"

namespace nasd::disk {

/** Operation counters exposed for tests and benchmarks; each one is
 *  registry-backed under "<prefix>/..." in the current registry. */
struct DiskStats
{
    explicit DiskStats(const std::string &prefix);

    util::Counter &reads;
    util::Counter &writes;
    util::Counter &cache_hits;   ///< reads served entirely from cache
    util::Counter &cache_misses; ///< reads requiring media access
    util::Counter &media_blocks_read;
    util::Counter &media_blocks_written;
    util::Counter &seeks; ///< mechanical ops with nonzero cylinder motion

    // Latency attribution: cumulative queue-wait and service time on
    // the two internal resources (see DESIGN.md §9).
    util::Counter &bus_wait_ns;
    util::Counter &bus_service_ns;
    util::Counter &mech_wait_ns;
    util::Counter &mech_service_ns;
};

/** One simulated disk drive (see file comment). */
class DiskModel : public BlockDevice
{
  public:
    DiskModel(sim::Simulator &sim, DiskParams params);

    std::uint32_t blockSize() const override { return params_.block_size; }
    std::uint64_t numBlocks() const override { return params_.totalBlocks(); }

    sim::Task<void> read(std::uint64_t block, std::uint32_t count,
                         std::span<std::uint8_t> out,
                         util::OpAttribution *attr = nullptr) override;
    sim::Task<void> fetch(std::uint64_t block, std::uint32_t count,
                          util::OpAttribution *attr = nullptr) override;
    sim::Task<void> writeBack(std::uint64_t block, std::uint32_t count,
                              util::OpAttribution *attr = nullptr) override;
    sim::Task<void> flush() override;

    void
    view(std::uint64_t byte_offset, std::uint64_t length,
         util::ByteSink sink) const override
    {
        data_.read(byte_offset, length, sink);
    }

    void
    poke(std::uint64_t byte_offset,
         std::span<const std::uint8_t> data) override
    {
        data_.write(byte_offset, data);
    }

    void
    zero(std::uint64_t byte_offset, std::uint64_t length) override
    {
        data_.trim(byte_offset, length);
    }

    const DiskParams &params() const { return params_; }
    const DiskStats &stats() const { return stats_; }

    /**
     * Fault injection: scale every mechanical service time (seek,
     * rotational wait, media transfer, write-behind drain) by
     * @p scale >= 1.0. Models a degrading spindle for straggler-
     * detection benches; 1.0 (the default) is byte-identical to the
     * unscaled model.
     */
    void setMechScale(double scale) { mech_scale_ = scale; }
    double mechScale() const { return mech_scale_; }

    /** Seek time between two cylinders (exposed for tests). */
    sim::Tick seekTime(std::uint64_t from_cyl, std::uint64_t to_cyl) const;

    /** Cylinder holding @p block. */
    std::uint64_t
    cylinderOf(std::uint64_t block) const
    {
        return block / (static_cast<std::uint64_t>(
                            params_.sectors_per_track) * params_.heads);
    }

  private:
    /**
     * One cached range of blocks [start, end). Blocks below sync_end
     * were read synchronously and are available at load_done; blocks
     * beyond arrive as readahead progresses at per_block ns each.
     */
    struct CacheSegment
    {
        bool valid = false;
        std::uint64_t start = 0;
        std::uint64_t end = 0;
        std::uint64_t sync_end = 0;
        sim::Tick load_done = 0;
        sim::Tick per_block = 0;
        sim::Tick last_use = 0;

        bool
        contains(std::uint64_t b) const
        {
            return valid && b >= start && b < end;
        }

        sim::Tick
        availableAt(std::uint64_t b) const
        {
            if (b < sync_end)
                return load_done;
            return load_done + (b - sync_end + 1) * per_block;
        }
    };

    /** Time to move @p count blocks to/from media starting at @p block,
     *  including seek and rotational positioning from the current
     *  simulated instant; updates arm position. */
    sim::Tick mechanicalTime(std::uint64_t block, std::uint32_t count);

    /** Per-block media transfer time (one sector time). */
    sim::Tick
    perBlockMediaTime() const
    {
        return static_cast<sim::Tick>(params_.rotationPeriodNs() /
                                      params_.sectors_per_track *
                                      mech_scale_);
    }

    /** Bus transfer time for @p bytes. */
    sim::Tick
    busTime(std::uint64_t bytes) const
    {
        const double bps = params_.bus_mb_per_s * 1024 * 1024;
        return static_cast<sim::Tick>(static_cast<double>(bytes) / bps *
                                      1e9);
    }

    /** Find the segment containing @p block, or nullptr. */
    CacheSegment *findSegment(std::uint64_t block);

    /** Abandon readahead not yet completed at the current instant. */
    void cancelPendingReadahead();

    /** Record a synchronous media read and schedule readahead after it. */
    void installSegment(std::uint64_t block, std::uint32_t count,
                        sim::Tick load_done);

    /** Drop cached data overlapping [block, block+count). */
    void invalidateRange(std::uint64_t block, std::uint32_t count);

    /** Record @p ns of queue wait on @p c into the drive counters and,
     *  when set, into @p attr (c is kDiskBus or kDiskMech). */
    void noteWait(util::ResourceClass c, sim::Tick ns,
                  util::OpAttribution *attr);

    /** Record @p ns of service time on @p c; see noteWait(). */
    void noteService(util::ResourceClass c, sim::Tick ns,
                     util::OpAttribution *attr);

    sim::Simulator &sim_;
    DiskParams params_;
    util::SparseStore data_;
    DiskStats stats_;

    sim::Semaphore mech_;  ///< actuator + read/write channel
    sim::Semaphore bus_;   ///< host interface

    std::uint64_t current_cylinder_ = 0;
    double mech_scale_ = 1.0; ///< slow-drive fault multiplier
    std::vector<CacheSegment> segments_;

    // Write-behind: simulated time at which all accepted writes will
    // have drained to media.
    sim::Tick media_free_at_ = 0;
};

} // namespace nasd::disk

#endif // NASD_DISK_DISK_MODEL_H_
