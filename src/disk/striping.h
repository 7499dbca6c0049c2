/**
 * @file
 * RAID-0 striping block driver.
 *
 * The prototype NASD "drive" is two Medallists behind a software
 * striping driver (32 KB stripe unit) on two SCSI buses; this class is
 * that driver. Stripe unit k lives on disk (k mod N) at unit offset
 * (k div N), so a large sequential request turns into one contiguous
 * request per member disk, issued in parallel.
 */
#ifndef NASD_DISK_STRIPING_H_
#define NASD_DISK_STRIPING_H_

#include <cstdint>
#include <span>
#include <vector>

#include "disk/block_device.h"
#include "sim/simulator.h"

namespace nasd::disk {

/** RAID-0 striping across homogeneous member devices. */
class StripingDriver : public BlockDevice
{
  public:
    /**
     * @param sim Owning simulator.
     * @param members Member devices (not owned); all must share a block
     *        size, and the stripe unit must be a multiple of it.
     * @param stripe_unit_bytes Contiguous bytes per disk per stripe.
     */
    StripingDriver(sim::Simulator &sim, std::vector<BlockDevice *> members,
                   std::uint64_t stripe_unit_bytes);

    std::uint32_t blockSize() const override;
    std::uint64_t numBlocks() const override;

    sim::Task<void> read(std::uint64_t block, std::uint32_t count,
                         std::span<std::uint8_t> out,
                         util::OpAttribution *attr = nullptr) override;
    sim::Task<void> fetch(std::uint64_t block, std::uint32_t count,
                          util::OpAttribution *attr = nullptr) override;
    sim::Task<void> writeBack(std::uint64_t block, std::uint32_t count,
                              util::OpAttribution *attr = nullptr) override;
    sim::Task<void> flush() override;

    void view(std::uint64_t byte_offset, std::uint64_t length,
              util::ByteSink sink) const override;
    void poke(std::uint64_t byte_offset,
              std::span<const std::uint8_t> data) override;
    void zero(std::uint64_t byte_offset, std::uint64_t length) override;

    std::uint64_t stripeUnitBytes() const { return unit_blocks_ * blockSize(); }
    std::size_t memberCount() const { return members_.size(); }

  private:
    /** A contiguous piece of one member disk plus its place in the
     *  caller's buffer (which is not contiguous after coalescing). */
    struct Extent
    {
        std::size_t disk;
        std::uint64_t disk_block;
        std::uint32_t count;
        /// Host-buffer offsets of each stripe-unit-sized piece.
        std::vector<std::pair<std::uint64_t, std::uint32_t>> pieces;
    };

    /** Split [block, block+count) into per-disk coalesced extents. */
    std::vector<Extent> mapRange(std::uint64_t block,
                                 std::uint32_t count) const;

    sim::Task<void> readExtent(const Extent &e, std::span<std::uint8_t> out,
                               util::OpAttribution *attr);

    /** Call fn(member, member_byte, done, take) for each stripe-unit
     *  piece of the byte range [byte_offset, byte_offset + length). */
    template <typename Fn>
    void forEachPiece(std::uint64_t byte_offset, std::uint64_t length,
                      Fn fn) const;

    sim::Simulator &sim_;
    std::vector<BlockDevice *> members_;
    std::uint64_t unit_blocks_;
};

} // namespace nasd::disk

#endif // NASD_DISK_STRIPING_H_
