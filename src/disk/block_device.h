/**
 * @file
 * Abstract block device interface.
 *
 * Everything that stores fixed-size blocks — a single mechanical disk,
 * a striped set of disks — implements this. Operations are coroutines:
 * they move real bytes immediately and consume simulated time according
 * to the device's timing model. fetch() and writeBack() charge the time
 * alone, so a layer that pokes or views its own bytes copies them at
 * most once.
 */
#ifndef NASD_DISK_BLOCK_DEVICE_H_
#define NASD_DISK_BLOCK_DEVICE_H_

#include <cstdint>
#include <span>

#include "sim/task.h"
#include "util/attribution.h"
#include "util/byte_sink.h"
#include "util/logging.h"

namespace nasd::disk {

/** Asynchronous fixed-block storage device. */
class BlockDevice
{
  public:
    virtual ~BlockDevice() = default;

    /** Bytes per block (sector). */
    virtual std::uint32_t blockSize() const = 0;

    /** Device capacity in blocks. */
    virtual std::uint64_t numBlocks() const = 0;

    /**
     * Read @p count blocks starting at @p block into @p out.
     * When @p attr is set, the device charges its queue waits and
     * service phases (bus, mechanism) to it.
     * @pre out.size() == count * blockSize().
     */
    virtual sim::Task<void> read(std::uint64_t block, std::uint32_t count,
                                 std::span<std::uint8_t> out,
                                 util::OpAttribution *attr = nullptr) = 0;

    /**
     * Charge exactly what read() of the same range charges, and
     * deliver nothing: a caller view()s or peek()s the bytes it wants
     * when this completes, the instant read() would have copied them.
     */
    virtual sim::Task<void> fetch(std::uint64_t block, std::uint32_t count,
                                  util::OpAttribution *attr = nullptr) = 0;

    /**
     * Write @p count blocks starting at @p block from @p data: poke()
     * the bytes into the image, then charge writeBack() for them.
     * @pre data.size() == count * blockSize().
     */
    sim::Task<void>
    write(std::uint64_t block, std::uint32_t count,
          std::span<const std::uint8_t> data,
          util::OpAttribution *attr = nullptr)
    {
        NASD_ASSERT(data.size() ==
                    static_cast<std::size_t>(count) * blockSize());
        poke(block * blockSize(), data);
        co_await writeBack(block, count, attr);
    }

    /**
     * Charge the simulated write of @p count blocks starting at
     * @p block, whose bytes the caller has already poke()d; no bytes
     * move. With write-behind enabled the task completes when the
     * device has accepted the data, not when media is updated. @p attr
     * as for read(). The bytes are durable from the poke; real
     * durability timing (persist at media completion) belongs here.
     */
    virtual sim::Task<void> writeBack(std::uint64_t block,
                                      std::uint32_t count,
                                      util::OpAttribution *attr = nullptr) = 0;

    /** Wait until all accepted writes have reached the media. */
    virtual sim::Task<void> flush() = 0;

    /**
     * Zero-time raw byte access (simulation plumbing, not part of the
     * modeled interface): hand [byte_offset, byte_offset + length) of
     * the backing store to @p sink where it lies, in order, one piece
     * per contiguous run of the image (holes as zeros), without
     * charging simulated time. Higher layers use this for data they
     * have already paid for (a fetch() that completed, their own cache
     * hits).
     */
    virtual void view(std::uint64_t byte_offset, std::uint64_t length,
                      util::ByteSink sink) const = 0;

    /** Zero-time copy of bytes out of the backing store: view() into
     *  @p out. */
    void
    peek(std::uint64_t byte_offset, std::span<std::uint8_t> out) const
    {
        util::CopySink copy(out);
        view(byte_offset, out.size(), copy);
    }

    /** Zero-time raw byte update; see view(). */
    virtual void poke(std::uint64_t byte_offset,
                      std::span<const std::uint8_t> data) = 0;

    /** Zero-time zero fill of [byte_offset, byte_offset + length);
     *  see view(). Allocates nothing. */
    virtual void zero(std::uint64_t byte_offset, std::uint64_t length) = 0;

    /** Total capacity in bytes. */
    std::uint64_t
    capacityBytes() const
    {
        return numBlocks() * blockSize();
    }
};

} // namespace nasd::disk

#endif // NASD_DISK_BLOCK_DEVICE_H_
