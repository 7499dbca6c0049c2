/**
 * @file
 * Extent allocator for the NASD object store.
 *
 * Space is managed in fixed allocation units (8 KB by default). The
 * allocator hands out contiguous extents first-fit, falling back to
 * multiple extents when no single run is large enough. Units carry
 * reference counts so copy-on-write object versions (Section 4.1) can
 * share extents; a unit is free when its count drops to zero.
 */
#ifndef NASD_NASD_ALLOCATOR_H_
#define NASD_NASD_ALLOCATOR_H_

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "nasd/types.h"
#include "util/result.h"

namespace nasd {

/** A contiguous run of allocation units. */
struct Extent
{
    std::uint32_t start = 0;
    std::uint32_t count = 0;

    bool operator==(const Extent &) const = default;
};

/**
 * First-fit extent allocator with per-unit reference counts.
 *
 * Refcounts are stored in pages of kPageUnits bytes, allocated on a
 * page's first non-zero write; an absent page reads as all zeros, so a
 * large, mostly empty device costs memory only for the units it uses.
 * The allocator also tracks the span of units whose counts changed
 * since the last takeDirty(), so a write-back can copy just that span.
 */
class ExtentAllocator
{
  public:
    static constexpr std::uint32_t kPageUnits = 4096;

    explicit ExtentAllocator(std::uint32_t num_units);

    /**
     * Allocate @p units units, preferring a region at or after @p hint
     * (for clustering related objects). Returns one or more extents
     * whose counts sum to @p units, each with refcount 1.
     */
    [[nodiscard]] util::Result<std::vector<Extent>, NasdStatus>
    allocate(std::uint32_t units, std::uint32_t hint = 0);

    /** Increment the refcount of every unit in @p extent (COW share). */
    void ref(const Extent &extent);

    /** Decrement refcounts; units reaching zero return to the free
     *  pool. */
    void unref(const Extent &extent);

    std::uint32_t freeUnits() const { return free_units_; }
    std::uint32_t totalUnits() const { return num_units_; }

    std::uint8_t refcount(std::uint32_t unit) const;

    bool
    isAllocated(std::uint32_t unit) const
    {
        return refcount(unit) != 0;
    }

    /** Copy the refcounts of units [first, first + out.size()) into
     *  @p out, one byte per unit: the on-media layout. */
    void copyRefcounts(std::uint32_t first, std::span<std::uint8_t> out) const;

    /** Every unit's refcount, densely (copyRefcounts() of the whole
     *  range). */
    std::vector<std::uint8_t> refcounts() const;

    /** The units whose refcounts changed since the last call, as one
     *  covering extent (count 0 when none did); resets the tracking. */
    Extent takeDirty();

    /** Rebuild allocator state from refcounts() bytes. */
    static ExtentAllocator
    fromRefcounts(std::span<const std::uint8_t> refcounts);

  private:
    using Page = std::array<std::uint8_t, kPageUnits>;

    /** Writable refcounts of units [unit, end) up to the end of
     *  @p unit's page, allocating the page if absent. */
    std::span<std::uint8_t> pageRun(std::uint32_t unit, std::uint32_t end);

    /** Widen the dirty span to cover [start, start+count). */
    void markDirty(std::uint32_t start, std::uint32_t count);

    /** Take [start, start+count) out of the free map. @pre free. */
    void claim(std::uint32_t start, std::uint32_t count);

    /** Return [start, start+count) to the free map, merging
     *  neighbours. */
    void releaseRun(std::uint32_t start, std::uint32_t count);

    std::map<std::uint32_t, std::uint32_t> free_; ///< start -> count
    std::vector<std::unique_ptr<Page>> pages_;    ///< null = all zero
    std::uint32_t num_units_ = 0;
    std::uint32_t free_units_ = 0;
    std::uint32_t dirty_lo_ = 0; ///< dirty span [lo, hi); empty if equal
    std::uint32_t dirty_hi_ = 0;
};

} // namespace nasd

#endif // NASD_NASD_ALLOCATOR_H_
