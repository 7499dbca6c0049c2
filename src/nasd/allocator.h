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

#include <cstdint>
#include <map>
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

/** First-fit extent allocator with per-unit reference counts. */
class ExtentAllocator
{
  public:
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
    std::uint32_t totalUnits() const
    {
        return static_cast<std::uint32_t>(refs_.size());
    }

    std::uint8_t
    refcount(std::uint32_t unit) const
    {
        return refs_.at(unit);
    }

    bool
    isAllocated(std::uint32_t unit) const
    {
        return refs_.at(unit) != 0;
    }

    /** Per-unit refcounts, one byte per unit: the on-media layout. */
    std::span<const std::uint8_t> refcounts() const { return refs_; }

    /** Rebuild allocator state from refcounts() bytes. */
    static ExtentAllocator
    fromRefcounts(std::span<const std::uint8_t> refcounts);

  private:
    /** Take [start, start+count) out of the free map. @pre free. */
    void claim(std::uint32_t start, std::uint32_t count);

    /** Return [start, start+count) to the free map, merging
     *  neighbours. */
    void releaseRun(std::uint32_t start, std::uint32_t count);

    std::map<std::uint32_t, std::uint32_t> free_; ///< start -> count
    std::vector<std::uint8_t> refs_;
    std::uint32_t free_units_ = 0;
};

} // namespace nasd

#endif // NASD_NASD_ALLOCATOR_H_
