/**
 * @file
 * Cheops stripe layout: the arithmetic that maps logical byte ranges
 * onto component units, kept apart from the I/O path as data the
 * client interprets (Section 5.2). Nothing here touches a drive or the
 * simulator; tests/property_test.cc checks every function against a
 * brute-force byte model.
 *
 * A kNone object of n components packs logical stripe unit u densely:
 * component u % n, component offset (u / n) * su. A kParity object of
 * data width w has w + 1 components and is RAID-5, left-symmetric:
 *
 *     parity(r)  = w - (r % (w + 1))
 *     data(r, d) = (parity(r) + 1 + d) % (w + 1)
 *
 * Every component stores one unit of every row r, at component offset
 * r * su, so one component's range is rebuilt by XOR-ing the same
 * range of all the others, whatever role each plays in the row. At
 * w = 1 the parity unit is a copy of the data unit: a two-way mirror.
 */
#ifndef NASD_CHEOPS_LAYOUT_H_
#define NASD_CHEOPS_LAYOUT_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "util/result.h"

namespace nasd::cheops::layout {

struct Geometry
{
    std::uint64_t stripe_unit = 0;
    std::uint32_t components = 0;
    bool parity = false; ///< kParity: one unit of each row is parity

    /** Data units per row. */
    std::uint32_t width() const { return components - (parity ? 1 : 0); }
    std::uint64_t rowBytes() const { return stripe_unit * width(); }
};

std::uint32_t parityComponent(std::uint64_t row, std::uint32_t width);
std::uint32_t dataComponent(std::uint64_t row, std::uint32_t d,
                            std::uint32_t width);

/** A contiguous run on one component plus its host-buffer slices
 *  (offset into the logical range, length), in logical order. */
struct ComponentRun
{
    std::uint32_t component = 0;
    std::uint64_t component_offset = 0;
    std::uint64_t length = 0;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> pieces;
};

/** [offset, offset+length) -> per-component runs, each as long as the
 *  range stays contiguous on its component. */
std::vector<ComponentRun> mapRange(const Geometry &g, std::uint64_t offset,
                                   std::uint64_t length);

/** One data unit's written range [a, b) within a row. */
struct UnitWrite
{
    std::uint32_t comp = 0;
    std::uint64_t a = 0, b = 0;
    std::uint64_t host = 0; ///< offset of byte a in the caller's data
};

/**
 * What a write does to one kParity row: the data units it writes, in
 * data-unit order, and the parity window [plo, phi), the hull of their
 * ranges. When every data unit is written over the whole window (a
 * full row; at width 1, every write) the new parity there is the XOR
 * of the new data alone, so the read phase of the read-modify-write
 * is skipped. The row's fan-out slots are the units, then the parity.
 */
struct RowPlan
{
    std::uint32_t parity = 0; ///< the row's parity component
    std::vector<UnitWrite> units;
    std::uint64_t plo = 0, phi = 0;
    bool skip_read = false;

    std::uint32_t
    slot(std::size_t i) const
    {
        return i < units.size() ? units[i].comp : parity;
    }
    /** Slot @p i's within-unit range. */
    std::pair<std::uint64_t, std::uint64_t>
    range(std::size_t i) const
    {
        return i < units.size() ? std::pair{units[i].a, units[i].b}
                                : std::pair{plo, phi};
    }
};

/** Row @p row's plan for a write of [offset, offset+length); no units
 *  if the write misses the row. */
RowPlan planRow(const Geometry &g, std::uint64_t row, std::uint64_t offset,
                std::uint64_t length);

/** A component range cut at unit boundaries, so each piece lies in
 *  one row: (offset, length) pairs in order. */
std::vector<std::pair<std::uint64_t, std::uint64_t>>
unitChunks(std::uint64_t stripe_unit, std::uint64_t offset,
           std::uint64_t length);

/**
 * The logical size a component of @p component_size bytes proves: one
 * past the logical byte its last byte maps to (0 when empty). A data
 * unit maps back exactly. A parity unit of length x only proves that
 * some data unit of its row reaches x, so it counts as the row's first
 * data unit: a lower bound, exact for the row-aligned writes the
 * planner favours. An object's size is the maximum over its components.
 */
std::uint64_t logicalEnd(const Geometry &g, std::uint32_t component,
                         std::uint64_t component_size);

/**
 * XOR every byte of @p src into the front of @p dst (the parity fold).
 * Kept out of the coroutines that call it: a loop written inside a
 * coroutine body keeps its counter in the coroutine frame and reloads
 * it on every byte.
 */
void xorInto(std::span<std::uint8_t> dst, std::span<const std::uint8_t> src);

/**
 * XOR the same range of every survivor of a row, @p reads, into the
 * zeroed front of @p dst: the fold rebuilds the missing unit whatever
 * role it plays. Any failed read fails the fold with its error;
 * otherwise the result is the longest read's length.
 */
template <typename E>
util::Result<std::uint64_t, E>
xorSurvivors(std::span<std::uint8_t> dst,
             const std::vector<util::Result<std::vector<std::uint8_t>, E>>
                 &reads)
{
    std::uint64_t len = 0;
    for (const auto &r : reads) {
        if (!r.ok())
            return util::Err{r.error()};
        xorInto(dst, r.value());
        len = std::max(len, static_cast<std::uint64_t>(r.value().size()));
    }
    return len;
}

} // namespace nasd::cheops::layout

#endif // NASD_CHEOPS_LAYOUT_H_
