#include "cheops/layout.h"

#include <algorithm>

#include "util/logging.h"

namespace nasd::cheops::layout {

std::uint32_t
parityComponent(std::uint64_t row, std::uint32_t width)
{
    return width - static_cast<std::uint32_t>(row % (width + 1));
}

std::uint32_t
dataComponent(std::uint64_t row, std::uint32_t d, std::uint32_t width)
{
    return (parityComponent(row, width) + 1 + d) % (width + 1);
}

std::vector<ComponentRun>
mapRange(const Geometry &g, std::uint64_t offset, std::uint64_t length)
{
    std::vector<ComponentRun> runs;
    const std::uint64_t su = g.stripe_unit;
    const std::uint32_t w = g.width();
    const std::uint64_t end = offset + length;
    std::uint64_t pos = offset;
    while (pos < end) {
        const std::uint64_t unit = pos / su;
        const std::uint64_t row = unit / w;
        const auto d = static_cast<std::uint32_t>(unit % w);
        const std::uint32_t comp = g.parity ? dataComponent(row, d, w) : d;
        const std::uint64_t within = pos % su;
        const std::uint64_t take = std::min(end - pos, su - within);
        const std::uint64_t comp_offset = row * su + within;

        ComponentRun *tail = nullptr;
        for (auto &r : runs) {
            if (r.component == comp &&
                r.component_offset + r.length == comp_offset) {
                tail = &r;
                break;
            }
        }
        if (tail == nullptr)
            tail = &runs.emplace_back(ComponentRun{comp, comp_offset, 0, {}});
        tail->length += take;
        tail->pieces.emplace_back(pos - offset, take);
        pos += take;
    }
    return runs;
}

RowPlan
planRow(const Geometry &g, std::uint64_t row, std::uint64_t offset,
        std::uint64_t length)
{
    const std::uint64_t su = g.stripe_unit;
    const std::uint32_t w = g.width();
    const std::uint64_t row_start = row * g.rowBytes();
    const std::uint64_t lo = std::max(offset, row_start);
    const std::uint64_t hi =
        std::min(offset + length, row_start + g.rowBytes());

    RowPlan plan;
    plan.parity = parityComponent(row, w);
    plan.plo = su;
    for (std::uint32_t d = 0; d < w; ++d) {
        const std::uint64_t unit_start = row_start + d * su;
        const std::uint64_t wa = std::max(lo, unit_start);
        const std::uint64_t wb = std::min(hi, unit_start + su);
        if (wa >= wb)
            continue;
        const UnitWrite uw{dataComponent(row, d, w), wa - unit_start,
                           wb - unit_start, wa - offset};
        plan.plo = std::min(plan.plo, uw.a);
        plan.phi = std::max(plan.phi, uw.b);
        plan.units.push_back(uw);
    }
    plan.skip_read =
        plan.units.size() == w &&
        std::ranges::all_of(plan.units, [&plan](const UnitWrite &uw) {
            return uw.a == plan.plo && uw.b == plan.phi;
        });
    return plan;
}

std::vector<std::pair<std::uint64_t, std::uint64_t>>
unitChunks(std::uint64_t stripe_unit, std::uint64_t offset,
           std::uint64_t length)
{
    std::vector<std::pair<std::uint64_t, std::uint64_t>> chunks;
    const std::uint64_t end = offset + length;
    for (std::uint64_t pos = offset; pos < end;) {
        const std::uint64_t take =
            std::min(end - pos, stripe_unit - pos % stripe_unit);
        chunks.emplace_back(pos, take);
        pos += take;
    }
    return chunks;
}

std::uint64_t
logicalEnd(const Geometry &g, std::uint32_t component,
           std::uint64_t component_size)
{
    if (component_size == 0)
        return 0;
    const std::uint64_t su = g.stripe_unit;
    const std::uint32_t w = g.width();
    // The last byte sits at `within` in the component's unit of `row`.
    const std::uint64_t row = (component_size - 1) / su;
    const std::uint64_t within = (component_size - 1) % su;
    std::uint32_t d = component;
    if (g.parity) {
        d = 0;
        if (component != parityComponent(row, w)) {
            while (dataComponent(row, d, w) != component)
                ++d;
        }
    }
    return row * g.rowBytes() + d * su + within + 1;
}

void
xorInto(std::span<std::uint8_t> dst, std::span<const std::uint8_t> src)
{
    NASD_ASSERT(src.size() <= dst.size(), "xorInto: ", src.size(),
                "-byte source into ", dst.size(), "-byte destination");
    for (std::size_t j = 0; j < src.size(); ++j)
        dst[j] ^= src[j];
}

} // namespace nasd::cheops::layout
