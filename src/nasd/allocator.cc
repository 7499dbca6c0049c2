#include "nasd/allocator.h"

#include <algorithm>

#include "util/logging.h"

namespace nasd {

ExtentAllocator::ExtentAllocator(std::uint32_t num_units)
    : pages_((num_units + kPageUnits - 1) / kPageUnits),
      num_units_(num_units), free_units_(num_units)
{
    if (num_units > 0)
        free_.emplace(0, num_units);
}

std::uint8_t
ExtentAllocator::refcount(std::uint32_t unit) const
{
    NASD_ASSERT(unit < num_units_, "refcount of unit ", unit,
                " past the device");
    const auto &page = pages_[unit / kPageUnits];
    return page ? (*page)[unit % kPageUnits] : 0;
}

std::span<std::uint8_t>
ExtentAllocator::pageRun(std::uint32_t unit, std::uint32_t end)
{
    auto &page = pages_[unit / kPageUnits];
    if (!page)
        page = std::make_unique<Page>(); // zero-filled
    const std::uint32_t within = unit % kPageUnits;
    return std::span(page->data() + within,
                     std::min(kPageUnits - within, end - unit));
}

void
ExtentAllocator::markDirty(std::uint32_t start, std::uint32_t count)
{
    if (dirty_lo_ == dirty_hi_) {
        dirty_lo_ = start;
        dirty_hi_ = start + count;
        return;
    }
    dirty_lo_ = std::min(dirty_lo_, start);
    dirty_hi_ = std::max(dirty_hi_, start + count);
}

Extent
ExtentAllocator::takeDirty()
{
    const Extent dirty{dirty_lo_, dirty_hi_ - dirty_lo_};
    dirty_lo_ = dirty_hi_ = 0;
    return dirty;
}

void
ExtentAllocator::copyRefcounts(std::uint32_t first,
                               std::span<std::uint8_t> out) const
{
    NASD_ASSERT(first + out.size() <= num_units_,
                "refcount copy past the device");
    std::size_t done = 0;
    while (done < out.size()) {
        const std::uint32_t unit = first + static_cast<std::uint32_t>(done);
        const std::uint32_t within = unit % kPageUnits;
        const std::size_t n =
            std::min<std::size_t>(kPageUnits - within, out.size() - done);
        const auto &page = pages_[unit / kPageUnits];
        if (page)
            std::copy_n(page->data() + within, n, out.data() + done);
        else
            std::fill_n(out.data() + done, n, std::uint8_t{0});
        done += n;
    }
}

std::vector<std::uint8_t>
ExtentAllocator::refcounts() const
{
    std::vector<std::uint8_t> out(num_units_);
    copyRefcounts(0, out);
    return out;
}

void
ExtentAllocator::claim(std::uint32_t start, std::uint32_t count)
{
    // Find the free run containing [start, start+count).
    auto it = free_.upper_bound(start);
    NASD_ASSERT(it != free_.begin(), "claim of non-free range");
    --it;
    const std::uint32_t run_start = it->first;
    const std::uint32_t run_count = it->second;
    NASD_ASSERT(start >= run_start &&
                    start + count <= run_start + run_count,
                "claim outside free run");
    free_.erase(it);
    if (start > run_start)
        free_.emplace(run_start, start - run_start);
    if (start + count < run_start + run_count)
        free_.emplace(start + count, run_start + run_count - start - count);
    free_units_ -= count;
}

void
ExtentAllocator::releaseRun(std::uint32_t start, std::uint32_t count)
{
    auto [it, inserted] = free_.emplace(start, count);
    NASD_ASSERT(inserted, "double free of unit run");
    // Merge with successor.
    auto next = std::next(it);
    if (next != free_.end() && it->first + it->second == next->first) {
        it->second += next->second;
        free_.erase(next);
    }
    // Merge with predecessor.
    if (it != free_.begin()) {
        auto prev = std::prev(it);
        if (prev->first + prev->second == it->first) {
            prev->second += it->second;
            free_.erase(it);
        }
    }
    free_units_ += count;
}

util::Result<std::vector<Extent>, NasdStatus>
ExtentAllocator::allocate(std::uint32_t units, std::uint32_t hint)
{
    NASD_ASSERT(units > 0, "zero-unit allocation");
    if (units > free_units_)
        return util::Err{NasdStatus::kNoSpace};

    std::vector<Extent> result;
    std::uint32_t needed = units;

    // Pass 1: a single run at/after the hint. If the hint falls inside
    // a free run with enough room after it, allocate exactly at the
    // hint (this is what keeps growing objects contiguous).
    if (needed > 0) {
        auto it = free_.upper_bound(hint);
        if (it != free_.begin()) {
            auto prev = std::prev(it);
            if (prev->first + prev->second > hint &&
                prev->first + prev->second - hint >= needed) {
                claim(hint, needed);
                result.push_back({hint, needed});
                needed = 0;
            }
        }
        for (; needed > 0 && it != free_.end(); ++it) {
            if (it->second >= needed) {
                const std::uint32_t start = it->first;
                claim(start, needed);
                result.push_back({start, needed});
                needed = 0;
                break;
            }
        }
    }
    // Pass 2: a single run anywhere.
    if (needed > 0) {
        for (auto it = free_.begin(); it != free_.end(); ++it) {
            if (it->second >= needed) {
                const std::uint32_t start = it->first;
                claim(start, needed);
                result.push_back({start, needed});
                needed = 0;
                break;
            }
        }
    }
    // Pass 3: gather fragments first-fit.
    while (needed > 0) {
        NASD_ASSERT(!free_.empty(), "free accounting out of sync");
        const auto it = free_.begin();
        const std::uint32_t start = it->first;
        const std::uint32_t take = std::min(it->second, needed);
        claim(start, take);
        result.push_back({start, take});
        needed -= take;
    }

    for (const auto &e : result) {
        const std::uint32_t end = e.start + e.count;
        for (std::uint32_t u = e.start; u < end;) {
            const auto run = pageRun(u, end);
            std::fill(run.begin(), run.end(), std::uint8_t{1});
            u += static_cast<std::uint32_t>(run.size());
        }
        markDirty(e.start, e.count);
    }
    return result;
}

void
ExtentAllocator::ref(const Extent &extent)
{
    const std::uint32_t end = extent.start + extent.count;
    for (std::uint32_t u = extent.start; u < end;) {
        const auto run = pageRun(u, end);
        for (std::uint8_t &count : run) {
            NASD_ASSERT(count > 0, "ref of free unit");
            NASD_ASSERT(count < 255, "refcount overflow");
            ++count;
        }
        u += static_cast<std::uint32_t>(run.size());
    }
    markDirty(extent.start, extent.count);
}

void
ExtentAllocator::unref(const Extent &extent)
{
    // Batch contiguous units that reach zero into single releases.
    std::uint32_t run_start = 0;
    std::uint32_t run_len = 0;
    const std::uint32_t end = extent.start + extent.count;
    for (std::uint32_t u = extent.start; u < end;) {
        const auto run = pageRun(u, end);
        for (std::uint8_t &count : run) {
            NASD_ASSERT(count > 0, "unref of free unit");
            if (--count == 0) {
                if (run_len == 0)
                    run_start = u;
                ++run_len;
            } else if (run_len > 0) {
                releaseRun(run_start, run_len);
                run_len = 0;
            }
            ++u;
        }
    }
    if (run_len > 0)
        releaseRun(run_start, run_len);
    markDirty(extent.start, extent.count);
}

ExtentAllocator
ExtentAllocator::fromRefcounts(std::span<const std::uint8_t> refcounts)
{
    ExtentAllocator alloc(static_cast<std::uint32_t>(refcounts.size()));
    for (std::size_t p = 0; p < alloc.pages_.size(); ++p) {
        const std::size_t first = p * kPageUnits;
        const auto bytes = refcounts.subspan(
            first, std::min<std::size_t>(kPageUnits, refcounts.size() - first));
        if (std::any_of(bytes.begin(), bytes.end(),
                        [](std::uint8_t b) { return b != 0; })) {
            alloc.pages_[p] = std::make_unique<Page>();
            std::copy(bytes.begin(), bytes.end(), alloc.pages_[p]->begin());
        }
    }
    alloc.free_.clear();
    alloc.free_units_ = 0;
    std::uint32_t run_start = 0;
    std::uint32_t run_len = 0;
    for (std::uint32_t u = 0; u < refcounts.size(); ++u) {
        if (refcounts[u] == 0) {
            if (run_len == 0)
                run_start = u;
            ++run_len;
        } else if (run_len > 0) {
            alloc.free_.emplace(run_start, run_len);
            alloc.free_units_ += run_len;
            run_len = 0;
        }
    }
    if (run_len > 0) {
        alloc.free_.emplace(run_start, run_len);
        alloc.free_units_ += run_len;
    }
    return alloc;
}

} // namespace nasd
