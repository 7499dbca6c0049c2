#include "nasd/allocator.h"

#include <algorithm>

#include "util/logging.h"

namespace nasd {

ExtentAllocator::ExtentAllocator(std::uint32_t num_units)
    : refs_(num_units, 0), free_units_(num_units)
{
    if (num_units > 0)
        free_.emplace(0, num_units);
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
        for (std::uint32_t u = e.start; u < e.start + e.count; ++u)
            refs_[u] = 1;
    }
    return result;
}

void
ExtentAllocator::ref(const Extent &extent)
{
    for (std::uint32_t u = extent.start; u < extent.start + extent.count;
         ++u) {
        NASD_ASSERT(refs_[u] > 0, "ref of free unit");
        NASD_ASSERT(refs_[u] < 255, "refcount overflow");
        ++refs_[u];
    }
}

void
ExtentAllocator::unref(const Extent &extent)
{
    // Batch contiguous units that reach zero into single releases.
    std::uint32_t run_start = 0;
    std::uint32_t run_len = 0;
    for (std::uint32_t u = extent.start; u < extent.start + extent.count;
         ++u) {
        NASD_ASSERT(refs_[u] > 0, "unref of free unit");
        --refs_[u];
        if (refs_[u] == 0) {
            if (run_len == 0)
                run_start = u;
            ++run_len;
        } else if (run_len > 0) {
            releaseRun(run_start, run_len);
            run_len = 0;
        }
    }
    if (run_len > 0)
        releaseRun(run_start, run_len);
}

ExtentAllocator
ExtentAllocator::fromRefcounts(std::span<const std::uint8_t> refcounts)
{
    ExtentAllocator alloc(static_cast<std::uint32_t>(refcounts.size()));
    alloc.refs_.assign(refcounts.begin(), refcounts.end());
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
