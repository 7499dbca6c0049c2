#include "apps/frequent_sets.h"

#include <algorithm>
#include <array>

#include "util/logging.h"

namespace nasd::apps {

namespace {

/** Add the item occurrences of @p data's whole records to the
 *  @p lanes count tables of @p catalog_items each, consecutive ids to
 *  consecutive tables; a trailing partial record is ignored. */
template <std::size_t kLanes>
void
countWholeRecords(std::span<const std::uint8_t> data, std::uint64_t *lanes,
                  std::uint32_t catalog_items)
{
    // Stage a block of records' ids, then count them in one flat loop:
    // a per-record loop over a count uniform in 3..12 mispredicts
    // nearly every record's exit.
    constexpr std::size_t kStageRecords = 256;
    constexpr std::size_t kBlockBytes =
        kStageRecords * TransactionRecord::kBytes;
    // Not zero-filled: stageItems writes every id that is read, and a
    // scan calls this once per piece of a drive's image.
    std::array<std::uint32_t, kStageRecords * TransactionRecord::kMaxItems>
        staged;
    for (std::size_t at = 0; at < data.size(); at += kBlockBytes) {
        const std::size_t n = stageItems(
            data.subspan(at, std::min(kBlockBytes, data.size() - at)),
            staged);
        std::size_t i = 0;
        for (; i + kLanes <= n; i += kLanes) {
            for (std::size_t lane = 0; lane < kLanes; ++lane) {
                const std::uint32_t item = staged[i + lane];
                if (item < catalog_items)
                    ++lanes[lane * catalog_items + item];
            }
        }
        for (; i < n; ++i) {
            const std::uint32_t item = staged[i];
            if (item < catalog_items)
                ++lanes[item];
        }
    }
}

} // namespace

void
OneItemsetCounter::add(std::span<const std::uint8_t> piece)
{
    constexpr std::size_t kRecord = TransactionRecord::kBytes;
    if (partial_bytes_ > 0) {
        const std::size_t take =
            std::min(kRecord - partial_bytes_, piece.size());
        std::copy_n(piece.begin(), take, partial_.begin() + partial_bytes_);
        partial_bytes_ += take;
        piece = piece.subspan(take);
        if (partial_bytes_ < kRecord)
            return;
        countWholeRecords<kLanes>(partial_, lanes_.data(), catalog_items_);
        partial_bytes_ = 0;
    }
    const std::size_t whole = piece.size() / kRecord * kRecord;
    countWholeRecords<kLanes>(piece.first(whole), lanes_.data(),
                              catalog_items_);
    const auto rest = piece.subspan(whole);
    std::copy(rest.begin(), rest.end(), partial_.begin());
    partial_bytes_ = rest.size();
}

ItemCounts
OneItemsetCounter::counts() const
{
    ItemCounts sum(lanes_.begin(), lanes_.begin() + catalog_items_);
    for (std::size_t lane = 1; lane < kLanes; ++lane) {
        for (std::size_t i = 0; i < catalog_items_; ++i)
            sum[i] += lanes_[lane * catalog_items_ + i];
    }
    return sum;
}

ItemCounts
countOneItemsets(std::span<const std::uint8_t> data,
                 std::uint32_t catalog_items)
{
    OneItemsetCounter counter(catalog_items);
    counter.add(data);
    return counter.counts();
}

void
mergeCounts(ItemCounts &into, const ItemCounts &from)
{
    NASD_ASSERT(into.size() == from.size());
    for (std::size_t i = 0; i < into.size(); ++i)
        into[i] += from[i];
}

std::vector<std::uint32_t>
frequentItems(const ItemCounts &counts, std::uint64_t min_support)
{
    std::vector<std::uint32_t> items;
    for (std::uint32_t i = 0; i < counts.size(); ++i) {
        if (counts[i] >= min_support)
            items.push_back(i);
    }
    return items;
}

namespace {

/** Is @p subset (sorted) contained in @p superset (sorted)? */
bool
containsSorted(const ItemSet &superset, const ItemSet &subset)
{
    return std::includes(superset.begin(), superset.end(), subset.begin(),
                         subset.end());
}

} // namespace

std::vector<ItemSet>
generateCandidates(const std::vector<ItemSet> &frequent_prev)
{
    std::vector<ItemSet> candidates;
    if (frequent_prev.empty())
        return candidates;
    const std::size_t k_minus_1 = frequent_prev[0].size();

    // Join: pairs sharing the first k-2 items.
    for (std::size_t a = 0; a < frequent_prev.size(); ++a) {
        for (std::size_t b = a + 1; b < frequent_prev.size(); ++b) {
            const ItemSet &x = frequent_prev[a];
            const ItemSet &y = frequent_prev[b];
            if (!std::equal(x.begin(), x.end() - 1, y.begin()))
                continue;
            ItemSet candidate(x);
            candidate.push_back(y.back());
            std::sort(candidate.begin(), candidate.end());

            // Prune: every (k-1)-subset must be frequent.
            bool all_frequent = true;
            for (std::size_t drop = 0;
                 all_frequent && drop < candidate.size(); ++drop) {
                ItemSet subset;
                for (std::size_t i = 0; i < candidate.size(); ++i) {
                    if (i != drop)
                        subset.push_back(candidate[i]);
                }
                all_frequent =
                    std::find(frequent_prev.begin(), frequent_prev.end(),
                              subset) != frequent_prev.end();
            }
            if (all_frequent)
                candidates.push_back(std::move(candidate));
        }
    }
    (void)k_minus_1;
    return candidates;
}

std::vector<std::uint64_t>
countCandidates(std::span<const std::uint8_t> data,
                const std::vector<ItemSet> &candidates)
{
    std::vector<std::uint64_t> counts(candidates.size(), 0);
    const std::size_t n_records = data.size() / TransactionRecord::kBytes;
    for (std::size_t r = 0; r < n_records; ++r) {
        const auto record = decodeRecord(
            data.subspan(r * TransactionRecord::kBytes,
                         TransactionRecord::kBytes));
        if (record.item_count == 0)
            continue;
        ItemSet basket(record.items, record.items + record.item_count);
        std::sort(basket.begin(), basket.end());
        basket.erase(std::unique(basket.begin(), basket.end()),
                     basket.end());
        for (std::size_t c = 0; c < candidates.size(); ++c) {
            if (containsSorted(basket, candidates[c]))
                ++counts[c];
        }
    }
    return counts;
}

std::vector<ItemSet>
frequentSets(const std::vector<ItemSet> &candidates,
             const std::vector<std::uint64_t> &counts,
             std::uint64_t min_support)
{
    NASD_ASSERT(candidates.size() == counts.size());
    std::vector<ItemSet> result;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
        if (counts[i] >= min_support)
            result.push_back(candidates[i]);
    }
    return result;
}

} // namespace nasd::apps
