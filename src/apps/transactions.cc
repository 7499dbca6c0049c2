#include "apps/transactions.h"

#include <algorithm>

#include "util/codec.h"
#include "util/logging.h"

namespace nasd::apps {

using util::loadLe;
using util::storeLe;
using R = TransactionRecord;

void
encodeRecord(const TransactionRecord &record, std::span<std::uint8_t> out)
{
    NASD_ASSERT(out.size() >= R::kBytes);
    std::uint8_t *p = out.data();
    storeLe(p, record.txn_id);
    storeLe(p + R::kStoreIdAt, record.store_id);
    p[R::kItemCountAt] = record.item_count;
    for (std::size_t i = 0; i < R::kMaxItems; ++i)
        storeLe(p + R::kItemsAt + 4 * i, record.items[i]);
    std::fill(p + R::kPadAt, p + R::kBytes, std::uint8_t{0});
}

TransactionRecord
decodeRecord(std::span<const std::uint8_t> in)
{
    NASD_ASSERT(in.size() >= R::kBytes);
    const std::uint8_t *p = in.data();
    TransactionRecord record;
    record.txn_id = loadLe<std::uint64_t>(p);
    record.store_id = loadLe<std::uint32_t>(p + R::kStoreIdAt);
    // A corrupt count byte must not send readers past items[].
    record.item_count = static_cast<std::uint8_t>(encodedItemCount(p));
    for (std::size_t i = 0; i < R::kMaxItems; ++i)
        record.items[i] = loadLe<std::uint32_t>(p + R::kItemsAt + 4 * i);
    return record;
}

TransactionGenerator::TransactionGenerator(DatasetParams params)
    : params_(params), zipf_(params.catalog_items, params.zipf_theta)
{
    NASD_ASSERT(params_.max_items <= R::kMaxItems);
    NASD_ASSERT(params_.min_items >= 2);
    NASD_ASSERT(params_.catalog_items >= 8);
}

std::vector<std::uint8_t>
TransactionGenerator::chunk(std::uint64_t index) const
{
    // Seed per chunk so chunks are independently regenerable.
    util::Rng rng(params_.seed * 0x9e3779b9ull + index);
    // Zero-filled, so the unused item slots and the padding of every
    // record are already what encodeRecord would write; each field is
    // stored straight into its record, in the order the draws are made.
    std::vector<std::uint8_t> out(kChunkBytes);

    for (std::uint64_t r = 0; r < kRecordsPerChunk; ++r) {
        std::uint8_t *p = out.data() + r * R::kBytes;
        storeLe(p, index * kRecordsPerChunk + r);
        storeLe(p + R::kStoreIdAt,
                static_cast<std::uint32_t>(rng.below(100)));
        const auto n = static_cast<std::uint8_t>(
            rng.between(params_.min_items, params_.max_items));
        p[R::kItemCountAt] = n;

        std::uint8_t *item = p + R::kItemsAt;
        std::uint8_t *const end = item + 4 * n;
        if (rng.chance(params_.planted_pair_rate) && n >= 2) {
            storeLe(item, std::uint32_t{1});
            storeLe(item + 4, std::uint32_t{2});
            item += 8;
        }
        for (; item < end; item += 4)
            storeLe(item, static_cast<std::uint32_t>(zipf_.sample(rng)));
    }
    return out;
}

} // namespace nasd::apps
