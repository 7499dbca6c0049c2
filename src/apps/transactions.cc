#include "apps/transactions.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "util/logging.h"

namespace nasd::apps {

namespace {

/** Store @p value little-endian at @p dst. */
template <typename T>
void
storeLe(std::uint8_t *dst, T value)
{
    for (std::size_t i = 0; i < sizeof(T); ++i)
        dst[i] = static_cast<std::uint8_t>(
            static_cast<std::uint64_t>(value) >> (i * 8));
}

/** Load a little-endian T from @p src. On little-endian hosts that is
 *  one unaligned load; the byte loop would cost the mining kernel a
 *  dozen shifts per field. */
template <typename T>
T
loadLe(const std::uint8_t *src)
{
    if constexpr (std::endian::native == std::endian::little) {
        T value;
        std::memcpy(&value, src, sizeof(T));
        return value;
    } else {
        std::uint64_t value = 0;
        for (std::size_t i = 0; i < sizeof(T); ++i)
            value |= static_cast<std::uint64_t>(src[i]) << (i * 8);
        return static_cast<T>(value);
    }
}

// Record layout: txn_id, store_id, item_count, items, zero padding.
constexpr std::size_t kStoreIdAt = 8;
constexpr std::size_t kItemCountAt = 12;
constexpr std::size_t kItemsAt = 13;
constexpr std::size_t kPadAt =
    kItemsAt + 4 * TransactionRecord::kMaxItems;
static_assert(kPadAt <= TransactionRecord::kBytes);

} // namespace

void
encodeRecord(const TransactionRecord &record, std::span<std::uint8_t> out)
{
    NASD_ASSERT(out.size() >= TransactionRecord::kBytes);
    std::uint8_t *p = out.data();
    storeLe(p, record.txn_id);
    storeLe(p + kStoreIdAt, record.store_id);
    p[kItemCountAt] = record.item_count;
    for (std::size_t i = 0; i < TransactionRecord::kMaxItems; ++i)
        storeLe(p + kItemsAt + 4 * i, record.items[i]);
    std::fill(p + kPadAt, p + TransactionRecord::kBytes, std::uint8_t{0});
}

TransactionRecord
decodeRecord(std::span<const std::uint8_t> in)
{
    NASD_ASSERT(in.size() >= TransactionRecord::kBytes);
    const std::uint8_t *p = in.data();
    TransactionRecord record;
    record.txn_id = loadLe<std::uint64_t>(p);
    record.store_id = loadLe<std::uint32_t>(p + kStoreIdAt);
    // A corrupt count byte must not send readers past items[].
    record.item_count = std::min<std::uint8_t>(
        p[kItemCountAt], TransactionRecord::kMaxItems);
    for (std::size_t i = 0; i < TransactionRecord::kMaxItems; ++i)
        record.items[i] = loadLe<std::uint32_t>(p + kItemsAt + 4 * i);
    return record;
}

TransactionGenerator::TransactionGenerator(DatasetParams params)
    : params_(params), zipf_(params.catalog_items, params.zipf_theta)
{
    NASD_ASSERT(params_.max_items <= TransactionRecord::kMaxItems);
    NASD_ASSERT(params_.min_items >= 2);
    NASD_ASSERT(params_.catalog_items >= 8);
}

std::vector<std::uint8_t>
TransactionGenerator::chunk(std::uint64_t index) const
{
    // Seed per chunk so chunks are independently regenerable.
    util::Rng rng(params_.seed * 0x9e3779b9ull + index);
    std::vector<std::uint8_t> out(kChunkBytes);

    for (std::uint64_t r = 0; r < kRecordsPerChunk; ++r) {
        TransactionRecord record;
        record.txn_id = index * kRecordsPerChunk + r;
        record.store_id = static_cast<std::uint32_t>(rng.below(100));
        const auto n = static_cast<std::uint8_t>(
            rng.between(params_.min_items, params_.max_items));
        record.item_count = n;

        std::size_t filled = 0;
        if (rng.chance(params_.planted_pair_rate) && n >= 2) {
            record.items[filled++] = 1;
            record.items[filled++] = 2;
        }
        while (filled < n) {
            record.items[filled++] =
                static_cast<std::uint32_t>(zipf_.sample(rng));
        }
        encodeRecord(record,
                     std::span<std::uint8_t>(
                         out.data() + r * TransactionRecord::kBytes,
                         TransactionRecord::kBytes));
    }
    return out;
}

} // namespace nasd::apps
