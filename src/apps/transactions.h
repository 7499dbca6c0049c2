/**
 * @file
 * Synthetic retail sales transactions.
 *
 * Stands in for the 300 MB of sales records the paper mines
 * (Section 5.2). Records are fixed-size, items are drawn from a
 * heavy-tailed (Zipf) popularity distribution with planted frequent
 * pairs so association-rule mining has something to find, and records
 * never straddle the 2 MB chunk boundaries the parallel miner assigns
 * to clients.
 */
#ifndef NASD_APPS_TRANSACTIONS_H_
#define NASD_APPS_TRANSACTIONS_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "util/codec.h"
#include "util/rng.h"

namespace nasd::apps {

/** Fixed on-disk record layout. */
struct TransactionRecord
{
    static constexpr std::size_t kMaxItems = 12;
    static constexpr std::size_t kBytes = 64;

    // Encoded byte offsets, fields little-endian: txn_id (8 bytes),
    // store_id (4), item_count (1), items (4 each), zero padding.
    static constexpr std::size_t kStoreIdAt = 8;
    static constexpr std::size_t kItemCountAt = 12;
    static constexpr std::size_t kItemsAt = 13;
    static constexpr std::size_t kPadAt = kItemsAt + 4 * kMaxItems;
    static_assert(kPadAt <= kBytes);

    std::uint64_t txn_id = 0;
    std::uint32_t store_id = 0;
    std::uint8_t item_count = 0;
    std::uint32_t items[kMaxItems] = {};
};

/** The chunk unit the parallel miner distributes (2 MB). */
inline constexpr std::uint64_t kChunkBytes = 2 * 1024 * 1024;

/** Records per chunk (records never straddle chunks). */
inline constexpr std::uint64_t kRecordsPerChunk =
    kChunkBytes / TransactionRecord::kBytes;

/** Encode one record into exactly kBytes at @p out. */
void encodeRecord(const TransactionRecord &record,
                  std::span<std::uint8_t> out);

/** Decode one record from kBytes at @p in. item_count is clamped to
 *  kMaxItems, so a corrupt record never indexes past items[]. */
TransactionRecord decodeRecord(std::span<const std::uint8_t> in);

/** item_count of the encoded record at @p record, clamped to kMaxItems
 *  as decodeRecord clamps it. */
inline std::size_t
encodedItemCount(const std::uint8_t *record)
{
    return std::min<std::size_t>(record[TransactionRecord::kItemCountAt],
                                 TransactionRecord::kMaxItems);
}

/** How far ahead of the record it reads stageItems() prefetches. A
 *  scan at a drive counts records where the image holds them, which
 *  nothing has brought into cache. */
inline constexpr std::size_t kStagePrefetchBytes = 4096;

/**
 * Copy the item ids of the encoded records in @p records (whole
 * records; a trailing partial one is ignored) into @p out, in order,
 * and return how many were copied. Each record's twelve item slots are
 * copied whole and the write position then advances by its clamped
 * item count, so no loop depends on the count; the slots lie inside
 * the record, so the copy never reads past it. @p out needs room for
 * kMaxItems ids per record.
 */
inline std::size_t
stageItems(std::span<const std::uint8_t> records, std::span<std::uint32_t> out)
{
    using R = TransactionRecord;
    constexpr std::size_t kAheadRecords = kStagePrefetchBytes / R::kBytes;
    const std::size_t n_records = records.size() / R::kBytes;
    NASD_ASSERT(out.size() >= n_records * R::kMaxItems);
    std::size_t staged = 0;
    const std::uint8_t *record = records.data();
    for (std::size_t r = 0; r < n_records; ++r, record += R::kBytes) {
        if (r + kAheadRecords < n_records)
            __builtin_prefetch(record + kStagePrefetchBytes);
        std::uint32_t *slot = out.data() + staged;
        for (std::size_t i = 0; i < R::kMaxItems; ++i)
            slot[i] =
                util::loadLe<std::uint32_t>(record + R::kItemsAt + 4 * i);
        staged += encodedItemCount(record);
    }
    return staged;
}

/** Configuration of the synthetic dataset. */
struct DatasetParams
{
    std::uint32_t catalog_items = 1000; ///< distinct item ids
    double zipf_theta = 0.8;            ///< item popularity skew
    std::uint32_t min_items = 3;
    std::uint32_t max_items = TransactionRecord::kMaxItems;
    /// Probability a transaction contains the planted frequent pair
    /// (items 1 and 2), giving the miner a strong rule to discover.
    double planted_pair_rate = 0.25;
    std::uint64_t seed = 42;
};

/** Deterministic generator of transaction chunks. */
class TransactionGenerator
{
  public:
    explicit TransactionGenerator(DatasetParams params);

    /**
     * Generate chunk @p index (2 MB of records). Chunks are
     * independent: chunk data depends only on (seed, index), so any
     * client can regenerate any chunk for verification.
     */
    std::vector<std::uint8_t> chunk(std::uint64_t index) const;

    const DatasetParams &params() const { return params_; }

  private:
    DatasetParams params_;
    util::ZipfSampler zipf_;
};

} // namespace nasd::apps

#endif // NASD_APPS_TRANSACTIONS_H_
