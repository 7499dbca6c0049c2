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

#include <cstdint>
#include <span>
#include <vector>

#include "util/rng.h"

namespace nasd::apps {

/** Fixed on-disk record layout. */
struct TransactionRecord
{
    static constexpr std::size_t kMaxItems = 12;
    static constexpr std::size_t kBytes = 64;

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
