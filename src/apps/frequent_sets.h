/**
 * @file
 * Frequent-itemset mining (Apriori [Agrawal94]), the paper's driving
 * parallel application (Section 5.2, Figure 9).
 *
 * The goal is rules like "if a customer purchases milk and eggs, they
 * are also likely to purchase bread". The algorithm makes full scans
 * over the data: pass 1 counts single items (the most I/O-bound phase,
 * the one Figure 9 measures), then each pass k counts candidate
 * k-itemsets built from the frequent (k-1)-itemsets.
 *
 * The counting kernels are pure functions over record buffers so the
 * same code runs at clients (NASD PFS), at an NFS client, or inside
 * the drives (Active Disks).
 */
#ifndef NASD_APPS_FREQUENT_SETS_H_
#define NASD_APPS_FREQUENT_SETS_H_

#include <array>
#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "apps/transactions.h"

namespace nasd::apps {

/** A sorted set of item ids. */
using ItemSet = std::vector<std::uint32_t>;

/** Counts per single item, indexed by item id. */
using ItemCounts = std::vector<std::uint64_t>;

/** CPU cost of the counting kernel, charged by drivers per byte
 *  scanned (calibrated so a 233 MHz client overlaps compute with its
 *  ~6 MB/s of arriving data, as the paper's 4-producer/1-consumer
 *  threading achieved). */
inline constexpr double kCountingCyclesPerByte = 4.0;

/**
 * Pass 1 over records that arrive in pieces of any size, counted where
 * they lie (an Active Disks scan hands it the drive's image piece by
 * piece). Adds the item occurrences of every whole record to its
 * counts; a record split across pieces is carried to the next piece,
 * and a partial record at the end of the stream is not counted.
 */
class OneItemsetCounter
{
  public:
    explicit OneItemsetCounter(std::uint32_t catalog_items)
        : catalog_items_(catalog_items), lanes_(kLanes * catalog_items, 0)
    {}

    /** Count the next @p piece of the record stream. */
    void add(std::span<const std::uint8_t> piece);

    /** The counts of the records counted so far. */
    ItemCounts counts() const;

  private:
    /// Consecutive ids are counted into kLanes tables in turn, so the
    /// increments of a popular id's repeats do not wait on each other;
    /// counts() sums the tables.
    static constexpr std::size_t kLanes = 4;

    std::uint32_t catalog_items_;
    std::vector<std::uint64_t> lanes_; ///< kLanes tables of catalog_items_
    /// The leading bytes of a record split across pieces.
    std::array<std::uint8_t, TransactionRecord::kBytes> partial_{};
    std::size_t partial_bytes_ = 0;
};

/**
 * Pass 1: count item occurrences in a buffer of records.
 * @param data Whole chunks (multiple of the record size).
 * @param catalog_items Item-id space bound.
 */
ItemCounts countOneItemsets(std::span<const std::uint8_t> data,
                            std::uint32_t catalog_items);

/** Merge partial counts (master-side aggregation). */
void mergeCounts(ItemCounts &into, const ItemCounts &from);

/** Items whose count meets @p min_support. */
std::vector<std::uint32_t> frequentItems(const ItemCounts &counts,
                                         std::uint64_t min_support);

/**
 * Candidate generation: join frequent (k-1)-itemsets sharing a k-2
 * prefix, prune candidates with an infrequent subset (classic
 * Apriori).
 */
std::vector<ItemSet>
generateCandidates(const std::vector<ItemSet> &frequent_prev);

/**
 * Pass k: count how many transactions contain each candidate
 * (subset test per record). Returns counts parallel to @p candidates.
 */
std::vector<std::uint64_t>
countCandidates(std::span<const std::uint8_t> data,
                const std::vector<ItemSet> &candidates);

/** Candidates meeting @p min_support. */
std::vector<ItemSet>
frequentSets(const std::vector<ItemSet> &candidates,
             const std::vector<std::uint64_t> &counts,
             std::uint64_t min_support);

} // namespace nasd::apps

#endif // NASD_APPS_FREQUENT_SETS_H_
