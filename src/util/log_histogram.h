/**
 * @file
 * Mergeable log-bucketed latency histogram (HdrHistogram-style).
 *
 * A per-instance sample reservoir cannot be combined with its siblings
 * without re-observing the raw samples — a 256-drive run would emit
 * 256 unlinked summaries and no fleet p99. LogHistogram fixes that:
 * values are binned into log-linear buckets (32 sub-buckets per
 * octave, so bucket width is at most 1/32 ≈ 3.1% of the value and the
 * reported midpoint is within ~1.6% of any sample in the bucket), and
 * a histogram is just its bucket counts. merge() adds counts
 * element-wise, which makes fleet rollups *exact*: merging N per-drive
 * histograms yields bit-identical buckets — and therefore identical
 * percentiles — to one histogram fed every sample directly.
 *
 * record() is O(1) (a bit_width + shift), memory is one lazily-grown
 * dense vector (≤ ~1.9k buckets even for 2^63 ns values), and
 * toJson() is byte-stable: same samples, same bytes, so the
 * determinism gate can diff dumps across runs.
 *
 * Values below 32 get exact unit-width buckets; count/sum/min/max are
 * always exact (integer arithmetic throughout), only percentiles are
 * quantized to bucket resolution.
 */
#ifndef NASD_UTIL_LOG_HISTOGRAM_H_
#define NASD_UTIL_LOG_HISTOGRAM_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace nasd::util {

class LogHistogram
{
  public:
    /** Sub-bucket resolution: 2^5 = 32 linear sub-buckets per octave. */
    static constexpr unsigned kSubBucketBits = 5;
    static constexpr std::uint64_t kSubBucketCount = 1ull << kSubBucketBits;

    /** Record one sample (nanoseconds by convention). O(1). */
    void record(std::uint64_t value);

    /** Record @p n occurrences of @p value (bucket-delta helper). */
    void recordN(std::uint64_t value, std::uint64_t n);

    /**
     * Add every bucket of @p other into this histogram. Exact: the
     * result is indistinguishable from having recorded the union of
     * both sample streams.
     */
    void merge(const LogHistogram &other);

    std::uint64_t count() const { return count_; }
    std::uint64_t sum() const { return sum_; }
    std::uint64_t min() const { return count_ == 0 ? 0 : min_; }
    std::uint64_t max() const { return count_ == 0 ? 0 : max_; }
    double mean() const
    {
        return count_ == 0
                   ? 0.0
                   : static_cast<double>(sum_) / static_cast<double>(count_);
    }

    /**
     * Percentile in [0, 100]: midpoint of the first bucket whose
     * cumulative count reaches p% of the total, clamped to the exact
     * [min, max] envelope. p = 0 / 100 return the exact min / max.
     * Returns 0 when empty. Depends only on bucket counts, so merged
     * and directly-fed histograms agree bit-for-bit.
     */
    double percentile(double p) const;

    /** Drop all recorded samples. */
    void reset();

    /**
     * Visit every non-empty bucket in ascending value order as
     * (lower_bound, width, count). Deterministic.
     */
    void forEachBucket(
        const std::function<void(std::uint64_t lower, std::uint64_t width,
                                 std::uint64_t count)> &fn) const;

    /**
     * Byte-stable single-line JSON object:
     * {"count": N, "sum": S, "min": m, "max": M, "mean": x,
     *  "p50": x, "p95": x, "p99": x,
     *  "buckets": [[lower, count], ...]}
     * Integers stay integers; merge-then-dump equals dump-of-union.
     */
    std::string toJson() const;

    /** Bucket index for @p value (exposed for tests). */
    static std::size_t bucketIndex(std::uint64_t value);

    /** Smallest value mapping to bucket @p index. */
    static std::uint64_t bucketLowerBound(std::size_t index);

    /** Number of distinct values mapping to bucket @p index. */
    static std::uint64_t bucketWidth(std::size_t index);

  private:
    std::vector<std::uint64_t> counts_; ///< dense, lazily grown
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
    std::uint64_t min_ = ~0ull;
    std::uint64_t max_ = 0;
};

} // namespace nasd::util

#endif // NASD_UTIL_LOG_HISTOGRAM_H_
