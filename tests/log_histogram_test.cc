// LogHistogram: bucket scheme, bounded relative error, and the merge
// exactness the fleet rollup depends on (merging N per-drive
// histograms must be indistinguishable from one histogram fed every
// sample).

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "util/log_histogram.h"

namespace nasd::util {
namespace {

/** Deterministic splitmix64 stream for synthetic latencies. */
std::uint64_t
nextRandom(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

TEST(LogHistogram, SmallValuesGetExactUnitBuckets)
{
    for (std::uint64_t v = 0; v < LogHistogram::kSubBucketCount; ++v) {
        EXPECT_EQ(LogHistogram::bucketIndex(v), v);
        EXPECT_EQ(LogHistogram::bucketLowerBound(v), v);
        EXPECT_EQ(LogHistogram::bucketWidth(v), 1u);
    }
}

TEST(LogHistogram, BucketSchemeIsContiguousAndMonotonic)
{
    // Every value maps into [lower, lower + width) of its bucket, and
    // bucket boundaries tile the line with no gaps or overlaps.
    std::uint64_t prev_index = 0;
    for (std::uint64_t v : {0ull, 1ull, 31ull, 32ull, 33ull, 63ull, 64ull,
                            65ull, 1000ull, 4095ull, 4096ull, 1ull << 20,
                            (1ull << 20) + 12345, 1ull << 40, ~0ull >> 1}) {
        const std::size_t idx = LogHistogram::bucketIndex(v);
        const std::uint64_t lo = LogHistogram::bucketLowerBound(idx);
        const std::uint64_t w = LogHistogram::bucketWidth(idx);
        EXPECT_LE(lo, v) << "v=" << v;
        EXPECT_LT(v - lo, w) << "v=" << v;
        EXPECT_GE(idx, prev_index);
        prev_index = idx;
    }
    // Adjacent buckets tile exactly across the first few octaves.
    for (std::size_t idx = 0; idx < 8 * LogHistogram::kSubBucketCount;
         ++idx) {
        EXPECT_EQ(LogHistogram::bucketLowerBound(idx + 1),
                  LogHistogram::bucketLowerBound(idx) +
                      LogHistogram::bucketWidth(idx));
    }
}

TEST(LogHistogram, SummaryStatsAreExact)
{
    LogHistogram h;
    h.record(7);
    h.record(1000);
    h.record(999999);
    h.recordN(42, 3);
    EXPECT_EQ(h.count(), 6u);
    EXPECT_EQ(h.sum(), 7u + 1000u + 999999u + 3 * 42u);
    EXPECT_EQ(h.min(), 7u);
    EXPECT_EQ(h.max(), 999999u);
    EXPECT_DOUBLE_EQ(h.mean(), static_cast<double>(h.sum()) / 6.0);
}

TEST(LogHistogram, EmptyAndEndpointSemantics)
{
    LogHistogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.percentile(50), 0.0);
    h.record(123456);
    EXPECT_DOUBLE_EQ(h.percentile(0), 123456.0);
    EXPECT_DOUBLE_EQ(h.percentile(100), 123456.0);
    // One sample: every percentile clamps to the exact value.
    EXPECT_DOUBLE_EQ(h.percentile(50), 123456.0);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.percentile(99), 0.0);
}

TEST(LogHistogram, RelativeErrorStaysUnderFivePercent)
{
    // With 32 sub-buckets per octave the bucket width is <= 1/32 of
    // the value, so the reported midpoint is within ~1.6% — test the
    // sub-5% spec across five decades.
    for (std::uint64_t v = 10; v < 10ull * 1000 * 1000 * 1000; v = v * 29) {
        LogHistogram h;
        h.record(v);
        h.record(v * 8); // keep the max clamp away from v's bucket
        const double p50 = h.percentile(50);
        EXPECT_NEAR(p50, static_cast<double>(v),
                    0.05 * static_cast<double>(v))
            << "v=" << v;
    }
}

TEST(LogHistogram, MergeOf256ShardsIsExact)
{
    // The acceptance property behind fleet rollups: shard a sample
    // stream over 256 per-drive histograms, merge them back, and the
    // result must match one histogram fed every sample — identical
    // buckets (byte-identical JSON) and identical percentiles.
    constexpr int kDrives = 256;
    constexpr int kSamples = 40000;
    LogHistogram direct;
    std::vector<LogHistogram> shards(kDrives);
    std::uint64_t rng = 0x1234abcdu;
    for (int i = 0; i < kSamples; ++i) {
        // Mix of microsecond-scale ops with a heavy tail.
        std::uint64_t v = 1000 + nextRandom(rng) % 20'000'000;
        if (i % 97 == 0)
            v *= 50;
        direct.record(v);
        shards[static_cast<std::size_t>(i % kDrives)].record(v);
    }
    LogHistogram merged;
    for (const LogHistogram &s : shards)
        merged.merge(s);
    EXPECT_EQ(merged.count(), direct.count());
    EXPECT_EQ(merged.sum(), direct.sum());
    EXPECT_EQ(merged.min(), direct.min());
    EXPECT_EQ(merged.max(), direct.max());
    for (double p : {0.0, 1.0, 25.0, 50.0, 90.0, 95.0, 99.0, 99.9, 100.0})
        EXPECT_DOUBLE_EQ(merged.percentile(p), direct.percentile(p))
            << "p=" << p;
    EXPECT_EQ(merged.toJson(), direct.toJson());
}

TEST(LogHistogram, MergeOrderDoesNotMatter)
{
    LogHistogram a, b, ab, ba;
    std::uint64_t rng = 7;
    for (int i = 0; i < 1000; ++i)
        a.record(nextRandom(rng) % 1000000);
    for (int i = 0; i < 500; ++i)
        b.record(nextRandom(rng) % 50);
    ab.merge(a);
    ab.merge(b);
    ba.merge(b);
    ba.merge(a);
    EXPECT_EQ(ab.toJson(), ba.toJson());
}

TEST(LogHistogram, JsonIsByteStable)
{
    LogHistogram a, b;
    for (std::uint64_t v : {5ull, 100ull, 100ull, 70000ull}) {
        a.record(v);
        b.record(v);
    }
    EXPECT_EQ(a.toJson(), b.toJson());
    EXPECT_EQ(a.toJson(),
              a.toJson()); // repeated serialization is stable too
}

} // namespace
} // namespace nasd::util
