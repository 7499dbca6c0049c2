/**
 * @file
 * Unit tests for src/util: RNG determinism and distributions, stats
 * accumulators, unit conversion, Result.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "util/result.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/timeseries.h"
#include "util/units.h"

namespace nasd::util {
namespace {

TEST(Rng, SameSeedSameStream)
{
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += (a.next() == b.next());
    EXPECT_LT(same, 3);
}

TEST(Rng, BelowStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, BelowOneIsZero)
{
    Rng rng(7);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, BetweenInclusive)
{
    Rng rng(9);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        const auto v = rng.between(3, 5);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 5u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 3u); // all three values appear
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(11);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ExponentialMeanConverges)
{
    Rng rng(13);
    double sum = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += rng.exponential(4.0);
    EXPECT_NEAR(sum / n, 4.0, 0.15);
}

TEST(Zipf, RankZeroMostPopular)
{
    Rng rng(17);
    ZipfSampler zipf(100, 0.99);
    std::map<std::size_t, int> counts;
    for (int i = 0; i < 20000; ++i)
        counts[zipf.sample(rng)]++;
    EXPECT_GT(counts[0], counts[10]);
    EXPECT_GT(counts[0], counts[50]);
}

TEST(Zipf, ThetaZeroIsUniformish)
{
    Rng rng(19);
    ZipfSampler zipf(10, 0.0);
    std::map<std::size_t, int> counts;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        counts[zipf.sample(rng)]++;
    for (const auto &[rank, count] : counts)
        EXPECT_NEAR(count, n / 10, n / 10 * 0.15);
}

TEST(Zipf, AllRanksReachable)
{
    Rng rng(23);
    ZipfSampler zipf(5, 0.5);
    std::set<std::size_t> seen;
    for (int i = 0; i < 5000; ++i)
        seen.insert(zipf.sample(rng));
    EXPECT_EQ(seen.size(), 5u);
}

/** ZipfSampler's rank lookup before its guide table: a binary search
 *  for the smallest i with cdf[i] >= u, clamped to n - 1. */
std::size_t
binarySearchRank(const std::vector<double> &cdf, double u)
{
    std::size_t lo = 0;
    std::size_t hi = cdf.size() - 1;
    while (lo < hi) {
        const std::size_t mid = lo + (hi - lo) / 2;
        if (cdf[mid] < u)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

TEST(Zipf, GuideTableMatchesBinarySearch)
{
    // The guide table must return exactly the binary search's rank for
    // every u, or the generated dataset (and every mining baseline)
    // would change. Probe the points where the two could disagree:
    // each CDF value, each bucket edge, their neighbours, and both
    // ends of [0, 1), then a long run of seeded draws.
    constexpr auto kBuckets = ZipfSampler::kGuideBuckets;
    for (const std::size_t n : {1, 2, 5, 500, 1000, 3000}) {
        for (const double theta : {0.0, 0.5, 0.8, 0.99}) {
            SCOPED_TRACE(testing::Message()
                         << "n " << n << " theta " << theta);
            const ZipfSampler zipf(n, theta);
            std::vector<double> probes = {0.0, std::nextafter(1.0, 0.0)};
            const auto around = [&probes](double x) {
                probes.push_back(x);
                probes.push_back(std::nextafter(x, 2.0));
                if (x > 0.0)
                    probes.push_back(std::nextafter(x, 0.0));
            };
            for (const double c : zipf.cdf())
                around(c);
            for (std::size_t b = 0; b <= kBuckets; ++b)
                around(static_cast<double>(b) / kBuckets);
            std::size_t mismatches = 0;
            for (const double u : probes) {
                if (zipf.rankOf(u) != binarySearchRank(zipf.cdf(), u))
                    ++mismatches;
            }
            EXPECT_EQ(mismatches, 0u) << "of " << probes.size() << " probes";

            // sample() must consume one uniform() per draw and map it
            // through the same lookup.
            Rng a(n * 31 + static_cast<std::uint64_t>(theta * 100));
            Rng b = a;
            std::size_t draw_mismatches = 0;
            for (int i = 0; i < 1'000'000; ++i) {
                if (zipf.sample(a) != binarySearchRank(zipf.cdf(), b.uniform()))
                    ++draw_mismatches;
            }
            EXPECT_EQ(draw_mismatches, 0u);
        }
    }
}

TEST(SampleStats, BasicMoments)
{
    SampleStats s;
    for (double v : {1.0, 2.0, 3.0, 4.0})
        s.add(v);
    EXPECT_EQ(s.count(), 4u);
    EXPECT_DOUBLE_EQ(s.mean(), 2.5);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 4.0);
    EXPECT_NEAR(s.stddev(), std::sqrt(1.25), 1e-12);
}

TEST(SampleStats, EmptyIsZero)
{
    SampleStats s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.percentile(50), 0.0);
}

TEST(SampleStats, PercentileInterpolates)
{
    SampleStats s;
    for (double v : {10.0, 20.0, 30.0, 40.0, 50.0})
        s.add(v);
    EXPECT_DOUBLE_EQ(s.percentile(0), 10.0);
    EXPECT_DOUBLE_EQ(s.percentile(100), 50.0);
    EXPECT_DOUBLE_EQ(s.percentile(50), 30.0);
    EXPECT_DOUBLE_EQ(s.percentile(25), 20.0);
}

TEST(SampleStats, PercentileAfterAddResorts)
{
    SampleStats s;
    s.add(5.0);
    s.add(1.0);
    EXPECT_DOUBLE_EQ(s.percentile(100), 5.0);
    s.add(9.0);
    EXPECT_DOUBLE_EQ(s.percentile(100), 9.0);
    EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
}

TEST(Utilization, BusyFractionOverWindow)
{
    UtilizationTracker u;
    u.markBusy(100);
    u.markIdle(200);
    u.markBusy(300);
    u.markIdle(400);
    EXPECT_DOUBLE_EQ(u.utilization(0, 400), 0.5);
    EXPECT_DOUBLE_EQ(u.busyTime(), 200.0);
}

TEST(Utilization, OpenIntervalCounted)
{
    UtilizationTracker u;
    u.markBusy(0);
    EXPECT_DOUBLE_EQ(u.utilization(0, 100), 1.0);
}

TEST(Utilization, RedundantMarksIgnored)
{
    UtilizationTracker u;
    u.markBusy(10);
    u.markBusy(20); // ignored
    u.markIdle(30);
    u.markIdle(40); // ignored
    EXPECT_EQ(u.busyTime(), 20u);
}

TEST(SampleStats, PercentileReusesSortedCache)
{
    SampleStats s;
    for (double v : {3.0, 1.0, 2.0})
        s.add(v);
    EXPECT_EQ(s.sortCount(), 0u);
    (void)s.percentile(50);
    (void)s.percentile(95); // no intervening add: cache reused
    EXPECT_EQ(s.sortCount(), 1u);
    s.add(4.0);
    (void)s.percentile(50);
    EXPECT_EQ(s.sortCount(), 2u);
}

TEST(SampleStats, ReservoirBoundsRetainedSamples)
{
    SampleStats s(16);
    for (int i = 0; i < 1000; ++i)
        s.add(static_cast<double>(i));
    EXPECT_EQ(s.count(), 1000u);
    EXPECT_EQ(s.retained(), 16u);
    // Moments stay exact even after eviction.
    EXPECT_DOUBLE_EQ(s.mean(), 499.5);
    EXPECT_DOUBLE_EQ(s.min(), 0.0);
    EXPECT_DOUBLE_EQ(s.max(), 999.0);
    // Percentiles are approximate but drawn from real samples.
    const double p50 = s.percentile(50);
    EXPECT_GE(p50, 0.0);
    EXPECT_LE(p50, 999.0);
}

TEST(SampleStats, ReservoirIsDeterministic)
{
    SampleStats a(8);
    SampleStats b(8);
    for (int i = 0; i < 500; ++i) {
        a.add(static_cast<double>(i));
        b.add(static_cast<double>(i));
    }
    for (double p : {0.0, 25.0, 50.0, 75.0, 100.0})
        EXPECT_DOUBLE_EQ(a.percentile(p), b.percentile(p));
}

TEST(SampleStats, ResetRestartsReservoirSequence)
{
    SampleStats s(8);
    for (int i = 0; i < 100; ++i)
        s.add(static_cast<double>(i));
    const double before = s.percentile(50);
    s.reset();
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.retained(), 0u);
    EXPECT_EQ(s.sortCount(), 0u);
    for (int i = 0; i < 100; ++i)
        s.add(static_cast<double>(i));
    EXPECT_DOUBLE_EQ(s.percentile(50), before);
}

// Reference quantile using the same rule SampleStats documents: linear
// interpolation at index p/100 * (n-1) into the sorted samples.
double
exactQuantile(std::vector<double> sorted, double p)
{
    std::sort(sorted.begin(), sorted.end());
    const double idx = p / 100.0 * static_cast<double>(sorted.size() - 1);
    const auto lo = static_cast<std::size_t>(idx);
    if (lo + 1 >= sorted.size())
        return sorted.back();
    const double frac = idx - static_cast<double>(lo);
    return sorted[lo] + frac * (sorted[lo + 1] - sorted[lo]);
}

TEST(SampleStats, TailPercentilesMatchExactQuantilesOnUniform)
{
    // 1..1000 inserted in scrambled order (389 is coprime with 1000, so
    // the walk is a permutation): the exact path must reproduce the
    // reference quantiles bit-for-bit.
    SampleStats s;
    std::vector<double> values;
    for (int i = 0; i < 1000; ++i) {
        const double v = static_cast<double>((i * 389) % 1000 + 1);
        s.add(v);
        values.push_back(v);
    }
    for (double p : {50.0, 95.0, 99.0})
        EXPECT_DOUBLE_EQ(s.percentile(p), exactQuantile(values, p))
            << "p" << p;
    EXPECT_DOUBLE_EQ(s.percentile(50), 500.5);
    EXPECT_DOUBLE_EQ(s.percentile(95), 950.05);
    EXPECT_DOUBLE_EQ(s.percentile(99), 990.01);
}

TEST(SampleStats, TailPercentilesSeparateBimodalModes)
{
    // 90% fast ops at 1us, 10% slow ops at 100us, interleaved: the
    // median sits on the fast mode, the tail on the slow one.
    SampleStats s;
    std::vector<double> values;
    for (int i = 0; i < 1000; ++i) {
        const double v = (i % 10 == 9) ? 100000.0 : 1000.0;
        s.add(v);
        values.push_back(v);
    }
    EXPECT_DOUBLE_EQ(s.percentile(50), 1000.0);
    EXPECT_DOUBLE_EQ(s.percentile(95), 100000.0);
    EXPECT_DOUBLE_EQ(s.percentile(99), 100000.0);
    for (double p : {50.0, 95.0, 99.0})
        EXPECT_DOUBLE_EQ(s.percentile(p), exactQuantile(values, p))
            << "p" << p;
}

TEST(SampleStats, ReservoirApproximatesTailPercentiles)
{
    // Bounded Algorithm-R path: 10k uniform samples through a 256-slot
    // reservoir. Percentiles become estimates; with the deterministic
    // generator they must stay within a few percent of the exact
    // quantiles of the full population.
    SampleStats s(256);
    std::vector<double> values;
    for (int i = 0; i < 10000; ++i) {
        const double v = static_cast<double>((i * 7919) % 10000 + 1);
        s.add(v);
        values.push_back(v);
    }
    EXPECT_EQ(s.count(), 10000u);
    EXPECT_EQ(s.retained(), 256u);
    for (double p : {50.0, 95.0, 99.0}) {
        const double exact = exactQuantile(values, p);
        EXPECT_NEAR(s.percentile(p), exact, 0.10 * exact) << "p" << p;
    }
}

TEST(SampleStats, ReservoirBoundaryPinsEnvelopeToExactExtremes)
{
    // At exactly-full capacity the reservoir has evicted nothing, so
    // both modes must agree on every percentile.
    SampleStats exact;
    SampleStats res(8);
    for (int i = 1; i <= 8; ++i) {
        exact.add(static_cast<double>(i));
        res.add(static_cast<double>(i));
    }
    for (double p : {0.0, 25.0, 50.0, 75.0, 99.0, 100.0})
        EXPECT_DOUBLE_EQ(res.percentile(p), exact.percentile(p)) << p;

    // One past the boundary eviction starts, and with this input the
    // deterministic generator eventually drops both true extremes from
    // the reservoir. min_/max_ are tracked exactly, so the percentile
    // envelope must pin to them instead of the surviving residents.
    exact.add(1000.0);
    res.add(1000.0);
    for (int i = 0; i < 200; ++i) {
        exact.add(5.0);
        res.add(5.0);
    }
    EXPECT_EQ(res.retained(), 8u);
    EXPECT_DOUBLE_EQ(res.percentile(0), 1.0);
    EXPECT_DOUBLE_EQ(res.percentile(100), 1000.0);
    EXPECT_DOUBLE_EQ(res.percentile(0), exact.percentile(0));
    EXPECT_DOUBLE_EQ(res.percentile(100), exact.percentile(100));
    // Interior percentiles stay within the exact envelope.
    for (double p : {10.0, 50.0, 95.0}) {
        EXPECT_GE(res.percentile(p), res.min());
        EXPECT_LE(res.percentile(p), res.max());
    }
}

TEST(TimeSeries, ColumnsAccumulateInStep)
{
    TimeSeries ts(50'000'000); // 50 ms interval
    const std::size_t mbs = ts.addSeries("client_read_mbs");
    const std::size_t depth = ts.addSeries("client_rx_queued");
    EXPECT_EQ(ts.seriesCount(), 2u);
    EXPECT_EQ(ts.seriesName(mbs), "client_read_mbs");
    EXPECT_EQ(ts.sampleCount(), 0u);

    ts.setStartNs(1000);
    for (int k = 0; k < 4; ++k) {
        ts.append(mbs, 10.0 * k);
        ts.append(depth, static_cast<double>(k));
    }
    EXPECT_EQ(ts.sampleCount(), 4u);
    EXPECT_EQ(ts.startNs(), 1000u);
    EXPECT_DOUBLE_EQ(ts.values(mbs)[3], 30.0);
    EXPECT_DOUBLE_EQ(ts.values(depth)[2], 2.0);
}

TEST(TimeSeries, JsonCarriesIntervalAndSeries)
{
    TimeSeries ts(1000);
    const std::size_t col = ts.addSeries("throughput");
    ts.setStartNs(500);
    ts.append(col, 1.5);
    ts.append(col, 2.5);
    const std::string json = ts.toJson();
    EXPECT_NE(json.find("\"interval_ns\": 1000"), std::string::npos);
    EXPECT_NE(json.find("\"start_ns\": 500"), std::string::npos);
    EXPECT_NE(json.find("\"samples\": 2"), std::string::npos);
    EXPECT_NE(json.find("\"throughput\""), std::string::npos);
}

TEST(Utilization, MarkIdleWhileIdleIsIgnored)
{
    UtilizationTracker u;
    u.markIdle(100); // never busy: nothing to close
    EXPECT_EQ(u.busyTime(), 0u);
    EXPECT_DOUBLE_EQ(u.utilization(0, 200), 0.0);
}

TEST(Utilization, DoubleMarkBusyKeepsFirstStart)
{
    UtilizationTracker u;
    u.markBusy(100);
    u.markBusy(150); // ignored: interval already open at 100
    u.markIdle(200);
    EXPECT_EQ(u.busyTime(), 100u);
}

TEST(Utilization, WindowStartingMidBusyInterval)
{
    UtilizationTracker u;
    u.markBusy(100);
    // Open interval clipped to the window: busy the whole [150, 250].
    EXPECT_DOUBLE_EQ(u.utilization(150, 250), 1.0);
    // Window entirely before the busy interval began.
    EXPECT_DOUBLE_EQ(u.utilization(0, 50), 0.0);
}

TEST(Utilization, EmptyWindowIsZero)
{
    UtilizationTracker u;
    u.markBusy(0);
    u.markIdle(100);
    EXPECT_DOUBLE_EQ(u.utilization(50, 50), 0.0);
    EXPECT_DOUBLE_EQ(u.utilization(80, 20), 0.0);
}

TEST(Units, Formatting)
{
    EXPECT_EQ(formatBytes(512), "512B");
    EXPECT_EQ(formatBytes(4 * kKB), "4KB");
    EXPECT_EQ(formatBytes(3 * kMB), "3MB");
    EXPECT_EQ(formatBytes(2 * kGB), "2GB");
    EXPECT_EQ(formatBytes(kKB + 1), "1025B");
}

TEST(Units, Conversions)
{
    // 155 Mb/s OC-3 is 19.375 decimal MB/s.
    EXPECT_DOUBLE_EQ(mbpsToBytesPerSec(155), 19375000.0);
    EXPECT_DOUBLE_EQ(bytesPerSecToMBs(kMB), 1.0);
}

enum class TestError { kBad, kWorse };

TEST(Result, ValueRoundTrip)
{
    Result<int, TestError> r(7);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(*r, 7);
}

TEST(Result, ErrorRoundTrip)
{
    Result<int, TestError> r(Err{TestError::kWorse});
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error(), TestError::kWorse);
}

TEST(Result, VoidSpecialization)
{
    Result<void, TestError> ok;
    EXPECT_TRUE(ok.ok());
    Result<void, TestError> bad(Err{TestError::kBad});
    EXPECT_FALSE(bad.ok());
    EXPECT_EQ(bad.error(), TestError::kBad);
}

// Result is a [[nodiscard]] class: ignoring a status-returning drive,
// Cheops, or PFS operation is a compile error under -Werror. There is
// no portable way to assert "this must not compile" in a unit test, so
// the demonstration is kept behind an opt-in macro; building with
//   g++ ... -DNASD_DEMONSTRATE_NODISCARD -Werror=unused-result
// fails on exactly the two statements below:
//
//   error: ignoring returned value of type 'Result<int, TestError>',
//          declared with attribute 'nodiscard'
#ifdef NASD_DEMONSTRATE_NODISCARD
Result<int, TestError>
makeResult()
{
    return 1;
}

void
dropsStatus()
{
    makeResult();                      // compile error: discarded Result
    Result<void, TestError> r;
    r.ok();                            // compile error: discarded status
}
#endif

TEST(Result, MapTransformsValueAndPropagatesError)
{
    Result<int, TestError> ok(21);
    auto doubled = ok.map([](const int &v) { return v * 2; });
    ASSERT_TRUE(doubled.ok());
    EXPECT_EQ(*doubled, 42);

    Result<int, TestError> bad(Err{TestError::kWorse});
    auto still_bad = bad.map([](const int &v) { return v * 2; });
    ASSERT_FALSE(still_bad.ok());
    EXPECT_EQ(still_bad.error(), TestError::kWorse);
}

TEST(Result, MapToVoidRunsSideEffectOnlyOnOk)
{
    int calls = 0;
    Result<int, TestError> ok(5);
    auto unit = ok.map([&](const int &) { ++calls; });
    EXPECT_TRUE(unit.ok());
    EXPECT_EQ(calls, 1);

    Result<int, TestError> bad(Err{TestError::kBad});
    auto unit2 = bad.map([&](const int &) { ++calls; });
    EXPECT_FALSE(unit2.ok());
    EXPECT_EQ(calls, 1);
}

TEST(Result, MapRvalueMovesValue)
{
    Result<std::string, TestError> ok(std::string("abc"));
    auto len = std::move(ok).map(
        [](std::string &&s) { return s.size(); });
    ASSERT_TRUE(len.ok());
    EXPECT_EQ(*len, 3u);
}

TEST(Result, AndThenChainsAndShortCircuits)
{
    auto half = [](const int &v) -> Result<int, TestError> {
        if (v % 2 != 0)
            return Err{TestError::kBad};
        return v / 2;
    };

    Result<int, TestError> ok(8);
    auto q = ok.and_then(half).and_then(half);
    ASSERT_TRUE(q.ok());
    EXPECT_EQ(*q, 2);

    // 8 -> 4 -> 2 -> 1, then half(1) fails.
    auto odd =
        ok.and_then(half).and_then(half).and_then(half).and_then(half);
    ASSERT_FALSE(odd.ok());
    EXPECT_EQ(odd.error(), TestError::kBad);

    // Errors short-circuit: the continuation must never run.
    Result<int, TestError> bad(Err{TestError::kWorse});
    bool ran = false;
    auto r = bad.and_then([&](const int &) -> Result<int, TestError> {
        ran = true;
        return 0;
    });
    EXPECT_FALSE(ran);
    EXPECT_EQ(r.error(), TestError::kWorse);
}

TEST(Result, ErrorOrYieldsFallbackOnOk)
{
    Result<int, TestError> ok(3);
    EXPECT_EQ(ok.error_or(TestError::kBad), TestError::kBad);
    Result<int, TestError> bad(Err{TestError::kWorse});
    EXPECT_EQ(bad.error_or(TestError::kBad), TestError::kWorse);
}

TEST(Result, ValueOr)
{
    Result<int, TestError> ok(3);
    EXPECT_EQ(ok.value_or(9), 3);
    Result<int, TestError> bad(Err{TestError::kBad});
    EXPECT_EQ(bad.value_or(9), 9);
}

TEST(Result, VoidMonadicHelpers)
{
    Result<void, TestError> ok;
    auto n = ok.map([] { return 7; });
    ASSERT_TRUE(n.ok());
    EXPECT_EQ(*n, 7);
    EXPECT_EQ(ok.error_or(TestError::kBad), TestError::kBad);

    Result<void, TestError> bad(Err{TestError::kWorse});
    auto n2 = bad.map([] { return 7; });
    ASSERT_FALSE(n2.ok());
    EXPECT_EQ(n2.error(), TestError::kWorse);
    EXPECT_EQ(bad.error_or(TestError::kBad), TestError::kWorse);

    bool ran = false;
    auto chained = bad.and_then([&]() -> Result<void, TestError> {
        ran = true;
        return {};
    });
    EXPECT_FALSE(ran);
    EXPECT_FALSE(chained.ok());

    auto chained_ok = ok.and_then([&]() -> Result<void, TestError> {
        ran = true;
        return {};
    });
    EXPECT_TRUE(ran);
    EXPECT_TRUE(chained_ok.ok());
}

} // namespace
} // namespace nasd::util
