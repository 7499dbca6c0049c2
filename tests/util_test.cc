/**
 * @file
 * Unit tests for src/util: RNG determinism and distributions, busy-time
 * tracking, time series, unit conversion, Result.
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
    for (const std::size_t n : {1, 2, 5, 500, 1000, 3000, 70000}) {
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
            // to the binary search's rank.
            Rng a(n * 31 + static_cast<std::uint64_t>(theta * 100));
            Rng b = a;
            std::size_t draw_mismatches = 0;
            for (int i = 0; i < 1'000'000; ++i) {
                if (zipf.sample(a) != binarySearchRank(zipf.cdf(), b.uniform()))
                    ++draw_mismatches;
            }
            EXPECT_EQ(draw_mismatches, 0u);
            EXPECT_EQ(a.next(), b.next());
        }
    }
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
