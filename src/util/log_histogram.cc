#include "util/log_histogram.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <sstream>

#include "util/logging.h"

namespace nasd::util {

namespace {

/** Format a double for JSON (matches metrics.cc: finite, precision 17). */
std::string
jsonDouble(double v)
{
    if (!std::isfinite(v))
        return "0";
    std::ostringstream os;
    os.precision(17);
    os << v;
    return os.str();
}

} // namespace

std::size_t
LogHistogram::bucketIndex(std::uint64_t value)
{
    if (value < kSubBucketCount)
        return static_cast<std::size_t>(value);
    // Octave e = floor(log2(value)) >= kSubBucketBits; the top
    // kSubBucketBits bits below the leading one select the sub-bucket.
    const unsigned e = static_cast<unsigned>(std::bit_width(value)) - 1;
    const unsigned shift = e - kSubBucketBits;
    const std::uint64_t sub = (value >> shift) & (kSubBucketCount - 1);
    // Octave kSubBucketBits starts right after the 32 unit buckets.
    return static_cast<std::size_t>(
        (e - kSubBucketBits + 1) * kSubBucketCount + sub);
}

std::uint64_t
LogHistogram::bucketLowerBound(std::size_t index)
{
    if (index < kSubBucketCount)
        return static_cast<std::uint64_t>(index);
    const std::uint64_t block = index / kSubBucketCount;
    const std::uint64_t sub = index % kSubBucketCount;
    const unsigned e = static_cast<unsigned>(block) - 1 + kSubBucketBits;
    return (1ull << e) + (sub << (e - kSubBucketBits));
}

std::uint64_t
LogHistogram::bucketWidth(std::size_t index)
{
    if (index < kSubBucketCount)
        return 1;
    const std::uint64_t block = index / kSubBucketCount;
    const unsigned e = static_cast<unsigned>(block) - 1 + kSubBucketBits;
    return 1ull << (e - kSubBucketBits);
}

void
LogHistogram::record(std::uint64_t value)
{
    recordN(value, 1);
}

void
LogHistogram::recordN(std::uint64_t value, std::uint64_t n)
{
    if (n == 0)
        return;
    const std::size_t idx = bucketIndex(value);
    if (idx >= counts_.size())
        counts_.resize(idx + 1, 0);
    counts_[idx] += n;
    count_ += n;
    sum_ += value * n;
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
}

void
LogHistogram::merge(const LogHistogram &other)
{
    if (other.count_ == 0)
        return;
    if (other.counts_.size() > counts_.size())
        counts_.resize(other.counts_.size(), 0);
    for (std::size_t i = 0; i < other.counts_.size(); ++i)
        counts_[i] += other.counts_[i];
    count_ += other.count_;
    sum_ += other.sum_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
}

double
LogHistogram::percentile(double p) const
{
    NASD_ASSERT(p >= 0.0 && p <= 100.0, "percentile out of range: ", p);
    if (count_ == 0)
        return 0.0;
    if (p == 0.0)
        return static_cast<double>(min_);
    if (p == 100.0)
        return static_cast<double>(max_);
    const double target = p / 100.0 * static_cast<double>(count_);
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
        if (counts_[i] == 0)
            continue;
        cum += counts_[i];
        if (static_cast<double>(cum) >= target) {
            const double lo = static_cast<double>(bucketLowerBound(i));
            const double w = static_cast<double>(bucketWidth(i));
            double v = lo + (w - 1.0) / 2.0;
            v = std::min(v, static_cast<double>(max_));
            v = std::max(v, static_cast<double>(min_));
            return v;
        }
    }
    return static_cast<double>(max_);
}

void
LogHistogram::reset()
{
    counts_.clear();
    count_ = 0;
    sum_ = 0;
    min_ = ~0ull;
    max_ = 0;
}

void
LogHistogram::forEachBucket(
    const std::function<void(std::uint64_t, std::uint64_t, std::uint64_t)>
        &fn) const
{
    for (std::size_t i = 0; i < counts_.size(); ++i)
        if (counts_[i] != 0)
            fn(bucketLowerBound(i), bucketWidth(i), counts_[i]);
}

std::string
LogHistogram::toJson() const
{
    std::ostringstream os;
    os << "{\"count\": " << count_ << ", \"sum\": " << sum_
       << ", \"min\": " << min() << ", \"max\": " << max()
       << ", \"mean\": " << jsonDouble(mean())
       << ", \"p50\": " << jsonDouble(percentile(50))
       << ", \"p95\": " << jsonDouble(percentile(95))
       << ", \"p99\": " << jsonDouble(percentile(99)) << ", \"buckets\": [";
    bool first = true;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
        if (counts_[i] == 0)
            continue;
        os << (first ? "" : ", ") << "[" << bucketLowerBound(i) << ", "
           << counts_[i] << "]";
        first = false;
    }
    os << "]}";
    return os.str();
}

} // namespace nasd::util
