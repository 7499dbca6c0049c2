/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * All stochastic behaviour in the simulator (workload generation, item
 * popularity, layout jitter) draws from an explicitly-seeded Rng so that
 * every test and benchmark run is reproducible bit-for-bit.
 *
 * The core generator is xoshiro256** (Blackman & Vigna), which is small,
 * fast, and has no measurable bias for our purposes.
 */
#ifndef NASD_UTIL_RNG_H_
#define NASD_UTIL_RNG_H_

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <vector>

#include "util/logging.h"

namespace nasd::util {

/** Deterministic xoshiro256** generator with distribution helpers. */
class Rng
{
  public:
    /** Seed the generator; identical seeds yield identical streams. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL)
    {
        // SplitMix64 expansion of the seed into the 256-bit state, per
        // the xoshiro authors' recommendation.
        std::uint64_t x = seed;
        for (auto &word : state_) {
            x += 0x9e3779b97f4a7c15ULL;
            std::uint64_t z = x;
            z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
            z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
            word = z ^ (z >> 31);
        }
    }

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound). @pre bound > 0. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        NASD_ASSERT(bound > 0);
        // Lemire-style rejection to remove modulo bias.
        std::uint64_t x = next();
        __uint128_t m = static_cast<__uint128_t>(x) * bound;
        auto low = static_cast<std::uint64_t>(m);
        if (low < bound) {
            const std::uint64_t threshold = (0 - bound) % bound;
            while (low < threshold) {
                x = next();
                m = static_cast<__uint128_t>(x) * bound;
                low = static_cast<std::uint64_t>(m);
            }
        }
        return static_cast<std::uint64_t>(m >> 64);
    }

    /** Uniform integer in [lo, hi] inclusive. @pre lo <= hi. */
    std::uint64_t
    between(std::uint64_t lo, std::uint64_t hi)
    {
        NASD_ASSERT(lo <= hi);
        return lo + below(hi - lo + 1);
    }

    /** Uniform double in [0, 1). */
    double uniform() { return toUnit(next()); }

    /** The double in [0, 1) that uniform() makes of raw draw @p x: its
     *  top 53 bits, scaled. */
    static double
    toUnit(std::uint64_t x)
    {
        return static_cast<double>(x >> 11) * 0x1.0p-53;
    }

    /** Bernoulli trial with probability @p p of returning true. */
    bool
    chance(double p)
    {
        return uniform() < p;
    }

    /** Exponentially distributed double with the given mean. */
    double
    exponential(double mean)
    {
        double u = uniform();
        // Guard against log(0).
        if (u <= 0.0)
            u = 0x1.0p-53;
        return -mean * std::log(u);
    }

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::array<std::uint64_t, 4> state_{};
};

/**
 * Zipf-distributed integer sampler over [0, n).
 *
 * Used by the retail-transaction workload generator: item popularity in
 * sales data is heavy-tailed, which is what makes frequent-itemset
 * mining interesting. Precomputes the CDF once; sampling inverts it
 * with a guide table (Chen & Asau indexed search): the unit interval
 * is cut into kGuideBuckets equal buckets, and guide_[b] holds the
 * first rank whose CDF value falls in bucket b or later. A draw starts
 * at its bucket's guide and scans forward, and returns exactly the
 * rank a binary search over the CDF would: the smallest i with
 * cdf_[i] >= u, clamped to n - 1. The table has many more buckets
 * than the generator's 500-1000 ranks, so few buckets hold a CDF
 * boundary and the scan almost never takes a step (or mispredicts).
 */
class ZipfSampler
{
  public:
    /** Buckets of the guide table: 2^15, so 128 KB of guides. */
    static constexpr unsigned kGuideBits = 15;
    static constexpr std::size_t kGuideBuckets = std::size_t{1}
                                                 << kGuideBits;
    // sample() reads the bucket off the top bits of a draw, which
    // needs every bucket bit among the 53 that uniform() keeps.
    static_assert(kGuideBits <= 53);

    /**
     * @param n Number of distinct values (ranks).
     * @param theta Skew; 0 = uniform, ~0.99 = classic Zipf.
     */
    ZipfSampler(std::size_t n, double theta)
        : cdf_(n), guide_(kGuideBuckets + 1)
    {
        NASD_ASSERT(n > 0 && n <= UINT32_MAX);
        double sum = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            sum += 1.0 / std::pow(static_cast<double>(i + 1), theta);
            cdf_[i] = sum;
        }
        for (auto &v : cdf_)
            v /= sum;
        // bucket() is monotone and the CDF is nondecreasing, so one
        // forward pass fills every guide.
        std::size_t i = 0;
        for (std::size_t b = 0; b <= kGuideBuckets; ++b) {
            while (i < n - 1 && bucket(cdf_[i]) < b)
                ++i;
            guide_[b] = static_cast<std::uint32_t>(i);
        }
    }

    /**
     * Draw a rank in [0, n); rank 0 is the most popular. Consumes one
     * uniform() and returns rankOf() of it, with the bucket read off
     * the draw's top bits: floor(toUnit(x) * kGuideBuckets) is exactly
     * x >> (64 - kGuideBits).
     */
    std::size_t
    sample(Rng &rng) const
    {
        const std::uint64_t x = rng.next();
        return scan(guide_[x >> (64 - kGuideBits)], Rng::toUnit(x));
    }

    /**
     * The rank a uniform draw @p u in [0, 1) maps to: the smallest i
     * with cdf_[i] >= u, or n - 1 if there is none.
     */
    std::size_t
    rankOf(double u) const
    {
        return scan(guide_[bucket(u)], u);
    }

    std::size_t size() const { return cdf_.size(); }

    /** The precomputed CDF; cdf()[i] is P(rank <= i). */
    const std::vector<double> &cdf() const { return cdf_; }

  private:
    /** Scan from rank @p i, the guide of u's bucket, to u's rank.
     *  Every rank before the guide has a CDF value in an earlier
     *  bucket, hence below u, so the scan skips no candidate. */
    std::size_t
    scan(std::size_t i, double u) const
    {
        while (i < cdf_.size() - 1 && cdf_[i] < u)
            ++i;
        return i;
    }

    /** min(floor(x * kGuideBuckets), kGuideBuckets) for x >= 0; the
     *  product is exact because kGuideBuckets is a power of two. */
    static std::size_t
    bucket(double x)
    {
        return std::min(static_cast<std::size_t>(x * kGuideBuckets),
                        kGuideBuckets);
    }

    std::vector<double> cdf_;
    std::vector<std::uint32_t> guide_;
};

} // namespace nasd::util

#endif // NASD_UTIL_RNG_H_
