/**
 * @file
 * Lightweight statistics accumulators for simulation results.
 *
 * Modeled loosely on gem5's stats package: scalar counters and busy-time
 * trackers that modules update during a run and benchmarks read
 * afterwards. Latency distributions live in util::LogHistogram.
 */
#ifndef NASD_UTIL_STATS_H_
#define NASD_UTIL_STATS_H_

#include <cstdint>

namespace nasd::util {

/** Monotonic named counter (operations completed, bytes moved, ...). */
class Counter
{
  public:
    void add(std::uint64_t delta = 1) { value_ += delta; }
    std::uint64_t value() const { return value_; }

  private:
    std::uint64_t value_ = 0;
};

/**
 * Tracks the fraction of simulated time a resource was busy.
 *
 * Call markBusy()/markIdle() with the current simulated time; utilization
 * over [start, end] is busy-time / elapsed-time. Used for the "client
 * idle" and "drive idle" curves of Figure 7.
 */
class UtilizationTracker
{
  public:
    /** Begin a busy interval at simulated time @p now (nanoseconds). */
    void markBusy(std::uint64_t now);

    /** End the current busy interval at simulated time @p now. */
    void markIdle(std::uint64_t now);

    /** Busy fraction in [0,1] over the window [start, end]. */
    double utilization(std::uint64_t start, std::uint64_t end) const;

    std::uint64_t busyTime() const { return busy_ns_; }

    /**
     * Busy nanoseconds accumulated up to @p now, including the
     * still-open busy interval (busyTime() only counts closed ones).
     * Lets a sampler read utilization mid-interval.
     */
    std::uint64_t
    busyNsUpTo(std::uint64_t now) const
    {
        std::uint64_t total = busy_ns_;
        if (busy_ && now > busy_since_)
            total += now - busy_since_;
        return total;
    }

  private:
    std::uint64_t busy_ns_ = 0;
    std::uint64_t busy_since_ = 0;
    bool busy_ = false;
};

} // namespace nasd::util

#endif // NASD_UTIL_STATS_H_
