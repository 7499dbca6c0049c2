/**
 * @file
 * Hierarchical metrics registry.
 *
 * Every instrumented module registers path-named instruments (e.g.
 * "drive0/ops/read/latency_ns") in a MetricsRegistry instead of owning
 * loose Counter members. Instruments are created on first lookup and
 * pointer-stable for the life of the registry, so modules may hold
 * references across the whole run. Benches snapshot a registry with
 * toJson() to produce the machine-readable BENCH_*.json artifacts.
 *
 * Paths are '/'-separated; the prefix convention is
 * <instance>/<subsystem>/<name>, with instance names deduplicated via
 * uniquePrefix() ("drive", "drive#2", ...).
 */
#ifndef NASD_UTIL_METRICS_H_
#define NASD_UTIL_METRICS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "util/log_histogram.h"
#include "util/stats.h"

namespace nasd::util {

/** Last-value instrument for derived results (MB/s, utilization, ...). */
class Gauge
{
  public:
    void set(double value) { value_ = value; }
    double value() const { return value_; }

  private:
    double value_ = 0.0;
};

/**
 * Registry of named instruments. Lookup is create-on-first-use; asking
 * for the same path with a different instrument kind is a bug and
 * panics. std::map keeps iteration (and thus toJson()) deterministic.
 */
class MetricsRegistry
{
  public:
    MetricsRegistry() = default;
    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    /** Monotonic counter at @p path (created on first use). */
    Counter &counter(const std::string &path);

    /** Last-value gauge at @p path (created on first use). */
    Gauge &gauge(const std::string &path);

    /**
     * Mergeable log-bucketed latency histogram at @p path (created on
     * first use). Sibling instruments merge losslessly into fleet
     * rollups (see util::FleetRollup).
     */
    LogHistogram &latency(const std::string &path);

    /**
     * Reserve an instance prefix: returns @p stem the first time, then
     * "stem#2", "stem#3", ... so two drives named "drive" get disjoint
     * metric subtrees.
     */
    std::string uniquePrefix(const std::string &stem);

    /** True if @p path names an existing instrument of any kind. */
    bool contains(const std::string &path) const;

    /** Number of registered instruments. */
    std::size_t size() const { return entries_.size(); }

    /**
     * Deterministic JSON snapshot:
     * {"counters": {path: n, ...},
     *  "gauges": {path: x, ...},
     *  "latencies": {path: {count, sum, min, max, mean, p50, p95, p99,
     *                       buckets: [[lower, n], ...]}}}
     */
    std::string toJson() const;

    /**
     * Visit every instrument of one kind in deterministic (path) order.
     * Used by report builders (e.g. the fig9 --breakdown table) that
     * aggregate over instrument subtrees without knowing the instance
     * names up front.
     */
    void forEachCounter(
        const std::function<void(const std::string &, const Counter &)>
            &fn) const;
    void forEachGauge(
        const std::function<void(const std::string &, const Gauge &)>
            &fn) const;
    void forEachLatency(
        const std::function<void(const std::string &, const LogHistogram &)>
            &fn) const;

  private:
    enum class Kind { kCounter, kGauge, kLatency };

    struct Entry
    {
        Kind kind;
        std::unique_ptr<Counter> counter;
        std::unique_ptr<Gauge> gauge;
        std::unique_ptr<LogHistogram> latency;
    };

    static const char *kindName(Kind kind);
    Entry &lookup(const std::string &path, Kind kind);

    std::map<std::string, Entry> entries_;
    std::map<std::string, std::uint64_t> prefix_counts_;
};

/**
 * Process-wide current registry. Instrumented modules resolve their
 * instruments through this accessor at construction time; benches swap
 * in a fresh registry per measurement with MetricsScope.
 */
MetricsRegistry &metrics();

/**
 * RAII: install a fresh registry as the current one, restore the
 * previous on destruction. Objects that registered instruments must
 * not outlive the scope that was current at their construction.
 */
class MetricsScope
{
  public:
    MetricsScope();
    ~MetricsScope();
    MetricsScope(const MetricsScope &) = delete;
    MetricsScope &operator=(const MetricsScope &) = delete;

    MetricsRegistry &registry() { return registry_; }

  private:
    MetricsRegistry registry_;
    MetricsRegistry *previous_;
};

} // namespace nasd::util

#endif // NASD_UTIL_METRICS_H_
