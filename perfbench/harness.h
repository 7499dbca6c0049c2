/**
 * @file
 * Workload-independent parts of the repository benchmark: options,
 * host and simulated-time spans, phase-scoped counter snapshots, the
 * tail-percentile rule, and the result line.
 *
 * Nothing here reaches inside src/: counters are read from the public
 * util::MetricsRegistry, spans are recorded around public calls.
 */
#ifndef NASDBENCH_HARNESS_H_
#define NASDBENCH_HARNESS_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/log_histogram.h"
#include "util/metrics.h"

namespace nasdbench {

namespace util = nasd::util;

/** Dataset scale: the paper's sizes, or a seconds-long smoke size. */
enum class Size { kPaper, kTiny };

/** A fault the benchmark injects into itself to prove its checks. */
enum class Inject { kNone, kCorrupt, kFail };

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    Size size = Size::kPaper;
    Inject inject = Inject::kNone;
    bool rank_order = false;  ///< start clients in rank order, not seeded
    std::string trace_path; ///< where a traced run writes its spans
};

/** Parse the command line; returns an error message on bad input. */
std::optional<std::string> parseOptions(int argc, char **argv,
                                        Options &out);

/** Host wall clock (monotonic), in seconds: bounds a run's length. */
double wallNow();

/**
 * CPU time this process has used, in seconds. Host-time metrics use it
 * rather than the wall clock: on a shared machine it does not count
 * the time the process waits for a core.
 */
double hostNow();

/** Peak resident set size of this process, in MB. */
double peakRssMb();

/**
 * Span recorder for one traced run. Host spans are strictly nested
 * (one host thread), so self time is the span minus its direct
 * children. Simulated-time spans interleave (coroutines), so a parent's
 * self time is its interval minus the union of its children's.
 * A disabled recorder ignores every call.
 */
class Spans
{
  public:
    explicit Spans(bool enabled) : enabled_(enabled) {}

    /** Tag later spans with @p phase; record them only if @p on. */
    void
    setPhase(const char *phase, bool on)
    {
        phase_ = phase;
        recording_ = enabled_ && on;
    }

    /** RAII host span; closes on destruction. */
    class Host
    {
      public:
        Host(Spans &spans, const char *name);
        ~Host();
        Host(const Host &) = delete;
        Host &operator=(const Host &) = delete;

      private:
        Spans *spans_;
    };

    /** A new request id: every sim span of one app op shares it. */
    std::uint64_t newRequest() { return ++next_request_; }

    /** Record a finished simulated-time span (ns). */
    void sim(const char *name, std::uint64_t request, bool root,
             std::uint64_t begin_ns, std::uint64_t end_ns);

    /** Host self seconds of the spans named @p name in @p phase. */
    double hostSelf(std::string_view name, std::string_view phase) const;

    /** Simulated self seconds per sim span name. */
    std::map<std::string, double> simSelf() const;

    /** Chrome trace_event JSON: host spans as pid 1, sim spans pid 2. */
    void write(const std::string &path) const;

  private:
    struct HostSpan
    {
        const char *name;
        const char *phase;
        double begin, end, child;
        int depth;
    };
    struct SimSpan
    {
        const char *name;
        std::uint64_t request;
        bool root;
        std::uint64_t begin, end;
    };

    bool enabled_;
    bool recording_ = false;
    const char *phase_ = "";
    std::vector<HostSpan> host_;
    std::vector<std::size_t> open_;
    std::vector<SimSpan> sim_;
    std::uint64_t next_request_ = 0;
};

/** Counter and latency-histogram values of a registry at one instant,
 *  plus the process-wide simulator event count. */
struct Snapshot
{
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, util::LogHistogram> latencies;
    std::uint64_t events = 0;

    static Snapshot take(const util::MetricsRegistry &registry);
};

/** What happened between two snapshots. */
class Delta
{
  public:
    Delta(const Snapshot &before, const Snapshot &after);

    /** Sum of counter deltas whose path ends with @p suffix and whose
     *  first component starts with @p instance ("" = any). */
    std::uint64_t sum(std::string_view instance,
                      std::string_view suffix) const;
    /** Distinct first components among those paths. */
    std::uint64_t instances(std::string_view instance,
                            std::string_view suffix) const;
    /** Merged histogram delta over latency paths containing @p part. */
    util::LogHistogram latency(std::string_view part) const;

    std::uint64_t events() const { return events_; }

  private:
    std::map<std::string, std::uint64_t> counters_;
    std::map<std::string, util::LogHistogram> latencies_;
    std::uint64_t events_;
};

/** Percentiles the tail may be reported at, highest first. */
inline constexpr double kTailLadder[] = {99.99, 99.9, 99.0, 95.0, 90.0,
                                         75.0, 50.0};

/**
 * The highest ladder percentile with at least ten of @p samples
 * beyond it, or nothing when no ladder percentile qualifies.
 */
std::optional<double> tailPercentile(std::uint64_t samples);

/** Nearest-rank percentile of @p values (sorted in place). */
double percentile(std::vector<double> &values, double pct);

/** Metric names: a letter or digit, then letters, digits, `_ . -`;
 *  at most 64 characters. */
bool validMetricName(std::string_view name);

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** The benchmark's verdict and measurements for one run. */
struct Report
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;
    /** Human-readable lines printed before the result (ratio bases,
     *  the tail percentile, mismatches). */
    std::vector<std::string> notes;

    void add(std::string name, double value, std::string unit);
    void note(std::string line) { notes.push_back(std::move(line)); }
    /** Print the notes, then the one-line JSON result. */
    void print() const;
};

} // namespace nasdbench

#endif // NASDBENCH_HARNESS_H_
