#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>

#include "sim/simulator.h"

namespace nasdbench {

namespace {

bool
parseUnsigned(std::string_view text, std::uint64_t &out)
{
    if (text.empty() || text.size() > 19)
        return false;
    std::uint64_t v = 0;
    for (const char c : text) {
        if (c < '0' || c > '9')
            return false;
        v = v * 10 + static_cast<std::uint64_t>(c - '0');
    }
    out = v;
    return true;
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string_view
firstComponent(std::string_view path)
{
    return path.substr(0, path.find('/'));
}

} // namespace

std::optional<std::string>
parseOptions(int argc, char **argv, Options &out)
{
    for (int i = 1; i < argc; ++i) {
        const std::string_view flag = argv[i];
        if (i + 1 >= argc)
            return "missing value for " + std::string(flag);
        const std::string_view value = argv[++i];
        std::uint64_t n = 0;
        if (flag == "--workload") {
            out.workload = value;
        } else if (flag == "--seed") {
            if (!parseUnsigned(value, n))
                return "--seed wants a whole number";
            out.seed = n;
        } else if (flag == "--seconds") {
            if (!parseUnsigned(value, n) || n > 3600)
                return "--seconds wants a whole number up to 3600";
            out.seconds = static_cast<double>(n);
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                return "--trace wants 0 or 1";
            out.trace = value == "1";
        } else if (flag == "--size") {
            if (value == "paper")
                out.size = Size::kPaper;
            else if (value == "tiny")
                out.size = Size::kTiny;
            else
                return "--size wants paper or tiny";
        } else if (flag == "--inject") {
            if (value == "corrupt")
                out.inject = Inject::kCorrupt;
            else if (value == "fail")
                out.inject = Inject::kFail;
            else
                return "--inject wants corrupt or fail";
        } else if (flag == "--start-order") {
            if (value != "seeded" && value != "rank")
                return "--start-order wants seeded or rank";
            out.rank_order = value == "rank";
        } else if (flag == "--trace-out") {
            out.trace_path = value;
        } else {
            return "unknown flag " + std::string(flag);
        }
    }
    if (out.workload.empty())
        return "--workload is required";
    return std::nullopt;
}

double
wallNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
hostNow()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KB on Linux
}

// ------------------------------------------------------------------ Spans

Spans::Host::Host(Spans &spans, const char *name)
    : spans_(spans.recording_ ? &spans : nullptr)
{
    if (spans_ == nullptr)
        return;
    spans_->open_.push_back(spans_->host_.size());
    spans_->host_.push_back(HostSpan{
        name, spans_->phase_, hostNow(), 0.0, 0.0,
        static_cast<int>(spans_->open_.size()) - 1});
}

Spans::Host::~Host()
{
    if (spans_ == nullptr)
        return;
    HostSpan &span = spans_->host_[spans_->open_.back()];
    spans_->open_.pop_back();
    span.end = hostNow();
    if (!spans_->open_.empty())
        spans_->host_[spans_->open_.back()].child += span.end - span.begin;
}

void
Spans::sim(const char *name, std::uint64_t request, bool root,
           std::uint64_t begin_ns, std::uint64_t end_ns)
{
    if (recording_)
        sim_.push_back(SimSpan{name, request, root, begin_ns, end_ns});
}

double
Spans::hostSelf(std::string_view name, std::string_view phase) const
{
    double total = 0;
    for (const auto &s : host_)
        if (name == s.name && phase == s.phase)
            total += (s.end - s.begin) - s.child;
    return total;
}

std::map<std::string, double>
Spans::simSelf() const
{
    // Children of a root span are the non-root spans of its request.
    std::map<std::uint64_t, std::vector<const SimSpan *>> children;
    for (const auto &s : sim_)
        if (!s.root)
            children[s.request].push_back(&s);
    std::map<std::string, double> self;
    for (const auto &s : sim_) {
        std::uint64_t covered = 0;
        if (s.root) {
            auto kids = children[s.request];
            std::sort(kids.begin(), kids.end(),
                      [](const SimSpan *a, const SimSpan *b) {
                          return a->begin < b->begin;
                      });
            std::uint64_t lo = 0, hi = 0;
            for (const SimSpan *k : kids) {
                const std::uint64_t b = std::max(k->begin, s.begin);
                const std::uint64_t e = std::min(k->end, s.end);
                if (e <= b)
                    continue;
                if (b > hi) {
                    covered += hi - lo;
                    lo = b;
                    hi = e;
                } else {
                    hi = std::max(hi, e);
                }
            }
            covered += hi - lo;
        }
        self[s.name] += static_cast<double>(s.end - s.begin - covered) * 1e-9;
    }
    return self;
}

void
Spans::write(const std::string &path) const
{
    std::ofstream os(path);
    os << "{\"traceEvents\": [";
    bool first = true;
    const double t0 = host_.empty() ? 0.0 : host_.front().begin;
    for (const auto &s : host_) {
        os << (first ? "" : ",\n") << "{\"name\": \"" << s.name
           << "\", \"cat\": \"" << s.phase
           << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.depth + 1
           << ", \"ts\": " << jsonNumber((s.begin - t0) * 1e6)
           << ", \"dur\": " << jsonNumber((s.end - s.begin) * 1e6) << "}";
        first = false;
    }
    for (const auto &s : sim_) {
        os << (first ? "" : ",\n") << "{\"name\": \"" << s.name
           << "\", \"ph\": \"X\", \"pid\": 2, \"tid\": " << (s.root ? 1 : 2)
           << ", \"ts\": " << jsonNumber(static_cast<double>(s.begin) * 1e-3)
           << ", \"dur\": "
           << jsonNumber(static_cast<double>(s.end - s.begin) * 1e-3)
           << ", \"args\": {\"request\": " << s.request << "}}";
        first = false;
    }
    os << "],\n\"otherData\": {\"pid 1\": \"host time\", "
          "\"pid 2\": \"simulated time\"}}\n";
}

// --------------------------------------------------------------- Counters

Snapshot
Snapshot::take(const util::MetricsRegistry &registry)
{
    Snapshot s;
    registry.forEachCounter(
        [&s](const std::string &path, const util::Counter &c) {
            s.counters[path] = c.value();
        });
    registry.forEachLatency(
        [&s](const std::string &path, const util::LogHistogram &h) {
            s.latencies[path] = h;
        });
    s.events = nasd::sim::Simulator::totalEventsExecuted();
    return s;
}

Delta::Delta(const Snapshot &before, const Snapshot &after)
    : events_(after.events - before.events)
{
    for (const auto &[path, value] : after.counters) {
        const auto it = before.counters.find(path);
        counters_[path] = value - (it == before.counters.end() ? 0 : it->second);
    }
    for (const auto &[path, hist] : after.latencies) {
        std::map<std::uint64_t, std::uint64_t> base;
        if (const auto it = before.latencies.find(path);
            it != before.latencies.end())
            it->second.forEachBucket(
                [&base](std::uint64_t lower, std::uint64_t, std::uint64_t n) {
                    base[lower] = n;
                });
        util::LogHistogram delta;
        hist.forEachBucket(
            [&](std::uint64_t lower, std::uint64_t, std::uint64_t n) {
                if (n > base[lower])
                    delta.recordN(lower, n - base[lower]);
            });
        latencies_[path] = delta;
    }
}

std::uint64_t
Delta::sum(std::string_view instance, std::string_view suffix) const
{
    std::uint64_t total = 0;
    for (const auto &[path, value] : counters_)
        if (std::string_view(path).ends_with(suffix) &&
            firstComponent(path).starts_with(instance))
            total += value;
    return total;
}

std::uint64_t
Delta::instances(std::string_view instance, std::string_view suffix) const
{
    std::vector<std::string_view> seen;
    for (const auto &[path, value] : counters_) {
        const auto first = firstComponent(path);
        if (std::string_view(path).ends_with(suffix) &&
            first.starts_with(instance) &&
            std::find(seen.begin(), seen.end(), first) == seen.end())
            seen.push_back(first);
    }
    return seen.size();
}

util::LogHistogram
Delta::latency(std::string_view part) const
{
    util::LogHistogram merged;
    for (const auto &[path, hist] : latencies_)
        if (path.find(part) != std::string::npos)
            merged.merge(hist);
    return merged;
}

// ---------------------------------------------------------------- Results

std::optional<double>
tailPercentile(std::uint64_t samples)
{
    for (const double pct : kTailLadder)
        if (static_cast<double>(samples) * (100.0 - pct) / 100.0 >=
            10.0 - 1e-9)
            return pct;
    return std::nullopt;
}

double
percentile(std::vector<double> &values, double pct)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double rank = std::ceil(pct / 100.0 *
                                  static_cast<double>(values.size()));
    const auto index = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
    return values[std::min(index, values.size() - 1)];
}

bool
validMetricName(std::string_view name)
{
    const auto alnum = [](char c) {
        return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
               (c >= '0' && c <= '9');
    };
    if (name.empty() || name.size() > 64 || !alnum(name.front()))
        return false;
    return std::all_of(name.begin(), name.end(), [&](char c) {
        return alnum(c) || c == '_' || c == '.' || c == '-';
    });
}

void
Report::add(std::string name, double value, std::string unit)
{
    if (!validMetricName(name)) {
        std::fprintf(stderr, "nasdbench: bad metric name '%s'\n",
                     name.c_str());
        std::abort();
    }
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
}

void
Report::print() const
{
    for (const auto &line : notes)
        std::printf("%s\n", line.c_str());
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted) +
            ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
                jsonNumber(m.value) + ", \"unit\": \"" + m.unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
}

} // namespace nasdbench
