#include "util/metrics.h"

#include <cmath>
#include <cstdio>
#include <sstream>

#include "util/logging.h"

namespace nasd::util {

namespace {

/** Escape a metric path for embedding in a JSON string literal. */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

/** Format a double the way JSON expects (no inf/nan, no trailing cruft). */
std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "0";
    std::ostringstream os;
    os.precision(17);
    os << v;
    return os.str();
}

MetricsRegistry g_default_registry;
MetricsRegistry *g_current_registry = &g_default_registry;

} // namespace

const char *
MetricsRegistry::kindName(Kind kind)
{
    switch (kind) {
      case Kind::kCounter:
        return "counter";
      case Kind::kGauge:
        return "gauge";
      case Kind::kLatency:
        return "latency";
    }
    return "?";
}

MetricsRegistry::Entry &
MetricsRegistry::lookup(const std::string &path, Kind kind)
{
    NASD_ASSERT(!path.empty(), "metric path must not be empty");
    auto [it, inserted] = entries_.try_emplace(path);
    Entry &e = it->second;
    if (inserted) {
        e.kind = kind;
        switch (kind) {
          case Kind::kCounter:
            e.counter = std::make_unique<Counter>();
            break;
          case Kind::kGauge:
            e.gauge = std::make_unique<Gauge>();
            break;
          case Kind::kLatency:
            e.latency = std::make_unique<LogHistogram>();
            break;
        }
    } else if (e.kind != kind) {
        NASD_PANIC("metric '", path, "' registered as ", kindName(e.kind),
                   ", requested as ", kindName(kind));
    }
    return e;
}

Counter &
MetricsRegistry::counter(const std::string &path)
{
    return *lookup(path, Kind::kCounter).counter;
}

Gauge &
MetricsRegistry::gauge(const std::string &path)
{
    return *lookup(path, Kind::kGauge).gauge;
}

LogHistogram &
MetricsRegistry::latency(const std::string &path)
{
    return *lookup(path, Kind::kLatency).latency;
}

std::string
MetricsRegistry::uniquePrefix(const std::string &stem)
{
    NASD_ASSERT(!stem.empty(), "metric prefix stem must not be empty");
    std::uint64_t n = ++prefix_counts_[stem];
    if (n == 1)
        return stem;
    return stem + "#" + std::to_string(n);
}

bool
MetricsRegistry::contains(const std::string &path) const
{
    return entries_.find(path) != entries_.end();
}

std::string
MetricsRegistry::toJson() const
{
    std::ostringstream os;
    os << "{\n  \"counters\": {";
    bool first = true;
    for (const auto &[path, e] : entries_) {
        if (e.kind != Kind::kCounter)
            continue;
        os << (first ? "\n" : ",\n") << "    \"" << jsonEscape(path)
           << "\": " << e.counter->value();
        first = false;
    }
    os << (first ? "" : "\n  ") << "},\n  \"gauges\": {";
    first = true;
    for (const auto &[path, e] : entries_) {
        if (e.kind != Kind::kGauge)
            continue;
        os << (first ? "\n" : ",\n") << "    \"" << jsonEscape(path)
           << "\": " << jsonNumber(e.gauge->value());
        first = false;
    }
    os << (first ? "" : "\n  ") << "},\n  \"latencies\": {";
    first = true;
    for (const auto &[path, e] : entries_) {
        if (e.kind != Kind::kLatency)
            continue;
        os << (first ? "\n" : ",\n") << "    \"" << jsonEscape(path)
           << "\": " << e.latency->toJson();
        first = false;
    }
    os << (first ? "" : "\n  ") << "}\n}\n";
    return os.str();
}

void
MetricsRegistry::forEachCounter(
    const std::function<void(const std::string &, const Counter &)> &fn)
    const
{
    for (const auto &[path, e] : entries_)
        if (e.kind == Kind::kCounter)
            fn(path, *e.counter);
}

void
MetricsRegistry::forEachGauge(
    const std::function<void(const std::string &, const Gauge &)> &fn) const
{
    for (const auto &[path, e] : entries_)
        if (e.kind == Kind::kGauge)
            fn(path, *e.gauge);
}

void
MetricsRegistry::forEachLatency(
    const std::function<void(const std::string &, const LogHistogram &)> &fn)
    const
{
    for (const auto &[path, e] : entries_)
        if (e.kind == Kind::kLatency)
            fn(path, *e.latency);
}

MetricsRegistry &
metrics()
{
    return *g_current_registry;
}

MetricsScope::MetricsScope() : previous_(g_current_registry)
{
    g_current_registry = &registry_;
}

MetricsScope::~MetricsScope()
{
    g_current_registry = previous_;
}

} // namespace nasd::util
