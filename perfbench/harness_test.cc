/**
 * @file
 * Unit tests of the benchmark harness: the tail-percentile rule,
 * phase-scoped counter deltas, the metric-name grammar, span self time
 * and command-line validation. The tiny smoke runs of each workload
 * are separate ctest entries (see CMakeLists.txt).
 */
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "harness.h"
#include "util/metrics.h"

using namespace nasdbench;

namespace {

int failures = 0;

void
check(bool ok, const char *what, int line)
{
    if (!ok) {
        std::fprintf(stderr, "FAILED line %d: %s\n", line, what);
        ++failures;
    }
}

#define CHECK(cond) check((cond), #cond, __LINE__)

void
testTailPercentile()
{
    // At least ten samples beyond the percentile, highest one first.
    CHECK(!tailPercentile(0).has_value());
    CHECK(!tailPercentile(19).has_value());
    CHECK(tailPercentile(20) == 50.0);
    CHECK(tailPercentile(40) == 75.0);
    CHECK(tailPercentile(100) == 90.0);
    CHECK(tailPercentile(600) == 95.0);
    CHECK(tailPercentile(999) == 95.0);
    CHECK(tailPercentile(1000) == 99.0);
    CHECK(tailPercentile(10000) == 99.9);
    CHECK(tailPercentile(100000) == 99.99);

    std::vector<double> v;
    for (int i = 100; i >= 1; --i)
        v.push_back(i);
    CHECK(percentile(v, 50) == 50);
    CHECK(percentile(v, 90) == 90);
    CHECK(percentile(v, 100) == 100);
    std::vector<double> empty;
    CHECK(percentile(empty, 50) == 0);
}

void
testCounterDeltas()
{
    util::MetricsScope scope;
    auto &reg = scope.registry();
    reg.counter("nasd0/cpu/service_ns").add(100);
    reg.counter("nasd1/cpu/service_ns").add(50);
    reg.counter("client0/cpu/service_ns").add(7);
    reg.latency("client0/cheops/ops/read/latency_ns").record(1000);
    const Snapshot before = Snapshot::take(reg);

    reg.counter("nasd0/cpu/service_ns").add(10);
    reg.counter("nasd1/cpu/service_ns").add(5);
    reg.counter("nasd2/cpu/service_ns").add(1); // created mid-phase
    reg.counter("client0/cpu/service_ns").add(3);
    reg.counter("store/cache_hit_bytes").add(4);
    for (int i = 0; i < 9; ++i)
        reg.latency("client0/cheops/ops/read/latency_ns").record(2000000);
    const Delta d(before, Snapshot::take(reg));

    CHECK(d.sum("nasd", "/cpu/service_ns") == 16);
    CHECK(d.sum("client", "/cpu/service_ns") == 3);
    CHECK(d.sum("", "/cpu/service_ns") == 19);
    CHECK(d.sum("store", "/cache_hit_bytes") == 4);
    CHECK(d.sum("ffs", "/cache_hit_bytes") == 0);
    CHECK(d.instances("nasd", "/cpu/service_ns") == 3);
    // Only the nine in-phase samples remain; the 1 us one is gone.
    const auto h = d.latency("/cheops/ops/read/");
    CHECK(h.count() == 9);
    CHECK(h.percentile(50) > 1e6);
}

void
testMetricNames()
{
    CHECK(validMetricName("sim_mbps"));
    CHECK(validMetricName("nasd.cache_hit_ratio"));
    CHECK(validMetricName("9lives-2.x"));
    CHECK(!validMetricName(""));
    CHECK(!validMetricName("_leading"));
    CHECK(!validMetricName(".leading"));
    CHECK(!validMetricName("has space"));
    CHECK(!validMetricName("slash/inside"));
    CHECK(!validMetricName(std::string(65, 'a')));
    CHECK(validMetricName(std::string(64, 'a')));
}

void
testSimSelfTime()
{
    Spans spans(true);
    spans.setPhase("round", true);
    const auto req = spans.newRequest();
    // Parent [0, 100); children [10, 40) and [30, 60) overlap: the
    // union covers 50, so the parent's self time is 50.
    spans.sim("apps.chunk", req, true, 0, 100);
    spans.sim("pfs.read", req, false, 10, 40);
    spans.sim("pfs.read", req, false, 30, 60);
    const auto self = spans.simSelf();
    CHECK(std::fabs(self.at("apps.chunk") - 50e-9) < 1e-15);
    CHECK(std::fabs(self.at("pfs.read") - 60e-9) < 1e-15);

    Spans off(false);
    off.setPhase("round", true);
    off.sim("apps.chunk", 1, true, 0, 100);
    CHECK(off.simSelf().empty());
}

void
testOptions()
{
    const auto parse = [](std::vector<const char *> args, Options &o) {
        args.insert(args.begin(), "nasdbench");
        return parseOptions(static_cast<int>(args.size()),
                            const_cast<char **>(args.data()), o);
    };
    Options o;
    CHECK(!parse({"--workload", "mine_nasd", "--seed", "3", "--seconds", "5",
                  "--trace", "1"},
                 o)
               .has_value());
    CHECK(o.seed == 3 && o.seconds == 5 && o.trace);
    Options bad;
    CHECK(parse({"--workload", "x", "--seed", "-1"}, bad).has_value());
    CHECK(parse({"--workload", "x", "--trace", "2"}, bad).has_value());
    CHECK(parse({"--workload", "x", "--seconds"}, bad).has_value());
    Options none;
    CHECK(parse({"--seed", "1"}, none).has_value());
    CHECK(parse({"--workload", "x", "--bogus", "1"}, bad).has_value());
}

} // namespace

int
main()
{
    testTailPercentile();
    testCounterDeltas();
    testMetricNames();
    testSimSelfTime();
    testOptions();
    if (failures == 0)
        std::printf("harness tests passed\n");
    return failures == 0 ? 0 : 1;
}
