/**
 * @file
 * Tests for the hierarchical metrics registry and the causal tracer:
 * create-on-first-use lookup, kind-collision panics, unique instance
 * prefixes, the JSON dump (exact format, summaries, rebuilds from the
 * visitors), MetricsScope stacking, and Chrome trace_event span
 * emission.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "util/metrics.h"
#include "util/trace.h"

namespace nasd::util {
namespace {

TEST(MetricsRegistry, CreateOnFirstUseIsPointerStable)
{
    MetricsRegistry reg;
    Counter &c = reg.counter("drive0/ops/read/count");
    c.add(3);
    EXPECT_EQ(&reg.counter("drive0/ops/read/count"), &c);
    EXPECT_EQ(reg.counter("drive0/ops/read/count").value(), 3u);
    EXPECT_EQ(reg.size(), 1u);

    Gauge &g = reg.gauge("fig6/read/raw/1MB_mbps");
    g.set(42.5);
    EXPECT_EQ(&reg.gauge("fig6/read/raw/1MB_mbps"), &g);

    LogHistogram &h = reg.latency("drive0/ops/read/latency_ns");
    h.record(1000);
    EXPECT_EQ(&reg.latency("drive0/ops/read/latency_ns"), &h);
    EXPECT_EQ(reg.size(), 3u);
}

TEST(MetricsRegistry, ContainsSeesAllKinds)
{
    MetricsRegistry reg;
    reg.counter("a/count");
    reg.gauge("a/gauge");
    reg.latency("a/latency_ns");
    EXPECT_TRUE(reg.contains("a/count"));
    EXPECT_TRUE(reg.contains("a/gauge"));
    EXPECT_TRUE(reg.contains("a/latency_ns"));
    EXPECT_FALSE(reg.contains("a/missing"));
}

TEST(MetricsRegistryDeathTest, KindCollisionPanics)
{
    // Every ordered (registered, requested) pair of distinct kinds.
    MetricsRegistry reg;
    reg.counter("c");
    reg.gauge("g");
    reg.latency("l");
    EXPECT_DEATH(reg.gauge("c"), "registered as counter, requested as gauge");
    EXPECT_DEATH(reg.latency("c"),
                 "registered as counter, requested as latency");
    EXPECT_DEATH(reg.counter("g"), "registered as gauge, requested as counter");
    EXPECT_DEATH(reg.latency("g"), "registered as gauge, requested as latency");
    EXPECT_DEATH(reg.counter("l"),
                 "registered as latency, requested as counter");
    EXPECT_DEATH(reg.gauge("l"), "registered as latency, requested as gauge");
}

TEST(MetricsRegistry, UniquePrefixDeduplicatesInstances)
{
    MetricsRegistry reg;
    EXPECT_EQ(reg.uniquePrefix("drive"), "drive");
    EXPECT_EQ(reg.uniquePrefix("drive"), "drive#2");
    EXPECT_EQ(reg.uniquePrefix("drive"), "drive#3");
    // Independent stems do not interfere.
    EXPECT_EQ(reg.uniquePrefix("client"), "client");
}

TEST(MetricsRegistry, LatencySectionRoundTripsExactly)
{
    // Latency instruments serialize their full bucket state, so merging
    // each one into an empty registry reproduces the dump byte for byte.
    MetricsRegistry reg;
    LogHistogram &h = reg.latency("nasd0/ops/read/latency_ns");
    h.record(1000);
    h.record(2500);
    h.record(7'000'000);
    const std::string json = reg.toJson();
    EXPECT_NE(json.find("\"latencies\""), std::string::npos);
    EXPECT_NE(json.find("\"buckets\""), std::string::npos);

    MetricsRegistry loaded;
    reg.forEachLatency(
        [&loaded](const std::string &path, const LogHistogram &src) {
            loaded.latency(path).merge(src);
        });
    EXPECT_EQ(loaded.latency("nasd0/ops/read/latency_ns").count(), 3u);
    EXPECT_EQ(loaded.latency("nasd0/ops/read/latency_ns").max(),
              7'000'000u);
    EXPECT_EQ(loaded.toJson(), json);
}

TEST(MetricsRegistry, JsonRoundTripRestoresCountersAndGauges)
{
    // Rebuilding a registry from its visitors restores every counter and
    // gauge, and the rebuilt registry dumps identically.
    MetricsRegistry reg;
    reg.counter("drive0/ops/read/count").add(17);
    reg.counter("net0/bytes_sent").add(1 << 20);
    reg.gauge("fig9/nasd/8_disks_mbps").set(42.5);

    MetricsRegistry loaded;
    reg.forEachCounter([&loaded](const std::string &path, const Counter &c) {
        loaded.counter(path).add(c.value());
    });
    reg.forEachGauge([&loaded](const std::string &path, const Gauge &g) {
        loaded.gauge(path).set(g.value());
    });
    EXPECT_EQ(loaded.counter("drive0/ops/read/count").value(), 17u);
    EXPECT_EQ(loaded.counter("net0/bytes_sent").value(), 1u << 20);
    EXPECT_DOUBLE_EQ(loaded.gauge("fig9/nasd/8_disks_mbps").value(), 42.5);
    EXPECT_EQ(loaded.toJson(), reg.toJson());
}

TEST(MetricsRegistry, JsonSummarizesHistograms)
{
    // Latency histograms are the only histogram kind: the dump carries
    // their summary beside the buckets, and no "histograms" section.
    MetricsRegistry reg;
    LogHistogram &h = reg.latency("drive0/ops/read/latency_ns");
    for (std::uint64_t v : {10u, 20u, 30u})
        h.record(v);
    const std::string json = reg.toJson();
    EXPECT_EQ(json.find("\"histograms\""), std::string::npos);
    EXPECT_NE(json.find("drive0/ops/read/latency_ns"), std::string::npos);
    EXPECT_NE(json.find("\"count\": 3"), std::string::npos);
    EXPECT_NE(json.find("\"mean\": 20"), std::string::npos);
    EXPECT_NE(json.find("\"p95\""), std::string::npos);
}

TEST(MetricsRegistry, ToJsonMatchesGoldenDump)
{
    // The exact BENCH_*.json "metrics" layout: one section per
    // instrument kind, paths sorted, latencies with their full buckets.
    MetricsRegistry reg;
    reg.counter("drive0/ops/read/count").add(17);
    reg.gauge("fig9/nasd/8_disks_mbps").set(42.5);
    LogHistogram &h = reg.latency("nasd0/ops/read/latency_ns");
    h.record(5);
    h.record(7);
    h.record(9);
    EXPECT_EQ(reg.toJson(),
              "{\n"
              "  \"counters\": {\n"
              "    \"drive0/ops/read/count\": 17\n"
              "  },\n"
              "  \"gauges\": {\n"
              "    \"fig9/nasd/8_disks_mbps\": 42.5\n"
              "  },\n"
              "  \"latencies\": {\n"
              "    \"nasd0/ops/read/latency_ns\": {\"count\": 3, \"sum\": 21, "
              "\"min\": 5, \"max\": 9, \"mean\": 7, \"p50\": 7, \"p95\": 9, "
              "\"p99\": 9, \"buckets\": [[5, 1], [7, 1], [9, 1]]}\n"
              "  }\n"
              "}\n");
}

TEST(MetricsScope, InstallsFreshRegistryAndRestores)
{
    MetricsRegistry &outer = metrics();
    Counter &outer_counter = outer.counter("scope_test/outer");
    {
        MetricsScope scope;
        EXPECT_EQ(&metrics(), &scope.registry());
        EXPECT_NE(&metrics(), &outer);
        // The fresh registry starts empty: same path, new instrument.
        EXPECT_FALSE(metrics().contains("scope_test/outer"));
        metrics().counter("scope_test/outer").add(5);
        // uniquePrefix restarts per scope, so repeated rig construction
        // gets the same names each run.
        EXPECT_EQ(metrics().uniquePrefix("drive"), "drive");
    }
    EXPECT_EQ(&metrics(), &outer);
    EXPECT_EQ(outer_counter.value(), 0u);
}

TEST(MetricsScope, ScopesNest)
{
    MetricsScope a;
    MetricsRegistry *first = &metrics();
    {
        MetricsScope b;
        EXPECT_NE(&metrics(), first);
    }
    EXPECT_EQ(&metrics(), first);
}

TEST(Tracer, RootAndChildSharesTraceId)
{
    Tracer t;
    const TraceContext root = t.newRoot();
    EXPECT_TRUE(root.valid());
    const TraceContext child = t.childOf(root);
    EXPECT_EQ(child.trace_id, root.trace_id);
    EXPECT_NE(child.span_id, root.span_id);

    const TraceContext other = t.newRoot();
    EXPECT_NE(other.trace_id, root.trace_id);
}

TEST(Tracer, SpansSerializeWithCausality)
{
    Tracer t;
    const TraceContext root = t.newRoot();
    const std::size_t parent =
        t.beginSpan("pfs/read", "client0", 100, root);
    const TraceContext child = t.childOf(root);
    const std::size_t fanout =
        t.beginSpan("nasd/read", "nasd3", 150, child, root.span_id);
    t.endSpan(fanout, 300);
    t.endSpan(parent, 400);
    EXPECT_EQ(t.spanCount(), 2u);

    const std::string json = t.toJson();
    // Chrome trace_event complete events with lane thread names.
    EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_NE(json.find("thread_name"), std::string::npos);
    EXPECT_NE(json.find("client0"), std::string::npos);
    EXPECT_NE(json.find("nasd3"), std::string::npos);
    EXPECT_NE(json.find("pfs/read"), std::string::npos);
    EXPECT_NE(json.find("parent_span_id"), std::string::npos);
}

TEST(Tracer, GlobalInstallAndScopedSpan)
{
    EXPECT_EQ(tracer(), nullptr); // tracing defaults to off

    // Disabled: ScopedSpan is a no-op and contexts stay invalid.
    {
        ScopedSpan span("noop", "lane", 0, TraceContext{});
        span.endAt(10);
    }

    Tracer t;
    setTracer(&t);
    EXPECT_EQ(tracer(), &t);
    {
        const TraceContext root = t.newRoot();
        ScopedSpan span("op", "lane0", 5000, root);
        span.endAt(25000);
        span.endAt(90000); // idempotent: the second end is ignored
    }
    setTracer(nullptr);
    EXPECT_EQ(tracer(), nullptr);

    ASSERT_EQ(t.spanCount(), 1u);
    // Timestamps are nanoseconds in, microseconds out (trace_event).
    const std::string json = t.toJson();
    EXPECT_NE(json.find("\"dur\": 20"), std::string::npos);
}

} // namespace
} // namespace nasd::util
