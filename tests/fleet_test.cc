// FleetRollup: sibling grouping, lossless merge, robust straggler
// detection, and the flight-recorder + JSON reporting surface.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/fleet.h"
#include "util/flight_recorder.h"
#include "util/metrics.h"

namespace nasd::util {
namespace {

/** Deterministic splitmix64 stream for synthetic latencies. */
std::uint64_t
nextRandom(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/** Populate `<name>/ops/read/latency_ns` with ~5ms ops scaled by @p f. */
void
feedDrive(MetricsRegistry &reg, const std::string &name, double f,
          std::uint64_t seed)
{
    LogHistogram &h = reg.latency(name + "/ops/read/latency_ns");
    std::uint64_t rng = seed;
    for (int i = 0; i < 2000; ++i) {
        const auto base = 4'000'000 + nextRandom(rng) % 2'000'000;
        h.record(static_cast<std::uint64_t>(static_cast<double>(base) * f));
    }
}

TEST(FleetRollup, NormalizeInstanceStripsNumbering)
{
    EXPECT_EQ(FleetRollup::normalizeInstance("nasd17"), "nasd");
    EXPECT_EQ(FleetRollup::normalizeInstance("nasd0"), "nasd");
    EXPECT_EQ(FleetRollup::normalizeInstance("miner3/cheops"),
              "miner/cheops");
    EXPECT_EQ(FleetRollup::normalizeInstance("drive#2"), "drive");
    EXPECT_EQ(FleetRollup::normalizeInstance("drive2#3"), "drive");
    EXPECT_EQ(FleetRollup::normalizeInstance("mgr"), "mgr");
}

TEST(FleetRollup, GroupsSiblingsAndMergesLosslessly)
{
    MetricsRegistry reg;
    LogHistogram direct;
    for (int d = 0; d < 6; ++d) {
        const std::string name = "nasd" + std::to_string(d);
        feedDrive(reg, name, 1.0, 100 + static_cast<std::uint64_t>(d));
    }
    // A client-side instrument must land in its own group, not pollute
    // the drive rollup.
    reg.latency("miner0/cheops/ops/read/latency_ns").record(77'000'000);
    // Non-conforming latency paths are ignored.
    reg.latency("loader/open_ns").record(1);

    reg.forEachLatency([&](const std::string &path, const LogHistogram &h) {
        if (path.find("nasd") == 0) {
            direct.merge(h);
        }
    });

    const FleetRollup rollup = FleetRollup::collect(reg);
    ASSERT_EQ(rollup.ops().size(), 2u);
    EXPECT_EQ(rollup.ops()[0].group, "miner/cheops/read");
    const FleetOpRollup &nasd = rollup.ops()[1];
    EXPECT_EQ(nasd.group, "nasd/read");
    ASSERT_EQ(nasd.instances.size(), 6u);
    EXPECT_EQ(nasd.merged.count(), 6u * 2000u);
    // Lossless: the rollup equals one histogram fed every sample.
    EXPECT_EQ(nasd.merged.toJson(), direct.toJson());
    for (double p : {50.0, 95.0, 99.0})
        EXPECT_DOUBLE_EQ(nasd.merged.percentile(p), direct.percentile(p));
}

TEST(FleetRollup, HealthySymmetricFleetHasNoStragglers)
{
    MetricsRegistry reg;
    for (int d = 0; d < 64; ++d)
        feedDrive(reg, "nasd" + std::to_string(d), 1.0,
                  200 + static_cast<std::uint64_t>(d));
    const FleetRollup rollup = FleetRollup::collect(reg);
    EXPECT_TRUE(rollup.stragglers().empty());
    for (const FleetInstanceStat &s : rollup.ops()[0].instances)
        EXPECT_LE(s.score, FleetRollup::kScoreThreshold) << s.instance;
}

TEST(FleetRollup, FlagsExactlyTheSlowInstance)
{
    MetricsRegistry reg;
    for (int d = 0; d < 16; ++d) {
        const double factor = (d == 11) ? 3.0 : 1.0;
        feedDrive(reg, "nasd" + std::to_string(d), factor,
                  300 + static_cast<std::uint64_t>(d));
    }
    const FleetRollup rollup = FleetRollup::collect(reg);
    const auto flagged = rollup.stragglers();
    ASSERT_EQ(flagged.size(), 1u);
    EXPECT_EQ(flagged[0]->instance, "nasd11");
    EXPECT_GT(flagged[0]->score, FleetRollup::kScoreThreshold);
    // The JSON section carries the verdict for check_bench_json.
    const std::string json = rollup.toJson();
    EXPECT_NE(json.find("\"stragglers\": [\"nasd11\"]"), std::string::npos);
}

TEST(FleetRollup, SmallGroupsAreNeverFlagged)
{
    MetricsRegistry reg;
    feedDrive(reg, "nasd0", 1.0, 1);
    feedDrive(reg, "nasd1", 1.0, 2);
    feedDrive(reg, "nasd2", 10.0, 3); // wild outlier, but n < 4
    const FleetRollup rollup = FleetRollup::collect(reg);
    EXPECT_TRUE(rollup.stragglers().empty());
}

TEST(FleetRollup, JournalStragglersEmitsSuspectEvents)
{
    MetricsRegistry reg;
    for (int d = 0; d < 8; ++d)
        feedDrive(reg, "nasd" + std::to_string(d), d == 5 ? 3.0 : 1.0,
                  400 + static_cast<std::uint64_t>(d));
    const FleetRollup rollup = FleetRollup::collect(reg);

    FlightRecorderScope scope;
    rollup.journalStragglers(123456789);
    const FlightJournal &journal = scope.recorder().node("fleet");
    ASSERT_EQ(journal.size(), 1u);
    const FlightEvent &e = journal.at(0);
    EXPECT_EQ(e.kind, FrEvent::kStragglerSuspect);
    EXPECT_EQ(e.time_ns, 123456789u);
    EXPECT_STREQ(e.detail, "nasd5");
    EXPECT_GT(e.a, 8000u); // score in milli-units, > threshold
}

TEST(FleetRollup, RegistryLatencySectionRoundTrips)
{
    MetricsRegistry reg;
    feedDrive(reg, "nasd0", 1.0, 500);
    feedDrive(reg, "nasd1", 1.2, 501);
    // Latencies carry their full bucket state, so merging each one into
    // an empty registry is byte-identical — and so is the rollup.
    MetricsRegistry copy;
    reg.forEachLatency(
        [&copy](const std::string &path, const LogHistogram &h) {
            copy.latency(path).merge(h);
        });
    EXPECT_EQ(copy.toJson(), reg.toJson());
    EXPECT_EQ(FleetRollup::collect(copy).toJson(),
              FleetRollup::collect(reg).toJson());
}

} // namespace
} // namespace nasd::util
