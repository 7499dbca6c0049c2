/**
 * @file
 * Shared helpers for the figure/table reproduction benches: common
 * banner output, the warm-read measurement the ablations share, the
 * command line every bench but fig9_mining takes (`--json PATH` /
 * `--no-json` select the metrics dump, default BENCH_<name>.json) and
 * the dump itself. fig9_mining parses its own command line, which adds
 * its modes, `--trace PATH` and `--journal PATH`, into the same
 * options.
 *
 * The benches build their systems from the rigs in rig/cluster.h and
 * run coroutines to completion with sim::runTask / sim::runFor
 * (sim/simulator.h), as the tests and examples do.
 */
#ifndef NASD_BENCH_BENCH_UTIL_H_
#define NASD_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "rig/cluster.h"
#include "sim/simulator.h"
#include "util/fleet.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/timeseries.h"

namespace nasd::bench {

/**
 * Write 2 MB through @p cred on @p rig's drive, read it once in 512 KB
 * requests to warm the drive cache, then time four more passes. A
 * failed load write ends the process: a row measured after it would
 * stand on a write that never reported success.
 * @return MB/s over the timed passes.
 */
inline double
warmReadMbs(rig::DriveRig &rig, CredentialFactory &cred)
{
    constexpr std::uint64_t kBytes = 2 * util::kMB;
    constexpr std::uint64_t kRequest = 512 * util::kKB;
    const std::vector<std::uint8_t> data(kBytes, 7);
    const auto w = runFor(rig.sim, rig.client.write(cred, 0, data));
    if (!w.ok())
        NASD_FATAL("drive rig: load write failed: ", toString(w.error()));
    for (std::uint64_t off = 0; off < kBytes; off += kRequest) {
        const auto r = runFor(rig.sim, rig.client.read(cred, off, kRequest));
        NASD_ASSERT(r.ok(), "drive rig: warm-up read failed");
    }
    const sim::Tick start = rig.sim.now();
    std::uint64_t moved = 0;
    for (int pass = 0; pass < 4; ++pass) {
        for (std::uint64_t off = 0; off < kBytes; off += kRequest) {
            const auto r =
                runFor(rig.sim, rig.client.read(cred, off, kRequest));
            moved += r.ok() ? r.value().size() : 0;
        }
    }
    return util::bytesPerSecToMBs(static_cast<double>(moved) /
                                  sim::toSeconds(rig.sim.now() - start));
}

/** Print the standard bench banner. */
inline void
banner(const char *title, const char *paper_reference)
{
    std::printf("==============================================================="
                "=================\n");
    std::printf("%s\n", title);
    std::printf("Reproduces: %s\n", paper_reference);
    std::printf("==============================================================="
                "=================\n");
}

/** Command-line options shared by every bench binary. */
struct BenchOptions
{
    std::string json_path;    ///< metrics dump path; empty = skip
    std::string trace_path;   ///< Chrome trace path; empty = tracing off
    std::string journal_path; ///< flight journal dump path; empty = skip

    // Wall-clock anchor for the `sim/events_per_sec` scheduler
    // throughput gauge: captured at option-parse time (process start,
    // effectively) and differenced against Simulator's process-wide
    // executed-event counter in writeBenchJson(). Wall time is the
    // ONLY non-simulated quantity in a bench dump; the gauge is
    // normalized away by tools/check_determinism.sh, never printed to
    // stdout, and ignored by check_bench_json.py baseline comparison.
    std::chrono::steady_clock::time_point wall_start =
        std::chrono::steady_clock::now();
    std::uint64_t events_start = sim::Simulator::totalEventsExecuted();
};

/** Parse `--json PATH` and `--no-json`; the metrics dump defaults to
 *  BENCH_<name>.json in the working directory. Any other argument, or
 *  `--json` without a path, prints `<program>: <reason>` and a usage
 *  line to stderr and exits 2. */
inline BenchOptions
parseOptions(const char *bench_name, int argc, char **argv)
{
    const std::string_view path = argc > 0 ? argv[0] : bench_name;
    const std::string program(path.substr(path.find_last_of('/') + 1));
    const auto usage = [&program](const std::string &why) {
        std::fprintf(stderr, "%s: %s\nusage: %s [--json PATH | --no-json]\n",
                     program.c_str(), why.c_str(), program.c_str());
        std::exit(2);
    };
    BenchOptions opts;
    opts.json_path = std::string("BENCH_") + bench_name + ".json";
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        if (arg == "--json") {
            if (i + 1 >= argc)
                usage("--json needs a value");
            opts.json_path = argv[++i];
        } else if (arg == "--no-json") {
            opts.json_path.clear();
        } else {
            usage("unknown argument '" + std::string(arg) + "'");
        }
    }
    return opts;
}

/**
 * Dump the current MetricsRegistry as the bench's machine-readable
 * result file: {"schema_version", "bench", "reference", "metrics"}
 * plus an optional "timeseries" section (interval-sampled series from
 * a sim::StatsPoller run). tools/check_bench_json.py validates this
 * shape in CI.
 *
 * @p extra_sections, when non-empty, is spliced in verbatim after the
 * metrics object — it must be a string of the form
 * `, "name": {...}[, "name2": {...}]` (leading comma included) so a
 * bench can attach bespoke top-level sections (fig9_mining's
 * "fleet_health") without this helper growing a JSON builder.
 *
 * Every dump carries a "fleet_rollup" section (merged per-op latency
 * histograms + straggler verdicts; see util::FleetRollup). By default
 * it is collected from the current registry at dump time; a bench
 * that measures inside a MetricsScope passes the rollup it collected
 * before the scope closed via @p fleet_rollup_json.
 */
inline void
writeBenchJson(const BenchOptions &opts, const char *bench_name,
               const char *reference,
               const util::TimeSeries *timeseries = nullptr,
               const std::string &extra_sections = {},
               const std::string &fleet_rollup_json = {})
{
    if (opts.json_path.empty())
        return;
    // Scheduler throughput over the whole bench run: simulated events
    // executed per wall-clock second. Deliberately recorded right
    // before serialization so it covers every Simulator the bench
    // created (MetricsScope swaps don't reset the process-wide count).
    const double wall_secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      opts.wall_start)
            .count();
    const auto events =
        sim::Simulator::totalEventsExecuted() - opts.events_start;
    util::metrics().gauge("sim/events_per_sec")
        .set(wall_secs > 0.0 ? static_cast<double>(events) / wall_secs
                             : 0.0);
    std::FILE *f = std::fopen(opts.json_path.c_str(), "w");
    NASD_ASSERT(f != nullptr, "bench: cannot open metrics dump for write");
    const std::string metrics = util::metrics().toJson();
    std::fprintf(f,
                 "{\"schema_version\": 1, \"bench\": \"%s\", "
                 "\"reference\": \"%s\", \"metrics\": %s",
                 bench_name, reference, metrics.c_str());
    if (timeseries != nullptr) {
        const std::string series = timeseries->toJson();
        std::fprintf(f, ", \"timeseries\": %s", series.c_str());
    }
    if (!extra_sections.empty())
        std::fprintf(f, "%s", extra_sections.c_str());
    const std::string rollup =
        fleet_rollup_json.empty()
            ? util::FleetRollup::collect(util::metrics()).toJson()
            : fleet_rollup_json;
    std::fprintf(f, ", \"fleet_rollup\": %s", rollup.c_str());
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("\nwrote %s\n", opts.json_path.c_str());
}

} // namespace nasd::bench

#endif // NASD_BENCH_BENCH_UTIL_H_
