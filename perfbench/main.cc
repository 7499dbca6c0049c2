/**
 * @file
 * nasdbench: run one workload and print its result line.
 *
 *   nasdbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--size paper|tiny] [--inject corrupt|fail]
 *             [--start-order seeded|rank] [--trace-out <path>]
 *
 * A run sets the cluster up several times (setup_s is the median),
 * keeps the last cluster, and runs closed-loop rounds on it until
 * --seconds of wall time have passed. Host-time metrics use the
 * process's CPU time. Counters are deltas over those rounds only.
 * --trace 1 prints the per-layer metrics instead of the end-to-end
 * ones: it records spans on every other setup and round and compares
 * those with the untraced ones to report tracing overhead.
 *
 * Exit status: 0 when every output matched its reference and no op
 * failed, 1 otherwise, 2 on a bad command line. An RPC timeout in the
 * timed phase counts as a failed op even when a retry then succeeded.
 */
#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "harness.h"
#include "sim/simulator.h"
#include "util/metrics.h"
#include "util/units.h"
#include "workloads.h"

using namespace nasdbench;

namespace {

constexpr double kMB = static_cast<double>(nasd::util::kMB);
constexpr double kSetupSeconds = 3.0;

double
median(std::vector<double> values)
{
    return values.empty() ? 0.0 : percentile(values, 50.0);
}

double
best(const std::vector<double> &values)
{
    return values.empty() ? 0.0 : *std::max_element(values.begin(), values.end());
}

double
ratio(double part, double whole)
{
    return whole > 0 ? part / whole : 0.0;
}

std::string
fmt(const char *format, double a, double b = 0, double c = 0)
{
    char buf[256];
    std::snprintf(buf, sizeof buf, format, a, b, c);
    return buf;
}

/** Host time and work of the traced or of the untraced rounds. */
struct Share
{
    double host_s = 0;
    double bytes = 0;
    std::uint64_t events = 0;
    int rounds = 0;
    std::vector<double> mbps; ///< per round, simulated MB / host s
};

Report
run(const Options &opts, Workload &w)
{
    Report rep;
    Spans spans(opts.trace);

    // Set up several times (at least three, and at least kSetupSeconds
    // of them, so a short setup is still timed steadily); the last
    // cluster is the one measured.
    const int min_setups =
        (opts.size == Size::kTiny ? 1 : 3) + (opts.trace ? 1 : 0);
    const double min_seconds = opts.size == Size::kTiny ? 0.0 : kSetupSeconds;
    std::vector<double> setup_plain, setup_traced;
    double setup_total = 0;
    for (int k = 0; k < min_setups || setup_total < min_seconds; ++k) {
        const bool traced = opts.trace && k % 2 == 1;
        spans.setPhase("setup", traced);
        const double t0 = hostNow();
        const double excluded = w.setup(spans);
        const double seconds = hostNow() - t0 - excluded;
        (traced ? setup_traced : setup_plain).push_back(seconds);
        setup_total += seconds;
    }

    const Snapshot before = Snapshot::take(util::metrics());
    std::vector<RoundResult> rounds;
    Share plain, traced;
    const double phase_start = wallNow();
    do {
        const bool on = opts.trace && rounds.size() % 2 == 0;
        spans.setPhase("round", on);
        const std::uint64_t events0 = nasd::sim::Simulator::totalEventsExecuted();
        const double t0 = hostNow();
        rounds.push_back(w.round(rounds.size(), spans));
        Share &share = on ? traced : plain;
        const double host_s = hostNow() - t0;
        share.host_s += host_s;
        share.bytes += static_cast<double>(rounds.back().bytes);
        share.mbps.push_back(
            ratio(static_cast<double>(rounds.back().bytes) / kMB, host_s));
        share.events += nasd::sim::Simulator::totalEventsExecuted() - events0;
        ++share.rounds;
    } while (wallNow() - phase_start < opts.seconds ||
             (opts.trace && rounds.size() < 2));
    const Snapshot after = Snapshot::take(util::metrics());
    spans.setPhase("check", false);
    const Delta d(before, after);
    const bool final_ok = w.finalCheck(rep.notes);

    // ---- outcome of every round
    double sim_s = 0, verified = 0, written = 0, scanned = 0;
    std::vector<double> latency;
    std::map<std::string, std::uint64_t> counts;
    rep.correct = final_ok;
    for (const RoundResult &r : rounds) {
        rep.attempted += r.attempted;
        rep.failed += r.failed;
        rep.correct = rep.correct && r.correct;
        sim_s += r.sim_seconds;
        verified += static_cast<double>(r.verified_bytes);
        written += static_cast<double>(r.written_bytes);
        scanned += static_cast<double>(r.scanned_bytes);
        latency.insert(latency.end(), r.latency_ms.begin(), r.latency_ms.end());
        for (const auto &[k, v] : r.counts)
            counts[k] += v;
        for (const auto &m : r.mismatches)
            rep.note("MISMATCH: " + m);
    }
    if (final_ok)
        verified += written; // writes are checked by the final read-back
    const std::uint64_t timeouts = d.sum("", "/rpc_timeouts");
    rep.failed += timeouts;
    rep.note("workload " + opts.workload + ": " +
             std::to_string(rounds.size()) + " rounds, " +
             std::to_string(rep.attempted) + " ops, " +
             std::to_string(rep.failed) + " failed (" +
             std::to_string(timeouts) + " of them RPC timeouts), outputs " +
             (rep.correct ? "match" : "DO NOT match") + " the reference");

    // The tail percentile is picked from one round's sample count, so
    // the host's speed (how many rounds fit) cannot change it.
    const auto per_round_ops = rounds.front().latency_ms.size();
    const auto tail = tailPercentile(per_round_ops);
    const double tail_pct = tail.value_or(100.0);
    const double p50 = percentile(latency, 50.0);
    const double tail_ms = percentile(latency, tail_pct);
    rep.note(std::string("sim_op = ") + w.opName() + ": p50 " +
             fmt("%.4f ms, p%g ", p50, tail_pct) +
             fmt("%.4f ms over %.0f samples", tail_ms,
                 static_cast<double>(latency.size())) +
             (tail ? "" : " (too few samples for a tail: p100 is the "
                          "slowest op)"));

    const double setup_s = median(setup_plain);
    // The fastest round: load from elsewhere on the host only ever adds
    // time, so the best round is the closest to the code's own cost.
    const double host_mbps = best(plain.mbps);

    if (!opts.trace) {
        rep.note(fmt("sim_mbps = %.1f verified MB / %.3f simulated s",
                     verified / kMB, sim_s));
        rep.note(fmt("host_mbps = best of %.0f rounds of simulated MB / host "
                     "CPU s; median round %.1f, all rounds %.1f MB/s",
                     plain.rounds, median(plain.mbps),
                     ratio(plain.bytes / kMB, plain.host_s)));
        rep.add("sim_mbps", ratio(verified / kMB, sim_s), "MB/s");
        rep.add("sim_op_p50_ms", p50, "ms");
        rep.add("sim_op_tail_ms", tail_ms, "ms");
        rep.add("op_ok_ratio",
                std::max(0.0, 1.0 - ratio(static_cast<double>(rep.failed),
                                          static_cast<double>(rep.attempted))),
                "ratio");
        rep.add("setup_s", setup_s, "s");
        rep.add("host_mbps", host_mbps, "MB/s");
        rep.add("peak_rss_mb", peakRssMb(), "MB");
        return rep;
    }

    // ---- per-layer metrics (traced run), per round: a round is a fixed
    // amount of work, while the number of rounds depends on host speed.
    // Counters cover every round; span times only the traced ones.
    const double per_round = 1.0 / static_cast<double>(rounds.size());
    const double per_traced = 1.0 / std::max(1, traced.rounds);
    const double per_setup =
        1.0 / std::max<double>(1.0, static_cast<double>(setup_traced.size()));
    const double round_ns = sim_s * 1e9 * per_round;
    const auto count = [per_round](std::uint64_t n) {
        return static_cast<double>(n) * per_round;
    };
    const auto ms = [per_round](std::uint64_t ns) {
        return static_cast<double>(ns) * 1e-6 * per_round;
    };
    rep.note(fmt("per-layer metrics are per round: %.0f rounds, %.0f of them "
                 "traced, %.3f simulated s each",
                 static_cast<double>(rounds.size()), traced.rounds,
                 sim_s * per_round));

    const double run_s = spans.hostSelf("sim.run", "round") * per_traced;
    const double traced_events = static_cast<double>(traced.events) * per_traced;
    rep.add("apps.gen_s", spans.hostSelf("apps.gen", "setup") * per_setup, "s");
    rep.add("apps.gen_chunks", static_cast<double>(w.genChunks()), "count");
    rep.add("apps.count_s", spans.hostSelf("apps.count", "round") * per_traced,
            "s");
    rep.add("apps.count_mb", count(counts["apps.count_bytes"]) / kMB, "MB");
    rep.add("setup.sim_s", spans.hostSelf("sim.run", "setup") * per_setup, "s");
    rep.add("sim.run_s", run_s, "s");
    rep.add("sim.events", count(d.events()), "count");
    rep.add("sim.events_per_s", ratio(traced_events, run_s), "1/s");

    rep.add("pfs.read_ops", count(counts["pfs.read_ops"]), "count");
    rep.add("pfs.read_failed", count(counts["pfs.read_failed"]), "count");
    const auto cheops_reads = d.latency("/cheops/ops/read/");
    rep.add("cheops.read_ops", count(cheops_reads.count()), "count");
    rep.add("cheops.write_ops", count(d.latency("/cheops/ops/write/").count()),
            "count");
    rep.add("cheops.failed",
            count(counts["cheops.failed"] + counts["pfs.read_failed"]), "count");
    rep.add("cheops.read_p50_ms", cheops_reads.percentile(50) * 1e-6, "ms");

    const double drives =
        static_cast<double>(d.instances("nasd", "/cpu/service_ns"));
    const std::uint64_t drive_busy = d.sum("nasd", "/cpu/service_ns");
    const double drive_util = ratio(ms(drive_busy) * 1e6, drives * round_ns);
    const double hit = static_cast<double>(d.sum("store", "/cache_hit_bytes"));
    const double miss = static_cast<double>(d.sum("store", "/cache_miss_bytes"));
    rep.add("nasd.read_ops", count(d.sum("nasd", "/ops/read/count")), "count");
    rep.add("nasd.write_ops", count(d.sum("nasd", "/ops/write/count")), "count");
    rep.add("nasd.cpu_wait_ms", ms(d.sum("nasd", "/cpu/wait_ns")), "ms");
    rep.add("nasd.cpu_service_ms", ms(drive_busy), "ms");
    rep.add("nasd.cpu_util", drive_util, "ratio");
    rep.add("nasd.cache_hit_ratio", ratio(hit, hit + miss), "ratio");
    rep.note(fmt("nasd.cpu_util base: %.0f drives x %.3f simulated s",
                 drives, sim_s));
    rep.note(fmt("nasd.cache_hit_ratio base: %.1f MB hit of %.1f MB",
                 hit / kMB, (hit + miss) / kMB));

    rep.add("net.client_rx_mb",
            count(d.sum("client", "/net/bytes_received")) / kMB, "MB");
    rep.add("net.rx_wait_ms", ms(d.sum("", "/rx_wait_ns")), "ms");
    rep.add("net.tx_wait_ms", ms(d.sum("", "/tx_wait_ns")), "ms");
    rep.add("net.rpc_timeouts", count(timeouts), "count");
    rep.add("net.rpc_late_replies", count(d.sum("", "/rpc_late_replies")),
            "count");

    const double block = w.diskBlockBytes();
    const double media_written =
        static_cast<double>(d.sum("disk", "/media_blocks_written")) * block;
    rep.add("disk.media_read_mb",
            count(d.sum("disk", "/media_blocks_read")) * block / kMB, "MB");
    rep.add("disk.media_written_mb", media_written * per_round / kMB, "MB");
    rep.add("disk.seeks", count(d.sum("disk", "/seeks")), "count");
    rep.add("disk.bus_wait_ms", ms(d.sum("disk", "/bus_wait_ns")), "ms");
    rep.add("disk.mech_wait_ms", ms(d.sum("disk", "/mech_wait_ns")), "ms");
    rep.add("disk.mech_service_ms", ms(d.sum("disk", "/mech_service_ns")), "ms");
    rep.add("disk.write_amp", ratio(media_written, written), "ratio");
    rep.note(fmt("disk.write_amp base: %.1f MB on media for %.1f MB written "
                 "by clients",
                 media_written / kMB, written / kMB));

    const double fhit = static_cast<double>(d.sum("ffs", "/cache_hit_bytes"));
    const double fmiss = static_cast<double>(d.sum("ffs", "/cache_miss_bytes"));
    rep.add("ffs.cache_hit_ratio", ratio(fhit, fhit + fmiss), "ratio");
    rep.add("ffs.readahead_defeats", count(d.sum("ffs", "/readahead_defeats")),
            "count");
    rep.add("nfs.server_cpu_util",
            ratio(ms(d.sum("nfs-server", "/cpu/service_ns")) * 1e6, round_ns),
            "ratio");
    rep.add("nfs.window_wait_ms", ms(d.sum("client", "/window_wait_ns")), "ms");
    rep.note(fmt("ffs.cache_hit_ratio base: %.1f MB hit of %.1f MB",
                 fhit / kMB, (fhit + fmiss) / kMB));

    const bool active = scanned > 0; // the work ran on the drives
    rep.add("active.scanned_mb", scanned * per_round / kMB, "MB");
    rep.add("active.drive_cpu_util", active ? drive_util : 0.0, "ratio");
    rep.add("active.scan_p50_ms", active ? p50 : 0.0, "ms");

    const double clients =
        static_cast<double>(d.instances("client", "/cpu/service_ns"));
    rep.add("client.cpu_util",
            ratio(ms(d.sum("client", "/cpu/service_ns")) * 1e6,
                  clients * round_ns),
            "ratio");
    rep.note(fmt("client.cpu_util base: %.0f clients x %.3f simulated s",
                 clients, sim_s));

    rep.add("ops.per_round", static_cast<double>(per_round_ops), "count");
    rep.add("ops.tail_pct", tail_pct, "pct");

    // Simulated self time per layer, per traced round.
    const auto self = spans.simSelf();
    const auto selfOf = [&self, per_traced](const char *name) {
        const auto it = self.find(name);
        return it == self.end() ? 0.0 : it->second * per_traced;
    };
    rep.add("self.apps_sim_s", selfOf("apps.chunk"), "s");
    rep.add("self.pfs_sim_s", selfOf("pfs.read"), "s");
    rep.add("self.nfs_sim_s", selfOf("nfs.read"), "s");
    rep.add("self.cheops_sim_s",
            selfOf("cheops.read") + selfOf("cheops.write"), "s");
    rep.add("self.active_sim_s", selfOf("active.scan"), "s");

    // Tracing overhead: traced against untraced setups and rounds.
    const double traced_mbps = best(traced.mbps);
    rep.add("trace.host_mbps_ratio", ratio(traced_mbps, host_mbps), "ratio");
    rep.add("trace.setup_s_ratio", ratio(median(setup_traced), setup_s),
            "ratio");
    rep.note(fmt("tracing overhead: host_mbps %.2f traced vs %.2f untraced; ",
                 traced_mbps, host_mbps) +
             fmt("setup_s %.3f traced vs %.3f untraced", median(setup_traced),
                 setup_s));
    if (!opts.trace_path.empty()) {
        spans.write(opts.trace_path);
        rep.note("spans written to " + opts.trace_path);
    }
    return rep;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    if (const auto error = parseOptions(argc, argv, opts)) {
        std::fprintf(stderr, "nasdbench: %s\n", error->c_str());
        return 2;
    }
    auto workload = makeWorkload(opts);
    if (workload == nullptr) {
        std::fprintf(stderr, "nasdbench: unknown workload '%s'\n",
                     opts.workload.c_str());
        return 2;
    }
    const Report rep = run(opts, *workload);
    rep.print();
    return rep.correct && rep.failed == 0 ? 0 : 1;
}
