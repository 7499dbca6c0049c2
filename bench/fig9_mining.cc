/**
 * @file
 * Figure 9: scaling of the parallel data-mining application.
 *
 * The most I/O-bound phase (frequent 1-itemset counting) scans 300 MB
 * of sales transactions. Three configurations, as in the paper:
 *
 *   NASD          n clients mine a single NASD PFS file striped over
 *                 n prototype drives (512 KB stripe unit, 2 MB chunks
 *                 round-robin across clients). Paper: 6.2 MB/s per
 *                 client-drive pair, linear to 45 MB/s at 8.
 *
 *   NFS           the same clients mine one file striped over n
 *                 Cheetah disks behind a single fast NFS server
 *                 (AlphaStation 500, two OC-3 links). Interleaved
 *                 request streams defeat the server's readahead.
 *                 Paper: plateaus near 20.2 MB/s.
 *
 *   NFS-parallel  each client mines its own replica file on an
 *                 independent disk through the same server (best-case
 *                 NFS). Paper: plateaus near 22.5 MB/s.
 *
 * Counts are computed for real; the bench cross-checks the merged
 * totals across configurations.
 *
 * Other modes: --fault-sweep, --breakdown, --kill-drive, --drives
 * N[,N...] and --trace PATH, plus the --slow-drive N,factor fault. The
 * command line is parsed once into a Scenario; every NASD
 * configuration is a rig::NasdCluster (rig/cluster.h).
 */
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "apps/frequent_sets.h"
#include "apps/transactions.h"
#include "bench/bench_util.h"
#include "cheops/cheops.h"
#include "fs/ffs/ffs.h"
#include "fs/nfs/nfs_client.h"
#include "fs/nfs/nfs_server.h"
#include "net/presets.h"
#include "pfs/pfs.h"
#include "rig/cluster.h"
#include "sim/simulator.h"
#include "sim/stats_poller.h"
#include "util/attribution.h"
#include "util/critpath.h"
#include "util/flight_recorder.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/timeseries.h"
#include "util/units.h"

using namespace nasd;
using util::kKB;
using util::kMB;

namespace {

constexpr std::uint64_t kDatasetBytes = 300 * kMB;
constexpr std::uint64_t kReadBytes = 512 * kKB; // producer request size
constexpr std::uint32_t kCatalogItems = 500;
/// Interval of the time series a sampled NASD run records.
constexpr sim::Tick kSampleInterval = sim::msec(50);
constexpr const char *kReference = "Figure 9 (Section 5.2, NASD PFS vs NFS)";

/**
 * Source of the dataset chunks every loader writes. The default table
 * loads the same seeded 300 MB into each of its fifteen configurations,
 * so main() turns on memoization for it and each chunk is generated
 * once per process. Other modes, whose datasets grow with the drive
 * count, keep generating chunks on demand. A chunk depends only on
 * (seed, index), so a memoized chunk is byte-identical to a fresh one.
 */
class DatasetChunks
{
  public:
    DatasetChunks()
        : gen_([] {
              apps::DatasetParams p;
              p.catalog_items = kCatalogItems;
              return p;
          }())
    {}

    /** Keep every chunk generated from now on for the process's life. */
    void memoize() { memoize_ = true; }

    /** Chunk @p index. Without memoization the bytes stay valid until
     *  the next get(). */
    std::span<const std::uint8_t>
    get(std::uint64_t index)
    {
        if (!memoize_) {
            scratch_ = gen_.chunk(index);
            return scratch_;
        }
        if (index >= memo_.size())
            memo_.resize(index + 1);
        if (memo_[index].empty())
            memo_[index] = gen_.chunk(index);
        return memo_[index];
    }

  private:
    apps::TransactionGenerator gen_;
    bool memoize_ = false;
    std::vector<std::uint8_t> scratch_;
    std::vector<std::vector<std::uint8_t>> memo_;
};

DatasetChunks &
datasetChunks()
{
    static DatasetChunks chunks;
    return chunks;
}

/** Mining worker: scan [first_chunk, ...) with stride, reading through
 *  `read`, counting on `cpu`, merging into `result`. */
template <typename ReadFn>
sim::Task<void>
mineChunks(sim::Simulator &sim, sim::CpuResource &cpu, ReadFn read,
           std::uint64_t total_chunks, std::uint64_t first_chunk,
           std::uint64_t stride, apps::ItemCounts &result)
{
    std::vector<std::uint8_t> chunk(apps::kChunkBytes);
    for (std::uint64_t c = first_chunk; c < total_chunks; c += stride) {
        // Producers: the chunk arrives as parallel 512 KB reads.
        std::vector<sim::Task<void>> producers;
        for (std::uint64_t off = 0; off < apps::kChunkBytes;
             off += kReadBytes) {
            producers.push_back(read(
                c * apps::kChunkBytes + off,
                std::span<std::uint8_t>(chunk.data() + off, kReadBytes)));
        }
        co_await sim::parallelAll(sim, std::move(producers));

        // Consumer: the counting kernel.
        co_await cpu.executeAt(
            static_cast<std::uint64_t>(apps::kCountingCyclesPerByte *
                                       apps::kChunkBytes),
            1.0);
        apps::mergeCounts(result,
                          apps::countOneItemsets(chunk, kCatalogItems));
    }
}

struct RunResult
{
    double aggregate_mbs = 0; ///< delivered bytes over the scan's time
    std::uint64_t rpc_timeouts = 0;
    std::uint64_t delivered_bytes = 0; ///< NASD runs: bytes reads returned
    std::uint64_t failed_reads = 0;    ///< NASD runs: reads that failed
    apps::ItemCounts counts;
};

/** Per-op-class latency decomposition aggregated across all drives. */
struct OpBreakdown
{
    std::uint64_t count = 0;
    double measured_ns = 0; ///< sum of end-to-end op latencies
    std::array<std::uint64_t, util::kResourceClassCount> wait_ns{};
    std::array<std::uint64_t, util::kResourceClassCount> service_ns{};
    std::uint64_t other_ns = 0; ///< elapsed no phase claimed
};

/** Optional observability outputs of one NASD run. */
struct NasdRunExtras
{
    /// When set, the mining scan is driven by a StatsPoller sampling
    /// throughput / drive utilization / client queue depth into here
    /// every kSampleInterval.
    util::TimeSeries *timeseries = nullptr;
    /// When set, filled with the per-op wait/service decomposition
    /// collected from the run's drive op counters.
    std::map<std::string, OpBreakdown> *breakdown = nullptr;
    /// When set, filled with the fleet rollup (merged per-op latency
    /// histograms + straggler verdicts) collected before the run's
    /// MetricsScope closes; stragglers are journaled to the flight
    /// recorder as kStragglerSuspect.
    util::FleetRollup *fleet = nullptr;
};

/** Pull the "<drive>/ops/<op>/..." instruments of the current registry
 *  into a per-op breakdown summed across drives. */
void
collectBreakdown(std::map<std::string, OpBreakdown> &ops)
{
    util::metrics().forEachLatency(
        [&ops](const std::string &path, const util::LogHistogram &h) {
            const auto pos = path.find("/ops/");
            if (pos == std::string::npos)
                return;
            // Drive instruments only ("nasd3/ops/..."): client-side
            // cheops latencies ("miner0/cheops/ops/...") measure the
            // same wall interval end-to-end and would double-count
            // against the drives' attribution counters.
            if (path.find('/') != pos)
                return;
            const std::string tail = path.substr(pos + 5);
            const auto slash = tail.find('/');
            if (slash == std::string::npos ||
                tail.substr(slash + 1) != "latency_ns")
                return;
            auto &b = ops[tail.substr(0, slash)];
            b.count += h.count();
            b.measured_ns += static_cast<double>(h.sum());
        });
    util::metrics().forEachCounter(
        [&ops](const std::string &path, const util::Counter &c) {
            const auto pos = path.find("/ops/");
            if (pos == std::string::npos)
                return;
            const std::string tail = path.substr(pos + 5);
            const auto slash = tail.find("/attr/");
            if (slash == std::string::npos || tail.find('/') != slash)
                return;
            auto &b = ops[tail.substr(0, slash)];
            const std::string leaf = tail.substr(slash + 6);
            if (leaf == "other_ns") {
                b.other_ns += c.value();
                return;
            }
            for (std::size_t k = 0; k < util::kResourceClassCount; ++k) {
                const std::string cls = util::resourceClassName(
                    static_cast<util::ResourceClass>(k));
                if (leaf == cls + "_wait_ns") {
                    b.wait_ns[k] += c.value();
                    return;
                }
                if (leaf == cls + "_service_ns") {
                    b.service_ns[k] += c.value();
                    return;
                }
            }
        });
}

// ------------------------------------------------------------------ NASD

/** One NASD configuration: load @p dataset_bytes into PFS file "sales"
 *  on the cluster, then `spec.drives` clients mine it round-robin. */
RunResult
runNasd(const rig::ClusterSpec &spec, std::uint64_t dataset_bytes,
        const net::FaultPlan *faults = nullptr,
        NasdRunExtras *extras = nullptr)
{
    const util::MetricsScope run_metrics;
    rig::NasdCluster cluster(spec);
    sim::Simulator &sim = cluster.sim;
    const int n = spec.drives;

    const std::uint64_t chunks = dataset_bytes / apps::kChunkBytes;
    const auto handle = cluster.loadPfsFile(
        "sales", chunks,
        [](std::uint64_t c) { return datasetChunks().get(c); });
    const auto clients = cluster.openPfsClients(n, "sales");
    std::vector<apps::ItemCounts> partials(
        n, apps::ItemCounts(kCatalogItems, 0));

    // Faults start after the (untimed) load and opens: the sweep
    // measures the data path's tolerance, not the loader's.
    if (faults != nullptr)
        cluster.net.setFaultPlan(*faults);

    RunResult result;
    const sim::Tick start = sim.now();
    for (int i = 0; i < n; ++i) {
        auto *client = clients[i].get();
        sim.spawn(mineChunks(
            sim, client->node().cpu(),
            [client, handle, &result](std::uint64_t off,
                                      std::span<std::uint8_t> out)
                -> sim::Task<void> {
                auto r = co_await client->read(handle, off, out);
                if (r.ok())
                    result.delivered_bytes += r.value();
                else
                    ++result.failed_reads;
            },
            chunks, static_cast<std::uint64_t>(i), n, partials[i]));
    }
    if (extras != nullptr && extras->timeseries != nullptr) {
        // Interval-sampled run: same event schedule as sim.run(), plus
        // one TimeSeries sample per boundary.
        sim::StatsPoller poller(sim, *extras->timeseries, kSampleInterval);
        poller.addRate(
            "client_read_mbs",
            [&clients] {
                double bytes = 0;
                for (const auto &c : clients)
                    bytes += static_cast<double>(
                        c->node().bytes_received.value());
                return bytes;
            },
            1.0 / static_cast<double>(kMB));
        for (auto *drive : cluster.raw) {
            poller.addRate(
                drive->name() + "_cpu_util",
                [drive, &sim] {
                    return static_cast<double>(
                        drive->node().cpu().busyNsUpTo(sim.now()));
                },
                1e-9);
        }
        poller.addGauge("client_rx_queued", [&clients] {
            double waiting = 0;
            for (const auto &c : clients)
                waiting += static_cast<double>(
                    c->node().rx().waiterCount());
            return waiting;
        });
        // Cumulative fleet read tail so far: flat for a healthy fleet,
        // climbing when a straggler drags the merged histogram.
        poller.addFleetPercentile("fleet_read_p99_ms", "nasd/read", 99.0,
                                  1e-6);
        poller.run();
    } else {
        sim.run();
    }
    // lastEventTime(), not now(): a poller rounds the final clock up to
    // its interval boundary, and the scan ends at the last real event.
    const double secs = sim::toSeconds(sim.lastEventTime() - start);

    result.counts.assign(kCatalogItems, 0);
    for (const auto &partial : partials)
        apps::mergeCounts(result.counts, partial);
    for (const auto &client : clients)
        result.rpc_timeouts += client->node().rpc_timeouts.value();
    result.aggregate_mbs = util::bytesPerSecToMBs(
        static_cast<double>(result.delivered_bytes) / secs);
    if (extras != nullptr && extras->breakdown != nullptr)
        collectBreakdown(*extras->breakdown);
    if (extras != nullptr && extras->fleet != nullptr) {
        // Collected here, inside the run's MetricsScope, because the
        // per-drive instruments die with it; stragglers go to the
        // flight recorder so the journal names the suspect drive.
        *extras->fleet = util::FleetRollup::collect(util::metrics());
        extras->fleet->journalStragglers(
            static_cast<std::uint64_t>(sim.lastEventTime()));
    }
    return result;
}

// ------------------------------------------------------------------- NFS

RunResult
runNfs(int n, bool parallel_files)
{
    const util::MetricsScope run_metrics;
    sim::Simulator sim;
    net::Network net(sim);

    // The comparison server: AlphaStation 500 with two OC-3 links and
    // n Cheetah drives.
    net::LinkParams server_link = net::oc3Link();
    server_link.mbps = 2 * 155.0;
    auto &server_node = net.addNode("nfs-server", net::alphaStation500(),
                                    server_link, net::dceRpcCosts());

    std::vector<std::unique_ptr<disk::DiskModel>> disks;
    for (int i = 0; i < n; ++i) {
        disks.push_back(std::make_unique<disk::DiskModel>(
            sim, disk::cheetahParams()));
    }

    fs::NfsServer server(sim, server_node);
    std::unique_ptr<disk::StripingDriver> stripe;
    std::vector<std::unique_ptr<fs::FfsFileSystem>> volumes;
    // The comparison server has 256 MB of RAM; give the buffer cache
    // a realistic share (still far below the 300 MB dataset).
    fs::FfsParams server_fs;
    server_fs.buffer_cache_bytes = 64 * kMB;
    // Server-tuned readahead (the comparison server is configured for
    // throughput; the Figure 6 workstation FFS keeps the default).
    server_fs.readahead_clusters = 8;
    if (parallel_files) {
        for (int i = 0; i < n; ++i) {
            volumes.push_back(std::make_unique<fs::FfsFileSystem>(
                sim, *disks[i], &server_node.cpu(), server_fs));
            runTask(sim, volumes.back()->format());
            server.addVolume(*volumes.back());
        }
    } else {
        std::vector<disk::BlockDevice *> members;
        for (auto &d : disks)
            members.push_back(d.get());
        stripe = std::make_unique<disk::StripingDriver>(sim, members,
                                                        64 * kKB);
        volumes.push_back(std::make_unique<fs::FfsFileSystem>(
            sim, *stripe, &server_node.cpu(), server_fs));
        runTask(sim, volumes.back()->format());
        server.addVolume(*volumes.back());
    }

    // Ten clients, as in the paper's configuration.
    const int n_clients = 10;
    const std::uint64_t chunks = kDatasetBytes / apps::kChunkBytes;

    // Load data directly into the volumes (setup, untimed). Shared-file
    // NFS has one file "sales" on the striped volume holding every
    // chunk. NFS-parallel gives client i a replica slice "sales<i>" on
    // volume i % n holding dataset chunks i, i + 10, ...
    const int n_files = parallel_files ? n_clients : 1;
    std::vector<fs::NfsFileHandle> files;
    std::vector<std::uint64_t> file_chunks;
    for (int f = 0; f < n_files; ++f) {
        const auto vol_index =
            static_cast<std::uint32_t>(static_cast<std::size_t>(f) %
                                       volumes.size());
        auto &vol = *volumes[vol_index];
        const std::string name =
            parallel_files ? "sales" + std::to_string(f) : "sales";
        auto ino = runFor(sim, vol.create(fs::kRootInode, name));
        NASD_ASSERT(ino.ok(), "fig9 setup: create failed");
        const std::uint64_t count =
            chunks / n_files +
            (f < static_cast<int>(chunks % n_files) ? 1 : 0);
        for (std::uint64_t c = 0; c < count; ++c) {
            const auto w = runFor(
                sim, vol.write(ino.value(), c * apps::kChunkBytes,
                               datasetChunks().get(c * n_files + f)));
            NASD_ASSERT(w.ok(), "fig9 setup: load write failed");
        }
        files.push_back(fs::NfsFileHandle{vol_index, ino.value()});
        file_chunks.push_back(count);
    }
    for (auto &vol : volumes)
        runTask(sim, vol->sync());

    std::vector<std::unique_ptr<fs::NfsClient>> clients;
    std::vector<apps::ItemCounts> partials(
        n_clients, apps::ItemCounts(kCatalogItems, 0));
    // NFSv3-style mounts: 32 KB transfer units, 8 outstanding.
    fs::NfsClientParams mount;
    mount.rsize = 32 * kKB;
    mount.wsize = 32 * kKB;
    for (int i = 0; i < n_clients; ++i) {
        auto &node = net.addNode("client" + std::to_string(i),
                                 net::alphaStation255(), net::oc3Link(),
                                 net::dceRpcCosts());
        clients.push_back(
            std::make_unique<fs::NfsClient>(net, node, server, mount));
    }

    // On the shared file client i scans chunks i, i + 10, ...; a
    // replica slice is scanned whole by its one client.
    const sim::Tick start = sim.now();
    for (int i = 0; i < n_clients; ++i) {
        auto *client = clients[i].get();
        const int f = i % n_files;
        const fs::NfsFileHandle fh = files[f];
        sim.spawn(mineChunks(
            sim, client->node().cpu(),
            [client, fh](std::uint64_t off,
                         std::span<std::uint8_t> out) -> sim::Task<void> {
                auto r = co_await client->read(fh, off, out);
                (void)r;
            },
            file_chunks[f], static_cast<std::uint64_t>(i / n_files),
            static_cast<std::uint64_t>(n_clients / n_files), partials[i]));
    }
    sim.run();
    const double secs = sim::toSeconds(sim.now() - start);

    RunResult result;
    result.counts.assign(kCatalogItems, 0);
    for (const auto &partial : partials)
        apps::mergeCounts(result.counts, partial);
    result.aggregate_mbs =
        util::bytesPerSecToMBs(static_cast<double>(kDatasetBytes) / secs);
    return result;
}

/** Record one headline point as a result gauge
 *  ("<bench>/<series>/<n>_disks_mbps"). */
void
record(const char *series, int disks, double mbps,
       const char *bench = "fig9")
{
    util::metrics()
        .gauge(std::string(bench) + "/" + series + "/" +
               std::to_string(disks) + "_disks_mbps")
        .set(mbps);
}

// ------------------------------------------------- kill-drive rebuild

/** One scanning client's progress; `stop` ends its loop. */
struct ScanState
{
    std::uint64_t bytes = 0;
    bool stop = false;
};

/** Scan the object in kReadBytes strides forever (until stop), wrapping
 *  at the end; degraded and healthy reads both count delivered bytes. */
sim::Task<void>
scanLoop(cheops::CheopsClient &client, cheops::LogicalObjectId id,
         std::uint64_t object_bytes, std::uint64_t first,
         std::uint64_t stride, ScanState &state)
{
    std::vector<std::uint8_t> buf(kReadBytes);
    const std::uint64_t slots = object_bytes / kReadBytes;
    for (std::uint64_t c = first; !state.stop; c += stride) {
        auto r = co_await client.read(id, (c % slots) * kReadBytes, buf);
        if (r.ok())
            state.bytes += r.value().bytes;
    }
}

/**
 * Foreground writer: one stripe-unit-sized update every @p gap ticks,
 * marching through the object, so some updates land while the victim
 * is dead (degraded read-modify-write) and some race the rebuild
 * engine (rebuild row lock + write-through to the spare). Content is a
 * deterministic function of the write ordinal.
 */
sim::Task<void>
writeLoop(sim::Simulator &sim, cheops::CheopsClient &client,
          cheops::LogicalObjectId id, std::uint64_t object_bytes,
          std::uint64_t unit_bytes, sim::Tick gap, ScanState &state)
{
    std::vector<std::uint8_t> buf(unit_bytes);
    const std::uint64_t slots = object_bytes / unit_bytes;
    for (std::uint64_t u = 0; !state.stop; ++u) {
        for (std::size_t j = 0; j < buf.size(); ++j)
            buf[j] = static_cast<std::uint8_t>(u + j);
        auto w = co_await client.write(id, (u % slots) * unit_bytes, buf);
        if (w.ok())
            state.bytes += unit_bytes;
        co_await sim.delay(gap);
    }
}

/** Bracket one kill-drive phase in the journal (fleet health report). */
void
markPhase(sim::Simulator &sim, util::FrEvent kind, const char *phase)
{
    util::flightRecorder().node("bench").record(sim.now(), kind, 0, 0, 0,
                                                phase);
}

/** Phase bandwidths and the rebuild record of one kill-drive run. */
struct KillDriveResult
{
    double healthy_mbps = 0;
    double degraded_mbps = 0;
    double rebuild_window_mbps = 0;
    double post_mbps = 0;
    cheops::RebuildProgress rebuild;
};

/**
 * The rebuild service scenario: 4 clients scan a RAID-5 object striped
 * 8 + rotating parity over 9 of 10 drives; one data drive is killed
 * mid-scan, the manager rebuilds it onto the spare while the clients
 * keep reading, and the bench reports the bandwidth of every phase.
 */
KillDriveResult
runKillDrive()
{
    constexpr int kDrives = 10;
    constexpr int kClients = 4;
    constexpr std::uint64_t kSu = 32 * kKB;
    constexpr std::uint32_t kWidth = 8;
    constexpr std::uint64_t kObjectBytes = 32 * kMB;
    constexpr sim::Tick kWindow = sim::msec(250);
    constexpr sim::Tick kPollStep = sim::msec(5);

    const util::MetricsScope run_metrics;
    rig::NasdCluster cluster({.drives = kDrives});
    sim::Simulator &sim = cluster.sim;

    // Load the dataset through a control client (untimed).
    const auto control = cluster.cheopsClient("control");
    const auto created = runFor(
        sim, control->create(kSu, kWidth, kObjectBytes,
                             cheops::Redundancy::kParity));
    NASD_ASSERT(created.ok(), "kill-drive: create failed");
    const auto id = created.value();
    for (std::uint64_t c = 0; c < kObjectBytes / apps::kChunkBytes; ++c) {
        auto w = runFor(
            sim, control->write(id, c * apps::kChunkBytes,
                                datasetChunks().get(c)));
        NASD_ASSERT(w.ok(), "kill-drive: load write failed");
    }
    cluster.flushAll();

    const auto opened = runFor(sim, control->open(id, false));
    NASD_ASSERT(opened.ok(), "kill-drive: open failed");
    const auto *map = opened.value();
    const std::uint32_t victim_comp = 0;
    const std::uint32_t victim_drive = map->components[victim_comp].drive;
    std::vector<bool> used(kDrives, false);
    for (const auto &comp : map->components)
        used[comp.drive] = true;
    std::uint32_t spare = 0;
    while (spare < kDrives && used[spare])
        ++spare;
    NASD_ASSERT(spare < kDrives, "kill-drive: no spare drive left");

    std::vector<std::unique_ptr<cheops::CheopsClient>> clients;
    std::vector<ScanState> states(kClients);
    for (int i = 0; i < kClients; ++i) {
        clients.push_back(
            cluster.cheopsClient("client" + std::to_string(i)));
        sim.spawn(scanLoop(*clients.back(), id, kObjectBytes,
                           static_cast<std::uint64_t>(i), kClients,
                           states[i]));
    }
    // One foreground writer alongside the scanners: its stripe-unit
    // updates keep hitting the victim's column, so the journal captures
    // writes that race the rebuild (degraded RMW, row lock,
    // write-through to the spare) — tools/flight_report.py
    // --find-rebuild-race keys off exactly those events.
    const auto writer = cluster.cheopsClient("writer");
    ScanState writer_state;
    sim.spawn(writeLoop(sim, *writer, id, kObjectBytes, kSu, sim::msec(2),
                        writer_state));

    const auto total_bytes = [&states] {
        std::uint64_t bytes = 0;
        for (const auto &s : states)
            bytes += s.bytes;
        return bytes;
    };
    const auto window_mbs = [](std::uint64_t bytes, sim::Tick ticks) {
        return util::bytesPerSecToMBs(static_cast<double>(bytes) /
                                      sim::toSeconds(ticks));
    };
    // The rest of a fixed-length phase already begun: scan for kWindow,
    // close the phase and return its bandwidth.
    const auto finish_window = [&](const char *phase) {
        const std::uint64_t before = total_bytes();
        sim.runUntil(sim.now() + kWindow);
        const double mbps = window_mbs(total_bytes() - before, kWindow);
        markPhase(sim, util::FrEvent::kPhaseEnd, phase);
        return mbps;
    };
    KillDriveResult r;

    // Phase 1 — healthy baseline.
    markPhase(sim, util::FrEvent::kPhaseBegin, "healthy");
    r.healthy_mbps = finish_window("healthy");

    // Phase 2 — kill a data drive; reads reconstruct from parity.
    markPhase(sim, util::FrEvent::kPhaseBegin, "degraded");
    cluster.drives[victim_drive]->setFailed(true);
    r.degraded_mbps = finish_window("degraded");

    // Phase 3 — online rebuild onto the spare, token-throttled to one
    // row per millisecond so foreground traffic keeps flowing.
    markPhase(sim, util::FrEvent::kPhaseBegin, "rebuild");
    cheops::RebuildThrottle throttle;
    throttle.token_interval_ns = sim::msec(1);
    throttle.burst = 1;
    bool start_done = false;
    bool start_ok = false;
    sim.spawn([](cheops::CheopsClient &c, cheops::LogicalObjectId oid,
                 std::uint32_t comp, std::uint32_t target,
                 cheops::RebuildThrottle t, bool &done,
                 bool &ok) -> sim::Task<void> {
        auto res = co_await c.startRebuild(oid, comp, target, t);
        ok = res.ok();
        done = true;
    }(*control, id, victim_comp, spare, throttle, start_done, start_ok));
    const std::uint64_t rebuild_start_bytes = total_bytes();
    const sim::Tick rebuild_t0 = sim.now();
    while (!start_done)
        sim.runUntil(sim.now() + kPollStep);
    NASD_ASSERT(start_ok, "kill-drive: startRebuild rejected");
    while (cluster.storage().rebuildProgress(id).active)
        sim.runUntil(sim.now() + kPollStep);
    r.rebuild_window_mbps = window_mbs(total_bytes() - rebuild_start_bytes,
                                       sim.now() - rebuild_t0);
    r.rebuild = cluster.storage().rebuildProgress(id);
    markPhase(sim, util::FrEvent::kPhaseEnd, "rebuild");

    // Phase 4 — the spare serves; clients refresh onto the new map.
    markPhase(sim, util::FrEvent::kPhaseBegin, "post_rebuild");
    r.post_mbps = finish_window("post_rebuild");

    for (auto &s : states)
        s.stop = true;
    writer_state.stop = true;
    sim.run(); // drain the scan loops and any rebuild-engine stragglers
    return r;
}

// ----------------------------------------------------------- reporting

/**
 * Print the per-op wait/service decomposition of the drive ops in
 * @p scope and check that attribution reconciles with measured latency
 * (within 1%).
 * @return true if every op class reconciled.
 */
bool
printBreakdown(const std::string &scope,
               const std::map<std::string, OpBreakdown> &breakdown)
{
    std::printf("\nwhere did the time go — drive ops, %s\n", scope.c_str());
    bool reconciled = true;
    for (const auto &[op, b] : breakdown) {
        if (b.count == 0)
            continue;
        const double measured_ms = b.measured_ns / 1e6;
        std::printf("\n%s: %llu ops, measured %.2f ms total\n", op.c_str(),
                    static_cast<unsigned long long>(b.count), measured_ms);
        std::printf("  %-10s %12s %12s\n", "resource", "wait ms",
                    "service ms");
        std::uint64_t attributed = 0;
        for (std::size_t k = 0; k < util::kResourceClassCount; ++k) {
            attributed += b.wait_ns[k] + b.service_ns[k];
            if (b.wait_ns[k] == 0 && b.service_ns[k] == 0)
                continue;
            std::printf("  %-10s %12.2f %12.2f\n",
                        util::resourceClassName(
                            static_cast<util::ResourceClass>(k)),
                        static_cast<double>(b.wait_ns[k]) / 1e6,
                        static_cast<double>(b.service_ns[k]) / 1e6);
        }
        std::printf("  %-10s %12s %12.2f\n", "other", "",
                    static_cast<double>(b.other_ns) / 1e6);
        const double attributed_ms = static_cast<double>(attributed) / 1e6;
        const double delta_pct =
            measured_ms == 0.0
                ? 0.0
                : (attributed_ms - measured_ms) / measured_ms * 100.0;
        std::printf("  attributed %.2f ms vs measured %.2f ms (%+.3f%%)\n",
                    attributed_ms, measured_ms, delta_pct);
        if (std::abs(delta_pct) > 1.0)
            reconciled = false;
    }
    std::printf("\nper-op attribution reconciles with measured "
                "latency (within 1%%): %s\n",
                reconciled ? "yes" : "NO (BUG)");
    return reconciled;
}

/**
 * Print which drive finished last (the critical path) across every
 * striped pfs/read fan-out recorded in @p tracer.
 * @return the number of pfs/read root ops analyzed.
 */
std::uint64_t
printFanout(const util::Tracer &tracer)
{
    const auto report =
        util::analyzeDriveFanout(tracer, "pfs/read", "drive/");
    std::printf("\ncritical path over %llu striped pfs/read fan-outs:\n",
                static_cast<unsigned long long>(report.roots));
    std::printf("  %-8s %8s %10s %14s %14s\n", "drive", "spans", "critical",
                "mean slack ms", "mean dur ms");
    for (const auto &d : report.drives) {
        std::printf("  %-8s %8llu %10llu %14.3f %14.3f\n", d.lane.c_str(),
                    static_cast<unsigned long long>(d.spans),
                    static_cast<unsigned long long>(d.critical),
                    d.mean_slack_ns / 1e6, d.mean_dur_ns / 1e6);
    }
    std::printf("\ndominant drive chain: %s\n",
                report.dominantLane().c_str());
    return report.roots;
}

/** Event-kind counts of one kill-drive phase, in phase order. */
using PhaseCounts =
    std::pair<std::string, std::map<std::string, std::uint64_t>>;

/** Bucket every journaled event into the phase whose kPhaseBegin /
 *  kPhaseEnd markers bracket it (events outside any phase — setup,
 *  drain — are dropped). Phases appear in marker order. */
std::vector<PhaseCounts>
collectFleetHealth(const util::FlightRecorder &fr)
{
    std::vector<PhaseCounts> phases;
    bool in_phase = false;
    for (const auto &[journal, ev] : fr.merged()) {
        (void)journal;
        if (ev->kind == util::FrEvent::kPhaseBegin) {
            phases.emplace_back(ev->detail,
                                std::map<std::string, std::uint64_t>{});
            in_phase = true;
            continue;
        }
        if (ev->kind == util::FrEvent::kPhaseEnd) {
            in_phase = false;
            continue;
        }
        if (in_phase)
            ++phases.back().second[util::frEventName(ev->kind)];
    }
    return phases;
}

/** Serialize collectFleetHealth() as a writeBenchJson extra section:
 *  `, "fleet_health": {"phases": [{"name": ..., "events": {...}}]}`. */
std::string
fleetHealthJson(const std::vector<PhaseCounts> &phases)
{
    std::string out = ", \"fleet_health\": {\"phases\": [";
    bool first_phase = true;
    for (const auto &[name, counts] : phases) {
        if (!first_phase)
            out += ", ";
        first_phase = false;
        out += "{\"name\": \"" + name + "\", \"events\": {";
        bool first_kind = true;
        for (const auto &[kind, n] : counts) {
            if (!first_kind)
                out += ", ";
            first_kind = false;
            out += "\"" + kind + "\": " + std::to_string(n);
        }
        out += "}}";
    }
    out += "]}";
    return out;
}

/** Print the tail-exemplar table, then the merged journal window
 *  around the slowest @p focus_op sample — the flight recorder's
 *  answer to "show me the actual worst read". */
void
printTailExemplars(const util::FlightRecorder &fr, const char *focus_op)
{
    const auto ops = fr.exemplarOps();
    if (ops.empty())
        return;
    std::printf("\ntail exemplars — top-%zu latency samples per drive op\n",
                util::TailExemplars::kKeep);
    std::printf("  %-10s %10s %12s %14s %10s %10s\n", "op", "samples",
                "max ms", "tail >= ms", "trace", "seq");
    for (const auto &op : ops) {
        const auto *ex = fr.exemplars(op);
        if (ex == nullptr || ex->retained() == 0)
            continue;
        const auto &top = ex->max();
        std::printf("  %-10s %10llu %12.3f %14.3f %10llu %10llu\n",
                    op.c_str(),
                    static_cast<unsigned long long>(ex->count()),
                    top.value / 1e6, ex->threshold() / 1e6,
                    static_cast<unsigned long long>(top.trace_id),
                    static_cast<unsigned long long>(top.seq));
    }
    const auto *focus = fr.exemplars(focus_op);
    if (focus == nullptr || focus->retained() == 0)
        return;
    const auto &slow = focus->max();
    std::printf("\njournal window around the slowest %s (seq %llu +/-8):\n",
                focus_op, static_cast<unsigned long long>(slow.seq));
    for (const auto &[journal, ev] : fr.window(slow.seq, 8))
        std::printf("  [%6llu] %12.3f ms %-8s %-18s trace=%llu a=%llu "
                    "b=%llu %s\n",
                    static_cast<unsigned long long>(ev->seq),
                    static_cast<double>(ev->time_ns) / 1e6,
                    journal->nodeName().c_str(), util::frEventName(ev->kind),
                    static_cast<unsigned long long>(ev->trace_id),
                    static_cast<unsigned long long>(ev->a),
                    static_cast<unsigned long long>(ev->b), ev->detail);
}

/** Record the fleet's merged nasd-read p50/p99 as result gauges
 *  ("<base>_p50_ms" / "<base>_p99_ms") so check_bench_json.py gates
 *  the fleet tail against the baseline alongside MB/s. */
void
recordFleetGauges(const util::FleetRollup &roll, const std::string &base)
{
    for (const auto &op : roll.ops()) {
        if (op.group != "nasd/read")
            continue;
        util::metrics().gauge(base + "_p50_ms")
            .set(op.merged.percentile(50.0) * 1e-6);
        util::metrics().gauge(base + "_p99_ms")
            .set(op.merged.percentile(99.0) * 1e-6);
    }
}

/** Distinct instances flagged as stragglers across every op group. */
std::set<std::string>
stragglerNames(const util::FleetRollup &roll)
{
    std::set<std::string> names;
    for (const auto *s : roll.stragglers())
        names.insert(s->instance);
    return names;
}

/** Dump the flight-recorder journal to `--journal PATH`, if given. */
void
writeJournal(const bench::BenchOptions &opts, const util::FlightRecorder &fr)
{
    if (opts.journal_path.empty())
        return;
    fr.writeJson(opts.journal_path);
    std::printf("\nwrote %s (%llu journal events across %zu nodes)\n",
                opts.journal_path.c_str(),
                static_cast<unsigned long long>(fr.totalRecorded()),
                fr.nodeCount());
}

// ------------------------------------------------------------ scenario

struct Scenario;
int tableMain(const Scenario &s);

/** One fig9_mining invocation, parsed once from the command line. */
struct Scenario
{
    int (*mode)(const Scenario &) = tableMain;
    const char *dump = "fig9";     ///< BENCH_<dump>.json by default
    std::vector<int> drive_counts; ///< --drives N[,N...]
    int slow_drive = -1;           ///< --slow-drive N,factor
    double slow_factor = 1.0;
    bench::BenchOptions opts; ///< --json / --no-json / --trace / --journal
};

/** Announce the --slow-drive fault; @p scope says which runs it hits. */
void
printSlowDrive(const Scenario &s, const char *scope, const char *note)
{
    std::printf("\nfault: drive nasd%d mechanical time scaled %.1fx%s "
                "(--slow-drive)%s\n",
                s.slow_drive, s.slow_factor, scope, note);
}

// --------------------------------------------------------------- modes

/**
 * --fault-sweep: the NASD scan at 1..8 drives under a lossy network.
 * Every read must succeed, every byte must arrive and the item counts
 * must agree across drive counts; MB/s counts delivered bytes only.
 */
int
faultSweepMain(const Scenario &)
{
    constexpr std::uint64_t kSweepBytes = 32 * kMB;
    bench::banner(
        "fig9_mining --fault-sweep — NASD scan under a lossy network",
        "fault-injection sweep (drop 1%, duplicate 0.5%, delay 1%)");

    net::FaultPlan plan;
    plan.drop_probability = 0.01;
    plan.duplicate_probability = 0.005;
    plan.delay_probability = 0.01;
    plan.delay_min = 0;
    plan.delay_max = sim::msec(2);
    plan.seed = 1998;

    std::printf("\n%7s %12s %14s\n", "disks", "NASD MB/s",
                "rpc timeouts");
    bool all_deliver = true;
    apps::ItemCounts reference;
    for (const int n : {1, 2, 4, 6, 8}) {
        const auto r = runNasd({.drives = n}, kSweepBytes, &plan);
        std::printf("%7d %12.1f %14llu\n", n, r.aggregate_mbs,
                    static_cast<unsigned long long>(r.rpc_timeouts));
        if (reference.empty())
            reference = r.counts;
        if (r.failed_reads != 0 || r.delivered_bytes != kSweepBytes ||
            r.counts != reference) {
            std::printf("  %d drives: %llu failed reads, %llu of %llu "
                        "bytes delivered, item counts %s\n",
                        n, static_cast<unsigned long long>(r.failed_reads),
                        static_cast<unsigned long long>(r.delivered_bytes),
                        static_cast<unsigned long long>(kSweepBytes),
                        r.counts == reference ? "agree" : "DIFFER");
            all_deliver = false;
        }
    }
    std::printf("\nevery drive count delivered data under faults: "
                "%s\n",
                all_deliver ? "yes" : "NO (BUG)");
    return all_deliver ? 0 : 1;
}

/** --breakdown: where the time of an 8-drive scan went. */
int
breakdownMain(const Scenario &)
{
    bench::banner(
        "fig9_mining --breakdown — where did the time go, 8-drive "
        "NASD scan",
        "latency attribution + critical path (Section 5.2 workload)");

    // Trace in memory (never written) to feed the critical-path
    // analyzer alongside the registry's attribution counters; the
    // flight scope gives the run fresh journals and exemplars.
    util::FlightRecorderScope flight;
    util::Tracer tracer;
    util::setTracer(&tracer);
    std::map<std::string, OpBreakdown> breakdown;
    NasdRunExtras extras;
    extras.breakdown = &breakdown;
    const auto r = runNasd({.drives = 8}, 32 * kMB, nullptr, &extras);
    util::setTracer(nullptr);
    std::printf("\nscan: %.1f MB/s aggregate over 8 drives\n",
                r.aggregate_mbs);

    const bool reconciled = printBreakdown("all 8 drives", breakdown);
    const std::uint64_t roots = printFanout(tracer);

    printTailExemplars(flight.recorder(), "read");
    return reconciled && roots > 0 ? 0 : 1;
}

/** --kill-drive: RAID-5 scan through a drive failure and rebuild. */
int
killDriveMain(const Scenario &s)
{
    bench::banner(
        "fig9_mining --kill-drive — RAID-5 scan with a mid-run drive "
        "failure and online rebuild",
        "Section 5.2 workload over parity-striped Cheops (degraded "
        "service + rebuild onto a spare)");

    // Installed before runKillDrive builds its Network: NetNodes
    // cache their journal reference at construction, so the scope
    // must already be current (and must outlive the run so the
    // journal can be reported after it returns).
    util::FlightRecorderScope flight;
    const KillDriveResult r = runKillDrive();
    const auto &prog = r.rebuild;
    const double rebuild_ms =
        static_cast<double>(prog.finished_at - prog.started_at) / 1e6;
    const double throttle_wait_ms =
        static_cast<double>(prog.throttle_wait_ns) / 1e6;
    const double impact_pct =
        r.healthy_mbps > 0.0 ? (r.healthy_mbps - r.rebuild_window_mbps) /
                                   r.healthy_mbps * 100.0
                             : 0.0;
    const double reconstructed_mb =
        static_cast<double>(prog.bytes_reconstructed) /
        static_cast<double>(kMB);

    std::printf("\n%-22s %12s\n", "phase", "MB/s");
    std::printf("%-22s %12.1f\n", "healthy", r.healthy_mbps);
    std::printf("%-22s %12.1f\n", "degraded (drive dead)",
                r.degraded_mbps);
    std::printf("%-22s %12.1f\n", "during rebuild", r.rebuild_window_mbps);
    std::printf("%-22s %12.1f\n", "after rebuild", r.post_mbps);
    std::printf("\nrebuild: %llu/%llu rows, %.1f MB reconstructed in "
                "%.1f ms (%.1f ms throttle wait)\n",
                static_cast<unsigned long long>(prog.rows_done),
                static_cast<unsigned long long>(prog.rows_total),
                reconstructed_mb, rebuild_ms, throttle_wait_ms);
    std::printf("foreground impact while rebuilding: %.1f%% of "
                "healthy bandwidth\n", impact_pct);

    const auto phases = collectFleetHealth(flight.recorder());
    std::printf("\nfleet health — journal events per phase:\n");
    std::printf("  %-14s %8s %10s %10s %10s %8s\n", "phase", "events",
                "degr_read", "degr_write", "write_thru", "fences");
    for (const auto &[name, counts] : phases) {
        std::uint64_t total = 0;
        for (const auto &[kind, n] : counts)
            total += n;
        const auto get = [&counts](const char *k) {
            const auto it = counts.find(k);
            return it == counts.end() ? std::uint64_t{0} : it->second;
        };
        std::printf("  %-14s %8llu %10llu %10llu %10llu %8llu\n",
                    name.c_str(), static_cast<unsigned long long>(total),
                    static_cast<unsigned long long>(get("degraded_read")),
                    static_cast<unsigned long long>(get("degraded_write")),
                    static_cast<unsigned long long>(get("write_through")),
                    static_cast<unsigned long long>(get("version_fence")));
    }

    writeJournal(s.opts, flight.recorder());

    auto &m = util::metrics();
    m.gauge("rebuild/healthy_mbps").set(r.healthy_mbps);
    m.gauge("rebuild/degraded_mbps").set(r.degraded_mbps);
    m.gauge("rebuild/during_rebuild_mbps").set(r.rebuild_window_mbps);
    m.gauge("rebuild/post_rebuild_mbps").set(r.post_mbps);
    m.gauge("rebuild/rebuild_ms").set(rebuild_ms);
    m.gauge("rebuild/throttle_wait_ms").set(throttle_wait_ms);
    m.gauge("rebuild/foreground_impact_pct").set(impact_pct);
    m.gauge("rebuild/reconstructed_mb").set(reconstructed_mb);
    bench::writeBenchJson(s.opts, s.dump,
                          "RAID-5 degraded service and online rebuild "
                          "(Cheops over Section 5.2 workload)",
                          nullptr, fleetHealthJson(phases));
    const bool ok = r.healthy_mbps > 0.0 && r.degraded_mbps > 0.0 &&
                    r.rebuild_window_mbps > 0.0 && r.post_mbps > 0.0 &&
                    !prog.active && prog.rows_done == prog.rows_total;
    return ok ? 0 : 1;
}

/**
 * --drives: scaling sweep past the paper's 8-drive ceiling. N drives,
 * N clients, 8 MB of dataset per drive so the scan reaches steady
 * state at every size without the load phase dominating. NFS is
 * omitted — the single-server bottleneck is the point of Figure 9;
 * this mode asks what limits *NASD*.
 */
int
driveSweepMain(const Scenario &s)
{
    bench::banner(
        "fig9_mining --drives — NASD scaling beyond the paper's 8 "
        "drives",
        "scaling sweep (8 MB/drive, N clients on N drives)");
    if (s.slow_drive >= 0)
        printSlowDrive(s, "",
                       "; drive caches shrunk to 2 MB so the scan hits "
                       "media");

    constexpr std::uint64_t kScaleBytesPerDrive = 8 * kMB;
    const int largest =
        *std::max_element(s.drive_counts.begin(), s.drive_counts.end());
    std::map<std::string, OpBreakdown> breakdown;
    // One fleet rollup per drive count (keyed by count, so the
    // "fleet_rollups" JSON section is ordered and deterministic);
    // the largest run also gets the time series.
    std::map<int, util::FleetRollup> rollups;
    util::TimeSeries timeseries(kSampleInterval);
    // Scope the journal so kDriveSlowdown / kStragglerSuspect events
    // land in a fresh journal this mode can dump via --journal.
    util::FlightRecorderScope flight;

    std::printf("\n%7s %12s %16s %16s\n", "disks", "NASD MB/s",
                "MB/s per drive", "sim events");
    bool all_deliver = true;
    for (const int n : s.drive_counts) {
        NasdRunExtras extras;
        extras.fleet = &rollups[n];
        rig::ClusterSpec spec{.drives = n};
        if (s.slow_drive >= 0) {
            if (s.slow_drive < n) {
                spec.slow_drive = s.slow_drive;
                spec.slow_factor = s.slow_factor;
            }
            // Shrink the drive cache below the 8 MB/drive working
            // set so the scan streams from media; otherwise every
            // read is a RAM hit and the mechanical fault is
            // invisible. Uniform across drives, so the straggler
            // comparison stays fair.
            spec.drive_cache_bytes = 2 * kMB;
        }
        if (n == largest) {
            extras.breakdown = &breakdown;
            extras.timeseries = &timeseries;
        }
        const std::uint64_t before = sim::Simulator::totalEventsExecuted();
        const auto r = runNasd(
            spec, static_cast<std::uint64_t>(n) * kScaleBytesPerDrive,
            nullptr, &extras);
        const std::uint64_t events =
            sim::Simulator::totalEventsExecuted() - before;
        record("nasd", n, r.aggregate_mbs, "fig9_scale");
        recordFleetGauges(rollups[n], "fig9_scale/fleet/" +
                                          std::to_string(n) +
                                          "_disks_read");
        std::printf("%7d %12.1f %16.2f %16llu\n", n, r.aggregate_mbs,
                    r.aggregate_mbs / n,
                    static_cast<unsigned long long>(events));
        all_deliver = all_deliver && r.aggregate_mbs > 0.0;
    }

    const bool reconciled = printBreakdown(
        std::to_string(largest) + "-drive run", breakdown);

    // Straggler gate: with --slow-drive the rollup of every count
    // big enough to flag must name exactly the slowed drive; every
    // other rollup must be clean.
    bool stragglers_ok = true;
    if (s.slow_drive >= 0) {
        const std::string expect = "nasd" + std::to_string(s.slow_drive);
        std::printf("\nstraggler detection — expected suspect: %s\n",
                    expect.c_str());
        for (const auto &[n, roll] : rollups) {
            const std::set<std::string> flagged = stragglerNames(roll);
            const bool flaggable =
                s.slow_drive < n &&
                n >= static_cast<int>(util::FleetRollup::kMinInstances);
            const std::set<std::string> want =
                flaggable ? std::set<std::string>{expect}
                          : std::set<std::string>{};
            std::string got = "(none)";
            if (!flagged.empty()) {
                got.clear();
                for (const auto &name : flagged)
                    got += (got.empty() ? "" : ", ") + name;
            }
            const bool ok = flagged == want;
            std::printf("  %3d drives: flagged %s — %s\n", n, got.c_str(),
                        ok ? "ok" : "WRONG");
            stragglers_ok = stragglers_ok && ok;
        }
        std::printf("straggler rollup names the slowed drive and "
                    "only it: %s\n",
                    stragglers_ok ? "yes" : "NO (BUG)");
    }

    writeJournal(s.opts, flight.recorder());

    // Every drive count's rollup rides along; the top-level
    // fleet_rollup section carries the largest run's (the one the
    // dashboard pairs with the time series).
    std::string rollups_json = ", \"fleet_rollups\": {";
    bool first = true;
    for (const auto &[n, roll] : rollups) {
        if (!first)
            rollups_json += ", ";
        first = false;
        rollups_json += "\"" + std::to_string(n) + "\": " + roll.toJson();
    }
    rollups_json += "}";
    bench::writeBenchJson(s.opts, s.dump,
                          "scaling sweep past Figure 9 (8 MB/drive)",
                          &timeseries, rollups_json,
                          rollups[largest].toJson());
    return all_deliver && reconciled && stragglers_ok ? 0 : 1;
}

/**
 * --trace: a short 4-drive scan with the tracer installed, small
 * enough that the timeline stays readable. The Chrome trace shows
 * each client read fanning out pfs -> cheops -> per-drive nasd/drive
 * spans.
 */
int
traceMain(const Scenario &s)
{
    bench::banner(
        "fig9_mining --trace — causal timeline of a 4-drive NASD scan",
        kReference);
    bench::BenchTracer tracer(s.opts);
    const auto traced = runNasd({.drives = 4}, 16 * kMB);
    std::printf("\ntraced scan: %.1f MB/s aggregate over 4 drives\n",
                traced.aggregate_mbs);
    // BenchTracer writes the timeline on destruction.
    return printFanout(tracer.tracer()) > 0 ? 0 : 1;
}

/** The Figure 9 table: NASD, NFS and NFS-parallel at 1..8 drives. */
int
tableMain(const Scenario &s)
{
    bench::banner(
        "fig9_mining — parallel frequent-sets scaling, 300MB dataset",
        kReference);

    std::printf("\n%7s %12s %12s %16s\n", "disks", "NASD MB/s",
                "NFS MB/s", "NFS-parallel MB/s");

    // The 8-drive run is sampled into a fixed-interval time series
    // that rides along in BENCH_fig9.json (the poller does not perturb
    // the event schedule, so the printed table is unaffected). Its
    // fleet rollup becomes the dump's fleet_rollup section and the
    // fig9/fleet read-tail gauges.
    util::TimeSeries timeseries(kSampleInterval);
    util::FleetRollup fleet;
    NasdRunExtras sampled;
    sampled.timeseries = &timeseries;
    sampled.fleet = &fleet;
    if (s.slow_drive >= 0) {
        NASD_ASSERT(s.slow_drive < 8,
                    "--slow-drive: fig9's sampled run has 8 drives");
        printSlowDrive(s, " in the 8-drive run", "");
    }

    datasetChunks().memoize();
    apps::ItemCounts reference;
    bool counts_agree = true;
    for (const int n : {1, 2, 4, 6, 8}) {
        rig::ClusterSpec spec{.drives = n};
        if (n == 8) {
            spec.slow_drive = s.slow_drive;
            spec.slow_factor = s.slow_factor;
        }
        const auto nasd = runNasd(spec, kDatasetBytes, nullptr,
                                  n == 8 ? &sampled : nullptr);
        const auto nfs = runNfs(n, false);
        const auto nfsp = runNfs(n, true);
        record("nasd", n, nasd.aggregate_mbs);
        record("nfs", n, nfs.aggregate_mbs);
        record("nfs_parallel", n, nfsp.aggregate_mbs);
        std::printf("%7d %12.1f %12.1f %16.1f\n", n, nasd.aggregate_mbs,
                    nfs.aggregate_mbs, nfsp.aggregate_mbs);
        if (reference.empty())
            reference = nasd.counts;
        counts_agree = counts_agree && nasd.counts == reference &&
                       nfs.counts == reference &&
                       nfsp.counts == reference;
    }

    std::printf("\nitemset counts identical across all configurations: "
                "%s\n",
                counts_agree ? "yes" : "NO (BUG)");
    std::printf("\nPaper anchors: NASD linear at ~6.2 MB/s per "
                "client-drive pair to ~45 MB/s at 8 drives;\nNFS "
                "plateaus near 20.2 MB/s (readahead defeated by "
                "interleaved streams);\nNFS-parallel plateaus near "
                "22.5 MB/s (server CPU/interface limit).\n");

    recordFleetGauges(fleet, "fig9/fleet/read");
    bench::writeBenchJson(s.opts, s.dump, kReference, &timeseries, {},
                          fleet.toJson());
    return counts_agree ? 0 : 1;
}

/** Parse argv: the mode flags and --slow-drive here, everything else
 *  through the shared bench options. */
Scenario
parseScenario(int argc, char **argv)
{
    Scenario s;
    std::vector<char *> shared{argv[0]};
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (arg == "--fault-sweep") {
            s.mode = faultSweepMain;
        } else if (arg == "--breakdown") {
            s.mode = breakdownMain;
        } else if (arg == "--kill-drive") {
            s.mode = killDriveMain;
            s.dump = "rebuild";
        } else if (arg == "--drives" && has_value) {
            s.mode = driveSweepMain;
            s.dump = "fig9_scale";
            const std::string list = argv[++i];
            for (std::size_t pos = 0; pos < list.size();) {
                const auto comma = std::min(list.find(',', pos), list.size());
                const int n = std::stoi(list.substr(pos, comma - pos));
                NASD_ASSERT(n > 0, "--drives: counts must be positive");
                s.drive_counts.push_back(n);
                pos = comma + 1;
            }
        } else if (arg == "--slow-drive" && has_value) {
            const std::string spec = argv[++i];
            const auto comma = spec.find(',');
            NASD_ASSERT(comma != std::string::npos,
                        "--slow-drive expects N,factor (e.g. 3,3.0)");
            s.slow_drive = std::stoi(spec.substr(0, comma));
            s.slow_factor = std::stod(spec.substr(comma + 1));
            NASD_ASSERT(s.slow_drive >= 0,
                        "--slow-drive: drive index must be >= 0");
            NASD_ASSERT(s.slow_factor >= 1.0,
                        "--slow-drive: factor must be >= 1.0");
        } else {
            shared.push_back(argv[i]);
        }
    }
    s.opts = bench::parseOptions(s.dump, static_cast<int>(shared.size()),
                                 shared.data());
    if (s.mode == tableMain && !s.opts.trace_path.empty())
        s.mode = traceMain;
    return s;
}

} // namespace

int
main(int argc, char **argv)
{
    const Scenario s = parseScenario(argc, argv);
    return s.mode(s);
}
