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
 * totals across configurations, and every read must deliver its bytes.
 *
 * Each mode (the table, --fault-sweep, --breakdown, --kill-drive,
 * --drives N[,N...], a bare --trace PATH) is a Spec, a plain value that
 * runSpec runs through one loop over drive counts and one report.
 * --json PATH, --no-json and --journal PATH apply to every mode;
 * --slow-drive N,factor and --trace PATH to every mode but
 * --kill-drive. Anything else exits 2 with a usage line. Every NASD
 * configuration is a rig::NasdCluster (rig/cluster.h).
 */
#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
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
#include "util/trace.h"
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
 * Chunk @p index of the seeded dataset every loader writes; it depends
 * only on (seed, index). With @p keep the chunk is generated once and
 * kept for the process's life: a spec with a fixed dataset (the table
 * loads the same 300 MB into each of its fifteen configurations) keeps
 * its chunks. Otherwise the bytes stay valid until the next call.
 */
std::span<const std::uint8_t>
datasetChunk(std::uint64_t index, bool keep)
{
    static apps::TransactionGenerator gen(
        apps::DatasetParams{.catalog_items = kCatalogItems});
    static std::vector<std::uint8_t> scratch;
    static std::vector<std::vector<std::uint8_t>> kept;
    if (!keep) {
        scratch = gen.chunk(index);
        return scratch;
    }
    if (index >= kept.size())
        kept.resize(index + 1);
    if (kept[index].empty())
        kept[index] = gen.chunk(index);
    return kept[index];
}

struct RunResult
{
    double aggregate_mbs = 0; ///< delivered bytes over the scan's time
    std::uint64_t rpc_timeouts = 0;
    std::uint64_t delivered_bytes = 0; ///< bytes the reads returned
    std::uint64_t failed_reads = 0;    ///< reads that returned an error
    apps::ItemCounts counts;
};

/** Await one client read (a PFS or an NFS one) and count its outcome
 *  into @p run: the bytes it returned, or one failed read. */
template <typename ReadTask>
sim::Task<void>
countRead(ReadTask read, RunResult &run)
{
    const auto r = co_await read;
    if (r.ok())
        run.delivered_bytes += r.value();
    else
        ++run.failed_reads;
}

/** Mining worker: scan [first_chunk, ...) with stride, reading through
 *  `read` (counted into `run`), counting on `cpu`, merging into
 *  `counts`. */
template <typename ReadFn>
sim::Task<void>
mineChunks(sim::Simulator &sim, sim::CpuResource &cpu, ReadFn read,
           std::uint64_t total_chunks, std::uint64_t first_chunk,
           std::uint64_t stride, apps::ItemCounts &counts, RunResult &run)
{
    std::vector<std::uint8_t> chunk(apps::kChunkBytes);
    for (std::uint64_t c = first_chunk; c < total_chunks; c += stride) {
        // Producers: the chunk arrives as parallel 512 KB reads.
        std::vector<sim::Task<void>> producers;
        for (std::uint64_t off = 0; off < apps::kChunkBytes;
             off += kReadBytes) {
            producers.push_back(countRead(
                read(c * apps::kChunkBytes + off,
                     std::span<std::uint8_t>(chunk.data() + off,
                                             kReadBytes)),
                run));
        }
        co_await sim::parallelAll(sim, std::move(producers));

        // Consumer: the counting kernel.
        co_await cpu.executeAt(
            static_cast<std::uint64_t>(apps::kCountingCyclesPerByte *
                                       apps::kChunkBytes),
            1.0);
        apps::mergeCounts(counts,
                          apps::countOneItemsets(chunk, kCatalogItems));
    }
}

/** Merge the clients' partial counts into @p r and turn its delivered
 *  bytes into MB/s over the scan, which ends at the last real event
 *  (a poller rounds the final clock up to its interval boundary). */
void
finishRun(RunResult &r, const std::vector<apps::ItemCounts> &partials,
          const sim::Simulator &sim, sim::Tick start)
{
    r.counts.assign(kCatalogItems, 0);
    for (const auto &partial : partials)
        apps::mergeCounts(r.counts, partial);
    r.aggregate_mbs = util::bytesPerSecToMBs(
        static_cast<double>(r.delivered_bytes) /
        sim::toSeconds(sim.lastEventTime() - start));
}

/** Per-op-class latency decomposition aggregated across all drives. */
struct OpBreakdown
{
    std::uint64_t count = 0;
    double measured_ns = 0; ///< sum of end-to-end op latencies
    std::array<std::uint64_t, util::kResourceClassCount> wait_ns{};
    std::array<std::uint64_t, util::kResourceClassCount> service_ns{};
    std::uint64_t other_ns = 0; ///< elapsed no phase claimed
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

// ---------------------------------------------------------------- specs

/** The printed values of one drive count's runs. */
struct Row
{
    double nasd = 0; ///< MB/s
    double nfs = 0;
    double nfs_parallel = 0;
    double per_drive = 0; ///< NASD MB/s per drive
    double rpc_timeouts = 0;
    double events = 0; ///< simulator events of the NASD run
};

/** One column of a drive-count table, after "disks". */
struct Column
{
    const char *name;
    int width;
    int precision;
    double Row::*value;
};

/**
 * One fig9_mining mode as a plain value; runSpec runs it. The time
 * series, breakdown and tracer come from the largest run, and so do
 * the fleet gauges and the --slow-drive fault unless `fleet_sweep`; a
 * traced breakdown also prints the tail exemplars. Gates: every run
 * delivers every byte (always), the item counts agree across runs
 * (with a verdict), the breakdown reconciles, the traced fan-out has
 * pfs/read roots, and the straggler rollups name the slowed drive and
 * only it (fleet_sweep).
 */
struct Spec
{
    const char *title;
    const char *subtitle;         ///< the banner's "Reproduces:" line
    const char *dump;             ///< BENCH_<dump>.json, "<dump>/" gauges
    const char *dump_reference;   ///< the dump's "reference"
    bool dump_by_default = false; ///< else only with --json PATH
    bool kill_drive = false;      ///< runKillDrive, not drive counts
    std::vector<int> drive_counts{};
    std::uint64_t dataset_bytes = 0;
    bool bytes_per_drive = false; ///< dataset_bytes per drive, not fixed
    std::optional<net::FaultPlan> faults{}; ///< set after the load
    bool nfs = false; ///< NFS and NFS-parallel runs beside each NASD one
    std::vector<Column> columns{}; ///< empty: one scan line per run
    const char *scan_label = nullptr;
    bool timeseries = false;
    const char *breakdown = nullptr; ///< its scope; %d: the drive count
    bool tracer = false;             ///< critical-path fan-out
    const char *verdict = nullptr;  ///< "<verdict>: yes" after the rows
    const char *footnote = nullptr; ///< printed after the verdict
    /// Every run's fleet rollup is reported, and --slow-drive hits every
    /// run with more than N drives and shrinks every run's drive caches
    /// to 2 MB so the scan hits media.
    bool fleet_sweep = false;
    int slow_drive = -1; ///< --slow-drive N,factor
    double slow_factor = 1.0;
};

/** What a spec's runs leave for its report. */
struct Measured
{
    util::TimeSeries timeseries{kSampleInterval};
    std::map<int, util::FleetRollup> rollups{}; ///< by drive count
    std::map<std::string, OpBreakdown> breakdown{};
    util::Tracer tracer{};
    std::string extra_json{}; ///< extra BENCH json sections
};

// ------------------------------------------------------------------ NASD

/** One NASD configuration: load @p dataset_bytes into PFS file "sales"
 *  on @p cluster_spec's cluster, then one client per drive mines it
 *  round-robin. @p largest marks @p spec's largest run, which decides
 *  the outputs it records into @p m. */
RunResult
runNasd(const Spec &spec, const rig::ClusterSpec &cluster_spec,
        std::uint64_t dataset_bytes, bool largest, Measured &m)
{
    const util::MetricsScope run_metrics;
    rig::NasdCluster cluster(cluster_spec);
    sim::Simulator &sim = cluster.sim;
    const int n = cluster_spec.drives;

    const std::uint64_t chunks = dataset_bytes / apps::kChunkBytes;
    const auto handle = cluster.loadPfsFile(
        "sales", chunks,
        [&spec](std::uint64_t c) {
            return datasetChunk(c, !spec.bytes_per_drive);
        });
    const auto clients = cluster.openPfsClients(n, "sales");
    std::vector<apps::ItemCounts> partials(
        n, apps::ItemCounts(kCatalogItems, 0));

    // Faults start after the (untimed) load and opens: the sweep
    // measures the data path's tolerance, not the loader's.
    if (spec.faults)
        cluster.net.setFaultPlan(*spec.faults);

    RunResult result;
    const sim::Tick start = sim.now();
    for (int i = 0; i < n; ++i) {
        auto *client = clients[i].get();
        sim.spawn(mineChunks(
            sim, client->node().cpu(),
            [client, handle](std::uint64_t off, std::span<std::uint8_t> out) {
                return client->read(handle, off, out);
            },
            chunks, static_cast<std::uint64_t>(i), n, partials[i], result));
    }
    if (spec.timeseries && largest) {
        // Interval-sampled run: same event schedule as sim.run(), plus
        // one TimeSeries sample per boundary.
        sim::StatsPoller poller(sim, m.timeseries, kSampleInterval);
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
    finishRun(result, partials, sim, start);
    for (const auto &client : clients)
        result.rpc_timeouts += client->node().rpc_timeouts.value();
    if (spec.breakdown != nullptr && largest)
        collectBreakdown(m.breakdown);
    // Collected here, inside the run's MetricsScope, because the
    // per-drive instruments die with it; stragglers go to the flight
    // recorder so the journal names the suspect drive.
    auto &fleet = m.rollups[n] = util::FleetRollup::collect(util::metrics());
    fleet.journalStragglers(static_cast<std::uint64_t>(sim.lastEventTime()));
    return result;
}

// ------------------------------------------------------------------- NFS

/** One NFS configuration: @p dataset_bytes on one file striped over n
 *  disks behind the server or, with @p parallel_files, one replica
 *  slice per client on independent disks. */
RunResult
runNfs(int n, bool parallel_files, std::uint64_t dataset_bytes)
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
    const std::uint64_t chunks = dataset_bytes / apps::kChunkBytes;

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
                               datasetChunk(c * n_files + f, true)));
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
    RunResult result;
    const sim::Tick start = sim.now();
    for (int i = 0; i < n_clients; ++i) {
        auto *client = clients[i].get();
        const int f = i % n_files;
        const fs::NfsFileHandle fh = files[f];
        sim.spawn(mineChunks(
            sim, client->node().cpu(),
            [client, fh](std::uint64_t off, std::span<std::uint8_t> out) {
                return client->read(fh, off, out);
            },
            file_chunks[f], static_cast<std::uint64_t>(i / n_files),
            static_cast<std::uint64_t>(n_clients / n_files), partials[i],
            result));
    }
    sim.run();
    finishRun(result, partials, sim, start);
    return result;
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
                                datasetChunk(c, false)));
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

/** With --slow-drive, the rollup of every drive count big enough to
 *  flag must name exactly the slowed drive; every other rollup must be
 *  clean. @return true if every rollup did. */
bool
printStragglers(const Spec &spec,
                const std::map<int, util::FleetRollup> &rollups)
{
    const std::string expect = "nasd" + std::to_string(spec.slow_drive);
    std::printf("\nstraggler detection — expected suspect: %s\n",
                expect.c_str());
    bool all_ok = true;
    for (const auto &[n, roll] : rollups) {
        std::set<std::string> flagged;
        for (const auto *suspect : roll.stragglers())
            flagged.insert(suspect->instance);
        const bool flaggable =
            spec.slow_drive < n &&
            n >= static_cast<int>(util::FleetRollup::kMinInstances);
        const std::set<std::string> want =
            flaggable ? std::set<std::string>{expect}
                      : std::set<std::string>{};
        std::string got;
        for (const auto &name : flagged)
            got += (got.empty() ? "" : ", ") + name;
        const bool ok = flagged == want;
        std::printf("  %3d drives: flagged %s — %s\n", n,
                    got.empty() ? "(none)" : got.c_str(), ok ? "ok" : "WRONG");
        all_ok = all_ok && ok;
    }
    std::printf("straggler rollup names the slowed drive and "
                "only it: %s\n",
                all_ok ? "yes" : "NO (BUG)");
    return all_ok;
}

// ------------------------------------------------------------- the specs

constexpr Column kNasdMbps{"NASD MB/s", 12, 1, &Row::nasd};

/** The Figure 9 table: NASD, NFS and NFS-parallel at 1..8 drives. The
 *  poller leaves the event schedule alone, so sampling the 8-drive run
 *  does not change the table. */
const Spec kTable{
    .title = "fig9_mining — parallel frequent-sets scaling, 300MB dataset",
    .subtitle = kReference,
    .dump = "fig9",
    .dump_reference = kReference,
    .dump_by_default = true,
    .drive_counts = {1, 2, 4, 6, 8},
    .dataset_bytes = kDatasetBytes,
    .nfs = true,
    .columns = {kNasdMbps,
                {"NFS MB/s", 12, 1, &Row::nfs},
                {"NFS-parallel MB/s", 16, 1, &Row::nfs_parallel}},
    .timeseries = true,
    .verdict = "itemset counts identical across all configurations",
    .footnote = "\nPaper anchors: NASD linear at ~6.2 MB/s per "
                "client-drive pair to ~45 MB/s at 8 drives;\nNFS "
                "plateaus near 20.2 MB/s (readahead defeated by "
                "interleaved streams);\nNFS-parallel plateaus near "
                "22.5 MB/s (server CPU/interface limit).\n",
};

const Spec kFaultSweep{
    .title = "fig9_mining --fault-sweep — NASD scan under a lossy network",
    .subtitle = "fault-injection sweep (drop 1%, duplicate 0.5%, delay 1%)",
    .dump = "fig9_faults",
    .dump_reference = "NASD scan under a lossy network",
    .drive_counts = {1, 2, 4, 6, 8},
    .dataset_bytes = 32 * kMB,
    .faults = net::FaultPlan{.drop_probability = 0.01,
                             .duplicate_probability = 0.005,
                             .delay_probability = 0.01,
                             .delay_min = 0,
                             .delay_max = sim::msec(2),
                             .seed = 1998},
    .columns = {kNasdMbps, {"rpc timeouts", 14, 0, &Row::rpc_timeouts}},
    .verdict = "every drive count delivered data under faults",
};

const Spec kBreakdown{
    .title = "fig9_mining --breakdown — where did the time go, 8-drive "
             "NASD scan",
    .subtitle = "latency attribution + critical path (Section 5.2 workload)",
    .dump = "fig9_breakdown",
    .dump_reference = "where did the time go, 8-drive NASD scan",
    .drive_counts = {8},
    .dataset_bytes = 32 * kMB,
    .scan_label = "scan",
    .breakdown = "all %d drives",
    .tracer = true,
};

const Spec kKillDrive{
    .title = "fig9_mining --kill-drive — RAID-5 scan with a mid-run drive "
             "failure and online rebuild",
    .subtitle = "Section 5.2 workload over parity-striped Cheops (degraded "
                "service + rebuild onto a spare)",
    .dump = "rebuild",
    .dump_reference = "RAID-5 degraded service and online rebuild "
                      "(Cheops over Section 5.2 workload)",
    .dump_by_default = true,
    .kill_drive = true,
};

/** --drives: scaling past the paper's 8 drives, N clients on N drives
 *  with 8 MB of dataset per drive, so the scan reaches steady state at
 *  every size without the load phase dominating. NFS is left out: this
 *  mode asks what limits NASD. */
const Spec kDriveSweep{
    .title = "fig9_mining --drives — NASD scaling beyond the paper's 8 "
             "drives",
    .subtitle = "scaling sweep (8 MB/drive, N clients on N drives)",
    .dump = "fig9_scale",
    .dump_reference = "scaling sweep past Figure 9 (8 MB/drive)",
    .dump_by_default = true,
    .dataset_bytes = 8 * kMB,
    .bytes_per_drive = true,
    .columns = {kNasdMbps,
                {"MB/s per drive", 16, 2, &Row::per_drive},
                {"sim events", 16, 0, &Row::events}},
    .timeseries = true,
    .breakdown = "%d-drive run",
    .fleet_sweep = true,
};

/** --trace: a 4-drive scan small enough for a readable timeline; each
 *  client read fans out pfs -> cheops -> per-drive nasd/drive spans. */
const Spec kTrace{
    .title = "fig9_mining --trace — causal timeline of a 4-drive NASD scan",
    .subtitle = kReference,
    .dump = "fig9_trace",
    .dump_reference = kReference,
    .drive_counts = {4},
    .dataset_bytes = 16 * kMB,
    .scan_label = "traced scan",
    .tracer = true,
};

// -------------------------------------------------------- run and report

void
printSlowDrive(const Spec &spec, const std::string &scope, const char *note)
{
    std::printf("\nfault: drive nasd%d mechanical time scaled %.1fx%s "
                "(--slow-drive)%s\n",
                spec.slow_drive, spec.slow_factor, scope.c_str(), note);
}

/**
 * The one loop over drive counts: run each count, print its row,
 * record its gauges and fold the delivery and count gates.
 * @return true if every run delivered every byte and, where the spec
 * asks, the item counts agree.
 */
bool
runDriveCounts(const Spec &spec, int largest, Measured &m)
{
    const bool slowed = spec.slow_drive >= 0;
    if (slowed && spec.fleet_sweep)
        printSlowDrive(spec, "",
                       "; drive caches shrunk to 2 MB so the scan hits "
                       "media");
    if (!spec.columns.empty()) {
        std::printf("\n%7s", "disks");
        for (const Column &c : spec.columns)
            std::printf(" %*s", c.width, c.name);
        std::printf("\n");
    }
    if (slowed && !spec.fleet_sweep)
        printSlowDrive(
            spec, " in the " + std::to_string(largest) + "-drive run", "");

    apps::ItemCounts reference;
    bool ok = true;
    for (const int n : spec.drive_counts) {
        const bool at_largest = n == largest;
        const std::uint64_t bytes =
            spec.dataset_bytes *
            (spec.bytes_per_drive ? static_cast<std::uint64_t>(n) : 1);
        rig::ClusterSpec cluster{.drives = n};
        // Below the 8 MB/drive working set, so the scan streams from
        // media and the mechanical fault shows; uniform across drives,
        // so the straggler comparison stays fair.
        if (slowed && spec.fleet_sweep)
            cluster.drive_cache_bytes = 2 * kMB;
        if (slowed && (spec.fleet_sweep ? spec.slow_drive < n : at_largest)) {
            cluster.slow_drive = spec.slow_drive;
            cluster.slow_factor = spec.slow_factor;
        }

        const std::uint64_t before = sim::Simulator::totalEventsExecuted();
        // Installed across runNasd, so it also sees the teardown drain.
        if (spec.tracer && at_largest)
            util::setTracer(&m.tracer);
        const RunResult nasd = runNasd(spec, cluster, bytes, at_largest, m);
        util::setTracer(nullptr);
        Row row{.nasd = nasd.aggregate_mbs,
                .per_drive = nasd.aggregate_mbs / n,
                .rpc_timeouts = static_cast<double>(nasd.rpc_timeouts),
                .events = static_cast<double>(
                    sim::Simulator::totalEventsExecuted() - before)};
        std::vector<std::pair<const char *, RunResult>> runs{{"nasd", nasd}};
        if (spec.nfs) {
            runs.emplace_back("nfs", runNfs(n, false, bytes));
            runs.emplace_back("nfs_parallel", runNfs(n, true, bytes));
            row.nfs = runs[1].second.aggregate_mbs;
            row.nfs_parallel = runs[2].second.aggregate_mbs;
        }
        if (spec.columns.empty()) {
            std::printf("\n%s: %.1f MB/s aggregate over %d drives\n",
                        spec.scan_label, row.nasd, n);
        } else {
            std::printf("%7d", n);
            for (const Column &c : spec.columns)
                std::printf(" %*.*f", c.width, c.precision, row.*c.value);
            std::printf("\n");
        }

        if (reference.empty())
            reference = nasd.counts;
        for (const auto &[series, r] : runs) {
            util::metrics()
                .gauge(std::string(spec.dump) + "/" + series + "/" +
                       std::to_string(n) + "_disks_mbps")
                .set(r.aggregate_mbs);
            const bool agree = r.counts == reference;
            if (r.failed_reads == 0 && r.delivered_bytes == bytes &&
                (agree || spec.verdict == nullptr))
                continue;
            std::printf("  %d drives (%s): %llu failed reads, %llu of %llu "
                        "bytes delivered, item counts %s\n",
                        n, series,
                        static_cast<unsigned long long>(r.failed_reads),
                        static_cast<unsigned long long>(r.delivered_bytes),
                        static_cast<unsigned long long>(bytes),
                        agree ? "agree" : "DIFFER");
            ok = false;
        }
        if (spec.fleet_sweep || at_largest)
            recordFleetGauges(m.rollups[n],
                              std::string(spec.dump) + "/fleet/" +
                                  (spec.fleet_sweep
                                       ? std::to_string(n) + "_disks_read"
                                       : "read"));
    }
    if (spec.verdict != nullptr)
        std::printf("\n%s: %s\n", spec.verdict, ok ? "yes" : "NO (BUG)");
    if (spec.footnote != nullptr)
        std::printf("%s", spec.footnote);
    return ok;
}

/** Print the kill-drive phase and fleet-health tables, record its
 *  gauges and leave its fleet_health json section in @p m.
 *  @return true if every phase moved data and the rebuild completed. */
bool
reportKillDrive(const KillDriveResult &r, const util::FlightRecorder &fr,
                Measured &m)
{
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

    // Event-kind counts per phase: every journaled event between a
    // kPhaseBegin and its kPhaseEnd (setup and drain fall outside).
    std::vector<std::pair<std::string, std::map<std::string, std::uint64_t>>>
        phases;
    bool in_phase = false;
    for (const auto &entry : fr.merged()) {
        const auto kind = entry.second->kind;
        if (kind == util::FrEvent::kPhaseBegin)
            phases.emplace_back(entry.second->detail,
                                std::map<std::string, std::uint64_t>{});
        else if (in_phase && kind != util::FrEvent::kPhaseEnd)
            ++phases.back().second[util::frEventName(kind)];
        if (kind == util::FrEvent::kPhaseBegin ||
            kind == util::FrEvent::kPhaseEnd)
            in_phase = kind == util::FrEvent::kPhaseBegin;
    }
    std::printf("\nfleet health — journal events per phase:\n");
    std::printf("  %-14s %8s %10s %10s %10s %8s\n", "phase", "events",
                "degr_read", "degr_write", "write_thru", "fences");
    std::string json;
    for (const auto &[name, counts] : phases) {
        std::uint64_t total = 0;
        std::string events;
        for (const auto &[kind, n] : counts) {
            total += n;
            events += (events.empty() ? "\"" : ", \"") + kind +
                      "\": " + std::to_string(n);
        }
        json += (json.empty() ? "{\"name\": \"" : ", {\"name\": \"") +
                name + "\", \"events\": {" + events + "}}";
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
    m.extra_json = ", \"fleet_health\": {\"phases\": [" + json + "]}";

    auto &g = util::metrics();
    g.gauge("rebuild/healthy_mbps").set(r.healthy_mbps);
    g.gauge("rebuild/degraded_mbps").set(r.degraded_mbps);
    g.gauge("rebuild/during_rebuild_mbps").set(r.rebuild_window_mbps);
    g.gauge("rebuild/post_rebuild_mbps").set(r.post_mbps);
    g.gauge("rebuild/rebuild_ms").set(rebuild_ms);
    g.gauge("rebuild/throttle_wait_ms").set(throttle_wait_ms);
    g.gauge("rebuild/foreground_impact_pct").set(impact_pct);
    g.gauge("rebuild/reconstructed_mb").set(reconstructed_mb);
    return r.healthy_mbps > 0.0 && r.degraded_mbps > 0.0 &&
           r.rebuild_window_mbps > 0.0 && r.post_mbps > 0.0 &&
           !prog.active && prog.rows_done == prog.rows_total;
}

/**
 * Run @p spec, then its one report: the breakdown, fan-out, tail
 * exemplars and straggler table where the spec has them, the journal
 * (--journal), the BENCH json and the Chrome trace (--trace).
 * @return the exit status, 0 if every gate held.
 */
int
runSpec(const Spec &spec, const bench::BenchOptions &opts)
{
    bench::banner(spec.title, spec.subtitle);
    // Installed before any run builds its Network (NetNodes cache their
    // journal at construction), so the journal holds this spec's runs.
    util::FlightRecorderScope flight;
    const util::FlightRecorder &fr = flight.recorder();
    const int largest =
        spec.kill_drive ? 0 : std::ranges::max(spec.drive_counts);
    Measured m;
    bool ok = spec.kill_drive ? reportKillDrive(runKillDrive(), fr, m)
                              : runDriveCounts(spec, largest, m);

    if (spec.breakdown != nullptr) {
        char scope[64];
        std::snprintf(scope, sizeof scope, spec.breakdown, largest);
        ok = printBreakdown(scope, m.breakdown) && ok;
    }
    if (spec.tracer)
        ok = printFanout(m.tracer) > 0 && ok;
    if (spec.breakdown != nullptr && spec.tracer)
        printTailExemplars(fr, "read");
    if (spec.fleet_sweep && spec.slow_drive >= 0)
        ok = printStragglers(spec, m.rollups) && ok;

    if (!opts.journal_path.empty()) {
        fr.writeJson(opts.journal_path);
        std::printf("\nwrote %s (%llu journal events across %zu nodes)\n",
                    opts.journal_path.c_str(),
                    static_cast<unsigned long long>(fr.totalRecorded()),
                    fr.nodeCount());
    }
    // With a rollup per count all ride along; the top-level fleet_rollup
    // is the largest run's, which the dashboard pairs with the series.
    if (spec.fleet_sweep) {
        std::string rollups;
        for (const auto &[n, roll] : m.rollups)
            rollups += (rollups.empty() ? "\"" : ", \"") +
                       std::to_string(n) + "\": " + roll.toJson();
        m.extra_json += ", \"fleet_rollups\": {" + rollups + "}";
    }
    bench::writeBenchJson(
        opts, spec.dump, spec.dump_reference,
        spec.timeseries ? &m.timeseries : nullptr, m.extra_json,
        m.rollups.empty() ? std::string{} : m.rollups[largest].toJson());
    if (!opts.trace_path.empty()) {
        m.tracer.writeJson(opts.trace_path);
        std::printf("wrote %s (%zu spans) — load into chrome://tracing "
                    "or https://ui.perfetto.dev\n",
                    opts.trace_path.c_str(), m.tracer.spanCount());
    }
    return ok ? 0 : 1;
}

// ---------------------------------------------------------------- parse

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "fig9_mining: %s\n"
                 "usage: fig9_mining [--fault-sweep | --breakdown | "
                 "--kill-drive | --drives N[,N...]]\n"
                 "         [--slow-drive N,FACTOR] [--json PATH | "
                 "--no-json] [--trace PATH] [--journal PATH]\n",
                 why.c_str());
    std::exit(2);
}

/**
 * Pick the spec from the mode flag (the table without one, the trace
 * spec for a bare --trace) and adjust it with --drives, --slow-drive
 * and --trace; the shared flags fill @p opts. A second mode flag, a bad
 * value or a flag the spec cannot honour is a usage error.
 */
Spec
parseScenario(int argc, char **argv, bench::BenchOptions &opts)
{
    Spec spec = kTable;
    const char *mode = nullptr;
    std::optional<std::string> json; // --json PATH, or "" for --no-json
    int slow_drive = -1;
    double slow_factor = 1.0;
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        const auto value = [&]() -> std::string_view {
            if (i + 1 >= argc)
                usage(std::string(arg) + " needs a value");
            return argv[++i];
        };
        // All of `text` as a number of the type of `zero`.
        const auto number = [&arg](std::string_view text, auto zero) {
            const char *end = text.data() + text.size();
            const auto [stop, ec] = std::from_chars(text.data(), end, zero);
            if (ec != std::errc() || stop != end)
                usage(std::string(arg) + ": '" + std::string(text) +
                      "' is not a number");
            return zero;
        };
        const auto pick = [&](const Spec &picked) {
            if (mode != nullptr)
                usage(std::string(arg) + " conflicts with " + mode);
            mode = argv[i];
            spec = picked;
        };
        if (arg == "--fault-sweep") {
            pick(kFaultSweep);
        } else if (arg == "--breakdown") {
            pick(kBreakdown);
        } else if (arg == "--kill-drive") {
            pick(kKillDrive);
        } else if (arg == "--drives") {
            pick(kDriveSweep);
            const std::string_view list = value();
            for (std::size_t pos = 0; pos <= list.size();) {
                const auto comma = std::min(list.find(',', pos), list.size());
                const int n = number(list.substr(pos, comma - pos), 0);
                if (n <= 0)
                    usage("--drives: counts must be positive");
                spec.drive_counts.push_back(n);
                pos = comma + 1;
            }
        } else if (arg == "--slow-drive") {
            const std::string_view fault = value();
            const auto comma = std::min(fault.find(','), fault.size());
            slow_drive = number(fault.substr(0, comma), 0);
            slow_factor = number(fault.substr(std::min(comma + 1,
                                                       fault.size())),
                                 0.0);
            if (slow_drive < 0 || slow_factor < 1.0)
                usage("--slow-drive expects N,factor with N >= 0 and "
                      "factor >= 1.0 (e.g. 3,3.0)");
        } else if (arg == "--json") {
            json = value();
        } else if (arg == "--no-json") {
            json = "";
        } else if (arg == "--trace") {
            opts.trace_path = value();
        } else if (arg == "--journal") {
            opts.journal_path = value();
        } else {
            usage("unknown argument '" + std::string(arg) + "'");
        }
    }

    const bool traced = !opts.trace_path.empty();
    if (mode == nullptr && traced)
        spec = kTrace;
    if (spec.kill_drive && (traced || slow_drive >= 0))
        usage("--kill-drive takes neither --trace nor --slow-drive");
    spec.tracer = spec.tracer || traced;
    const int largest =
        spec.kill_drive ? 0 : std::ranges::max(spec.drive_counts);
    if (!spec.fleet_sweep && slow_drive >= largest)
        usage("--slow-drive: the largest run has " + std::to_string(largest) +
              " drives");
    spec.slow_drive = slow_drive;
    spec.slow_factor = slow_factor;
    opts.json_path = json.value_or(
        spec.dump_by_default ? "BENCH_" + std::string(spec.dump) + ".json"
                             : "");
    return spec;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::BenchOptions opts;
    const Spec spec = parseScenario(argc, argv, opts);
    return runSpec(spec, opts);
}
