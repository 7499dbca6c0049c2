/**
 * @file
 * Figure 6: NASD prototype bandwidth vs the local filesystem (FFS) and
 * the raw device, sequential reads (a) and writes (b).
 *
 * Measures apparent throughput (request size / response latency) for a
 * single requester issuing sequential requests of each size against:
 *
 *   raw        the 2-Medallist striping driver (32 KB stripe unit)
 *   NASD       the object store accessed by a local process
 *   FFS        the local filesystem on the same device
 *
 * in cache-hit and cache-miss variants. Expected shapes (paper): raw
 * read ~5 MB/s with readahead effective below ~128 KB; write-behind
 * makes raw writes appear faster (~7 MB/s); cached reads are
 * copy-limited (FFS ~48 MB/s beats NASD ~40 MB/s by one fewer copy,
 * both drooping past the 512 KB L2); miss reads favour NASD ~5 MB/s
 * over FFS ~2.5 MB/s (extent-sized vs cluster-sized disk I/O); FFS
 * writes ack early only up to 64 KB.
 */
#include <cstdio>
#include <functional>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "disk/disk_model.h"
#include "disk/striping.h"
#include "disk/params.h"
#include "fs/ffs/ffs.h"
#include "nasd/object_store.h"
#include "sim/resource.h"
#include "sim/simulator.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/units.h"

using namespace nasd;
using util::kKB;
using util::kMB;

namespace {

/// Local-access copy costs on the 133 MHz host (calibrated to the
/// paper's 48 MB/s FFS vs 40 MB/s NASD cached reads: NASD's object
/// access does one more copy).
constexpr double kFfsCopyCyclesPerByte = 2.77;
constexpr double kNasdCopyCyclesPerByte = 3.325;
constexpr std::uint64_t kL2Bytes = 384 * kKB;
constexpr double kL2Penalty = 1.35;
constexpr std::uint64_t kOpOverheadInstr = 4000;

constexpr std::uint64_t kBytesPerPoint = 4 * kMB;

/** Charge host CPU for a local data access of @p bytes. */
sim::Task<void>
chargeLocalCpu(sim::CpuResource &cpu, std::uint64_t bytes,
               double cycles_per_byte)
{
    co_await cpu.execute(kOpOverheadInstr);
    double effective = static_cast<double>(std::min(bytes, kL2Bytes));
    if (bytes > kL2Bytes)
        effective += static_cast<double>(bytes - kL2Bytes) * kL2Penalty;
    co_await cpu.executeAt(
        static_cast<std::uint64_t>(effective * cycles_per_byte), 1.0);
}

/** A measurement context: device + store + fs, rebuilt per series. */
struct Rig
{
    Rig()
        : d0(sim, disk::medallistParams()), d1(sim, disk::medallistParams()),
          stripe(sim, {&d0, &d1}, 32 * kKB),
          cpu(sim, "host", 133.0, 2.2)
    {}

    sim::Simulator sim;
    disk::DiskModel d0;
    disk::DiskModel d1;
    disk::StripingDriver stripe;
    sim::CpuResource cpu;
};

/** Measure apparent MB/s of `op(offset, size)` over sequential
 *  requests covering kBytesPerPoint, wrapping at @p wrap. */
double
sweepPoint(Rig &rig, std::uint64_t size, std::uint64_t wrap,
           const std::function<sim::Task<void>(std::uint64_t,
                                               std::uint64_t)> &op)
{
    const sim::Tick start = rig.sim.now();
    std::uint64_t moved = 0;
    std::uint64_t offset = 0;
    while (moved < kBytesPerPoint) {
        runTask(rig.sim, op(offset, size));
        moved += size;
        offset += size;
        if (offset + size > wrap)
            offset = 0;
    }
    const double secs = sim::toSeconds(rig.sim.now() - start);
    return util::bytesPerSecToMBs(static_cast<double>(moved) / secs);
}

std::vector<std::uint64_t>
sizes()
{
    return {16 * kKB, 32 * kKB, 64 * kKB, 128 * kKB, 256 * kKB,
            512 * kKB};
}

// --------------------------------------------------------------- raw

double
rawRead(std::uint64_t size)
{
    const util::MetricsScope rig_metrics;
    Rig rig;
    std::vector<std::uint8_t> buf(size);
    return sweepPoint(rig, size, 64 * kMB,
                      [&](std::uint64_t off, std::uint64_t n)
                          -> sim::Task<void> {
                          co_await rig.stripe.read(off / 512,
                                                   static_cast<std::uint32_t>(
                                                       n / 512),
                                                   buf);
                      });
}

double
rawWrite(std::uint64_t size)
{
    const util::MetricsScope rig_metrics;
    Rig rig;
    std::vector<std::uint8_t> buf(size, 5);
    return sweepPoint(rig, size, 64 * kMB,
                      [&](std::uint64_t off, std::uint64_t n)
                          -> sim::Task<void> {
                          co_await rig.stripe.write(
                              off / 512,
                              static_cast<std::uint32_t>(n / 512), buf);
                      });
}

// -------------------------------------------------------------- NASD

struct NasdRig : Rig
{
    explicit NasdRig(StoreConfig config = {}) : store(sim, stripe, config)
    {
        runTask(sim, store.format());
        auto part = store.createPartition(0, 512 * kMB);
        (void)part;
    }

    ObjectId
    makeObject(std::uint64_t bytes)
    {
        auto oid = runFor(sim, store.createObject(0, 0, nullptr));
        NASD_ASSERT(oid.ok(), "fig6 setup: createObject failed");
        std::vector<std::uint8_t> chunk(kMB, 7);
        for (std::uint64_t off = 0; off < bytes; off += kMB) {
            auto r = runFor(
                sim, store.write(0, oid.value(), off, chunk, nullptr));
            (void)r;
        }
        return oid.value();
    }

    ObjectStore store;
};

double
nasdRead(std::uint64_t size, bool hit)
{
    const util::MetricsScope rig_metrics;
    StoreConfig config;
    config.data_cache_bytes = hit ? 32 * kMB : 2 * kMB;
    NasdRig rig(config);
    const std::uint64_t object_bytes = hit ? 2 * kMB : 48 * kMB;
    const ObjectId oid = rig.makeObject(object_bytes);
    runTask(rig.sim, rig.store.flushAll());
    if (hit) {
        // Prime the drive cache.
        std::vector<std::uint8_t> all(object_bytes);
        (void)runFor(rig.sim, rig.store.read(0, oid, 0, all,
                                                    nullptr));
    }
    std::vector<std::uint8_t> buf(size);
    return sweepPoint(
        rig, size, object_bytes,
        [&](std::uint64_t off, std::uint64_t n) -> sim::Task<void> {
            auto r = co_await rig.store.read(
                0, oid, off, std::span<std::uint8_t>(buf.data(), n),
                nullptr);
            (void)r;
            co_await chargeLocalCpu(rig.cpu, n, kNasdCopyCyclesPerByte);
        });
}

double
nasdWrite(std::uint64_t size, bool hit)
{
    const util::MetricsScope rig_metrics;
    StoreConfig config;
    if (!hit)
        config.meta_cache_inodes = 1; // every op misses metadata
    NasdRig rig(config);
    const std::uint64_t object_bytes = 4 * kMB;
    const ObjectId a = rig.makeObject(object_bytes);
    const ObjectId b = rig.makeObject(object_bytes);
    std::vector<std::uint8_t> buf(size, 9);
    bool flip = false;
    return sweepPoint(
        rig, size, object_bytes,
        [&](std::uint64_t off, std::uint64_t n) -> sim::Task<void> {
            // Miss case alternates objects so metadata never stays
            // resident in the 1-inode cache.
            const ObjectId target = (hit || !flip) ? a : b;
            flip = !flip;
            auto r = co_await rig.store.write(
                0, target, off, std::span<const std::uint8_t>(buf.data(), n),
                nullptr);
            (void)r;
            co_await chargeLocalCpu(rig.cpu, n, kNasdCopyCyclesPerByte);
        });
}

// --------------------------------------------------------------- FFS

struct FfsRig : Rig
{
    explicit FfsRig(fs::FfsParams params = makeParams())
        : ffs(sim, stripe, &cpu, params)
    {
        runTask(sim, ffs.format());
    }

    static fs::FfsParams
    makeParams()
    {
        fs::FfsParams p;
        p.copy_cycles_per_byte = kFfsCopyCyclesPerByte;
        p.l2_bytes = kL2Bytes;
        p.l2_miss_copy_penalty = kL2Penalty;
        return p;
    }

    fs::InodeNum
    makeFile(const std::string &name, std::uint64_t bytes)
    {
        auto ino = runFor(sim, ffs.create(fs::kRootInode, name));
        NASD_ASSERT(ino.ok(), "fig6 setup: ffs create failed");
        std::vector<std::uint8_t> chunk(kMB, 7);
        for (std::uint64_t off = 0; off < bytes; off += kMB) {
            auto r = runFor(
                sim, ffs.write(ino.value(), off, chunk));
            (void)r;
        }
        return ino.value();
    }

    fs::FfsFileSystem ffs;
};

double
ffsRead(std::uint64_t size, bool hit)
{
    const util::MetricsScope rig_metrics;
    fs::FfsParams params = FfsRig::makeParams();
    params.buffer_cache_bytes = hit ? 32 * kMB : 2 * kMB;
    FfsRig rig(params);
    const std::uint64_t file_bytes = hit ? 2 * kMB : 48 * kMB;
    const auto ino = rig.makeFile("data", file_bytes);
    runTask(rig.sim, rig.ffs.sync());
    if (hit) {
        std::vector<std::uint8_t> all(file_bytes);
        (void)runFor(rig.sim, rig.ffs.read(ino, 0, all));
    }
    std::vector<std::uint8_t> buf(size);
    return sweepPoint(
        rig, size, file_bytes,
        [&](std::uint64_t off, std::uint64_t n) -> sim::Task<void> {
            auto r = co_await rig.ffs.read(
                ino, off, std::span<std::uint8_t>(buf.data(), n));
            (void)r;
        });
}

double
ffsWrite(std::uint64_t size, bool hit)
{
    const util::MetricsScope rig_metrics;
    FfsRig rig;
    const std::uint64_t file_bytes = 4 * kMB;
    const auto a = rig.makeFile("a", file_bytes);
    const auto b = rig.makeFile("b", file_bytes);
    std::vector<std::uint8_t> buf(size, 9);
    bool flip = false;
    return sweepPoint(
        rig, size, file_bytes,
        [&](std::uint64_t off, std::uint64_t n) -> sim::Task<void> {
            const auto target = (hit || !flip) ? a : b;
            flip = !flip;
            auto r = co_await rig.ffs.write(
                target, off, std::span<const std::uint8_t>(buf.data(), n));
            (void)r;
        });
}

/** Record one measured point as a result gauge ("fig6/<...>_mbps"). */
double
record(const std::string &series, std::uint64_t size, double mbps)
{
    util::metrics()
        .gauge("fig6/" + series + "/" + util::formatBytes(size) + "_mbps")
        .set(mbps);
    return mbps;
}

} // namespace

int
main(int argc, char **argv)
{
    const char *kReference = "Figure 6 (Section 4.2, prototype bandwidth)";
    const bench::BenchOptions opts =
        bench::parseOptions("fig6", argc, argv);
    bench::banner(
        "fig6_bandwidth — NASD vs FFS vs raw, sequential reads/writes",
        kReference);

    std::printf("\n(a) reads, apparent MB/s\n");
    std::printf("%8s %9s %9s %9s %12s %12s\n", "size", "raw", "FFS-hit",
                "NASD-hit", "FFS-miss", "NASD-miss");
    for (const auto size : sizes()) {
        std::printf("%8s %9.1f %9.1f %9.1f %12.1f %12.1f\n",
                    util::formatBytes(size).c_str(),
                    record("read/raw", size, rawRead(size)),
                    record("read/ffs_hit", size, ffsRead(size, true)),
                    record("read/nasd_hit", size, nasdRead(size, true)),
                    record("read/ffs_miss", size, ffsRead(size, false)),
                    record("read/nasd_miss", size, nasdRead(size, false)));
    }

    std::printf("\n(b) writes, apparent MB/s\n");
    std::printf("%8s %9s %9s %9s %12s %12s\n", "size", "raw", "FFS",
                "NASD", "FFS-miss", "NASD-miss");
    for (const auto size : sizes()) {
        std::printf("%8s %9.1f %9.1f %9.1f %12.1f %12.1f\n",
                    util::formatBytes(size).c_str(),
                    record("write/raw", size, rawWrite(size)),
                    record("write/ffs", size, ffsWrite(size, true)),
                    record("write/nasd", size, nasdWrite(size, true)),
                    record("write/ffs_miss", size, ffsWrite(size, false)),
                    record("write/nasd_miss", size, nasdWrite(size, false)));
    }

    std::printf(
        "\nPaper anchors: raw read ~5 (readahead effective <128KB), raw "
        "write ~7 (write-behind);\ncached reads FFS ~48 > NASD ~40 "
        "(one fewer copy), both drooping past L2;\nmiss reads NASD ~5 > "
        "FFS ~2.5 (extent- vs cluster-sized disk I/O);\nFFS writes ack "
        "early only <=64KB, so apparent write bandwidth drops beyond.\n");

    bench::writeBenchJson(opts, "fig6", kReference);
    return 0;
}
