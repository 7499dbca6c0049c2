/**
 * @file
 * Table 1: measured cost and estimated performance of NASD read and
 * write requests.
 *
 * For each request size {1 B, 8 KB, 64 KB, 512 KB} and cache state
 * {cold, warm}, measures the total instructions the drive retired to
 * service the request (communications + NASD object service), the
 * communications share, and the projected service time on a 200 MHz
 * drive controller at CPI 2.2 — the same projection the paper makes.
 * Ends with the Seagate Barracuda hardware yardstick the paper quotes
 * (0.30 ms sequential cached sector, ~9.4 ms random sector, ~2.2 ms
 * cached 64 KB, ~11.1 ms random 64 KB).
 */
#include <cctype>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "disk/disk_model.h"
#include "disk/params.h"
#include "nasd/client.h"
#include "nasd/drive.h"
#include "rig/cluster.h"
#include "sim/simulator.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/units.h"

using namespace nasd;
using util::kKB;
using util::kMB;

namespace {

struct Row
{
    std::string label;
    std::uint64_t size;
    std::uint64_t total_instr;
    double comm_percent;
    double est_ms_200mhz;
};

class Table1Bench
{
  public:
    Table1Bench()
    {
        // Filler objects used to evict drive caches.
        for (int i = 0; i < 16; ++i) {
            const ObjectId oid = rig.createObject();
            writeAll(oid, 0, std::vector<std::uint8_t>(512 * kKB, 7));
            fillers.push_back(oid);
        }
    }

    CredentialFactory
    credFor(ObjectId oid)
    {
        return rig.credential(oid, kRightRead | kRightWrite | kRightGetAttr);
    }

    void
    writeAll(ObjectId oid, std::uint64_t offset,
             const std::vector<std::uint8_t> &data)
    {
        auto cred = credFor(oid);
        const auto r = runFor(sim, client.write(cred, offset, data));
        NASD_ASSERT(r.ok(), "table1 setup: write failed");
    }

    /** Evict drive metadata and data caches by touching fillers. */
    void
    evictCaches()
    {
        for (const ObjectId oid : fillers) {
            auto cred = credFor(oid);
            (void)runFor(sim, client.getAttr(cred));
            (void)runFor(sim, client.read(cred, 0, 512 * kKB));
        }
    }

    /** Drive cost of one read of @p size from @p oid. */
    Row
    measureRead(const std::string &label, ObjectId oid, std::uint64_t size)
    {
        auto cred = credFor(oid);
        return measure(label, size, [&] {
            (void)runFor(sim, client.read(cred, 0, size));
        });
    }

    /** Drive cost of one write of @p data to @p oid. */
    Row
    measureWrite(const std::string &label, ObjectId oid,
                 const std::vector<std::uint8_t> &data)
    {
        auto cred = credFor(oid);
        return measure(label, data.size(), [&] {
            (void)runFor(sim, client.write(cred, 0, data));
        });
    }

    /** Instructions the drive retired while @p op ran, split into total
     *  and protocol-stack (communications) share — both read from the
     *  metrics registry, which is where the CPU and RPC layers account
     *  their work. */
    template <typename Op>
    Row
    measure(const std::string &label, std::uint64_t size, Op op)
    {
        const auto cpu0 = drive_cpu_instr.value();
        const auto comm0 = drive_send_instr.value() +
                           drive_recv_instr.value();
        op();
        const std::uint64_t total = drive_cpu_instr.value() - cpu0;
        const std::uint64_t comm = drive_send_instr.value() +
                                   drive_recv_instr.value() - comm0;
        Row row;
        row.label = label;
        row.size = size;
        row.total_instr = total;
        row.comm_percent =
            100.0 * static_cast<double>(comm) / static_cast<double>(total);
        // Projection at 200 MHz, CPI 2.2 (11 ns / instruction).
        row.est_ms_200mhz =
            static_cast<double>(total) * 2.2 / 200e6 * 1e3;
        return row;
    }

    rig::DriveRig rig{[] {
        DriveConfig cfg = prototypeDriveConfig("nasd0", 1);
        // Small caches so "cold" states are reachable by eviction.
        cfg.store.meta_cache_inodes = 8;
        cfg.store.data_cache_bytes = 4 * kMB;
        return cfg;
    }(), 1024 * kMB};
    sim::Simulator &sim = rig.sim;
    NasdClient &client = rig.client;
    // Registry instruments the drive registers during construction:
    // its embedded CPU and the protocol-stack counters on its node.
    util::Counter &drive_cpu_instr =
        util::metrics().counter("nasd0/cpu/instructions");
    util::Counter &drive_send_instr =
        util::metrics().counter("nasd0/net/send_instr");
    util::Counter &drive_recv_instr =
        util::metrics().counter("nasd0/net/recv_instr");
    std::vector<ObjectId> fillers;
};

/** Metric-path slug for a row label: lowercase, non-alphanumeric runs
 *  collapsed to '_' ("read - cold cache" -> "read_cold_cache"). */
std::string
labelSlug(const std::string &label)
{
    std::string slug;
    for (const char ch : label) {
        if (std::isalnum(static_cast<unsigned char>(ch))) {
            slug += static_cast<char>(
                std::tolower(static_cast<unsigned char>(ch)));
        } else if (!slug.empty() && slug.back() != '_') {
            slug += '_';
        }
    }
    while (!slug.empty() && slug.back() == '_')
        slug.pop_back();
    return slug;
}

/** Record one Table 1 headline value as a result gauge. */
void
recordRow(const Row &row)
{
    util::metrics()
        .gauge("table1/" + labelSlug(row.label) + "_" +
               std::to_string(row.size) + "B_instr")
        .set(static_cast<double>(row.total_instr));
}

} // namespace

int
main(int argc, char **argv)
{
    bench::banner("table1_op_costs — NASD request service cost",
                  "Table 1 (Section 4.4, computational requirements)");

    const bench::BenchOptions opts = bench::parseOptions("table1_op_costs", argc, argv);

    Table1Bench bench_state;
    const std::vector<std::uint64_t> sizes = {1, 8 * kKB, 64 * kKB,
                                              512 * kKB};
    std::vector<Row> rows;

    for (const auto size : sizes) {
        // --- read, cold then warm -----------------------------------
        const ObjectId oid = bench_state.rig.createObject();
        bench_state.writeAll(
            oid, 0, std::vector<std::uint8_t>(std::max<std::uint64_t>(
                                                  size, 1),
                                              3));
        bench_state.evictCaches();
        rows.push_back(
            bench_state.measureRead("read - cold cache", oid, size));
        rows.push_back(
            bench_state.measureRead("read - warm cache", oid, size));

        // --- write, cold then warm ----------------------------------
        const ObjectId woid = bench_state.rig.createObject();
        const std::vector<std::uint8_t> data(std::max<std::uint64_t>(size,
                                                                     1),
                                             9);
        bench_state.writeAll(woid, 0, data); // allocate
        bench_state.evictCaches();
        rows.push_back(
            bench_state.measureWrite("write - cold cache", woid, data));
        rows.push_back(
            bench_state.measureWrite("write - warm cache", woid, data));
    }

    std::printf("\n%-20s %10s %14s %8s %14s\n", "operation", "size",
                "total instr", "comm %", "est ms @200MHz");
    for (const auto &row : rows) {
        std::printf("%-20s %10s %14llu %7.0f%% %14.2f\n",
                    row.label.c_str(),
                    util::formatBytes(row.size).c_str(),
                    static_cast<unsigned long long>(row.total_instr),
                    row.comm_percent, row.est_ms_200mhz);
        recordRow(row);
    }

    std::printf("\nPaper anchors (instr / %%comm / ms): read warm 1B "
                "38k/92%%/0.42; read cold 512KB 1488k/92%%/16.4;\n"
                "write warm 512KB 1871k/97%%/20.4. Communications "
                "dominate (70-97%%) at every size.\n");

    // Barracuda hardware comparison -----------------------------------
    std::printf("\nSeagate Barracuda comparison (drive hardware doing "
                "the same work):\n");
    sim::Simulator bsim;
    disk::DiskModel barracuda(bsim, disk::barracudaParams());
    std::vector<std::uint8_t> sector(512);
    std::vector<std::uint8_t> big(64 * kKB);

    // Sequential cached single sector.
    runTask(bsim, barracuda.read(0, 1, sector)); // prime
    sim::Tick t0 = bsim.now();
    runTask(bsim, barracuda.read(1, 1, sector));
    std::printf("  sequential cached sector: %6.2f ms (paper: 0.30)\n",
                sim::toMillis(bsim.now() - t0));
    util::metrics()
        .gauge("table1/barracuda_seq_sector_ms")
        .set(sim::toMillis(bsim.now() - t0));

    // Random single sector (mean of kRandomReads reads).
    constexpr int kRandomReads = 6;
    double random_sum_ms = 0.0;
    for (int i = 1; i <= kRandomReads; ++i) {
        const std::uint64_t block =
            (i * 977ull * 1801) % (barracuda.numBlocks() - 200);
        t0 = bsim.now();
        runTask(bsim, barracuda.read(block, 1, sector));
        random_sum_ms += sim::toMillis(bsim.now() - t0);
    }
    const double random_ms = random_sum_ms / kRandomReads;
    std::printf("  random single sector:     %6.2f ms (paper: 9.4)\n",
                random_ms);
    util::metrics().gauge("table1/barracuda_rand_sector_ms").set(random_ms);

    // Cached 64 KB (sequential after priming readahead; give the
    // drive a moment so the prefetch has fully landed in its cache).
    runTask(bsim, barracuda.read(2048, 128, big));
    bsim.runUntil(bsim.now() + sim::msec(20));
    t0 = bsim.now();
    runTask(bsim, barracuda.read(2176, 128, big));
    std::printf("  64KB from cache/stream:   %6.2f ms (paper: 2.2)\n",
                sim::toMillis(bsim.now() - t0));
    util::metrics()
        .gauge("table1/barracuda_seq64k_ms")
        .set(sim::toMillis(bsim.now() - t0));

    // Random-location 64 KB from media.
    double random64_sum_ms = 0.0;
    for (int i = 1; i <= kRandomReads; ++i) {
        const std::uint64_t block =
            (i * 1237ull * 4099) % (barracuda.numBlocks() - 200);
        t0 = bsim.now();
        runTask(bsim, barracuda.read(block, 128, big));
        random64_sum_ms += sim::toMillis(bsim.now() - t0);
    }
    const double random64_ms = random64_sum_ms / kRandomReads;
    std::printf("  64KB random from media:   %6.2f ms (paper: 11.1)\n",
                random64_ms);
    util::metrics().gauge("table1/barracuda_rand64k_ms").set(random64_ms);
    bench::writeBenchJson(opts, "table1_op_costs",
                          "Table 1 (Section 4.4, computational requirements)");

    return 0;
}
