/**
 * @file
 * Ablation: Cheops stripe unit vs mining bandwidth.
 *
 * The paper runs NASD PFS with a 512 KB stripe unit and 2 MB client
 * chunks. This bench sweeps the stripe unit at 8 drives / 8 clients to
 * show the design point: small units fragment every request across all
 * drives (per-request overhead multiplies), enormous units lose
 * parallelism within a request.
 */
#include <cstdio>
#include <vector>

#include "apps/frequent_sets.h"
#include "apps/transactions.h"
#include "bench/bench_util.h"
#include "pfs/pfs.h"
#include "rig/cluster.h"
#include "sim/simulator.h"
#include "util/units.h"

using namespace nasd;
using util::kKB;
using util::kMB;

namespace {

constexpr int kDrives = 8;
constexpr std::uint64_t kDatasetBytes = 96 * kMB; // smaller sweep set
constexpr std::uint32_t kCatalogItems = 200;

double
measure(std::uint64_t stripe_unit)
{
    // Small drive cache so the sweep measures the media path (the
    // 96 MB working set must not fit in aggregate drive DRAM).
    rig::NasdCluster cluster(
        {.drives = kDrives, .drive_cache_bytes = 4 * kMB});
    sim::Simulator &sim = cluster.sim;

    apps::DatasetParams params;
    params.catalog_items = kCatalogItems;
    apps::TransactionGenerator gen(params);
    const std::uint64_t chunks = kDatasetBytes / apps::kChunkBytes;
    const auto handle = cluster.loadPfsFile(
        "sales", chunks, [&gen](std::uint64_t c) { return gen.chunk(c); },
        stripe_unit);

    const auto clients = cluster.openPfsClients(kDrives, "sales");
    std::vector<apps::ItemCounts> partials(
        kDrives, apps::ItemCounts(kCatalogItems, 0));

    const sim::Tick start = sim.now();
    for (int i = 0; i < kDrives; ++i) {
        sim.spawn([](pfs::PfsClient &c, pfs::PfsHandle file,
                     std::uint64_t total_chunks, std::uint64_t first,
                     apps::ItemCounts &out) -> sim::Task<void> {
            std::vector<std::uint8_t> chunk(apps::kChunkBytes);
            for (std::uint64_t idx = first; idx < total_chunks;
                 idx += kDrives) {
                auto r = co_await c.read(file, idx * apps::kChunkBytes,
                                         chunk);
                (void)r;
                co_await c.node().cpu().executeAt(
                    static_cast<std::uint64_t>(
                        apps::kCountingCyclesPerByte * apps::kChunkBytes),
                    1.0);
                apps::mergeCounts(
                    out, apps::countOneItemsets(chunk, kCatalogItems));
            }
        }(*clients[i], handle, chunks, static_cast<std::uint64_t>(i),
          partials[i]));
    }
    sim.run();
    return util::bytesPerSecToMBs(static_cast<double>(kDatasetBytes) /
                                  sim::toSeconds(sim.now() - start));
}

} // namespace

int
main(int argc, char **argv)
{
    bench::banner("ablation_stripe — Cheops stripe unit sweep",
                  "Section 5.2 design point (512KB stripe unit)");

    const bench::BenchOptions opts = bench::parseOptions("ablation_stripe", argc, argv);

    std::printf("\n8 drives, 8 clients, 2MB chunks, 96MB scanned:\n\n");
    std::printf("  %12s %16s\n", "stripe unit", "aggregate MB/s");
    for (const std::uint64_t unit :
         {32 * kKB, 64 * kKB, 128 * kKB, 256 * kKB, 512 * kKB, kMB,
          2 * kMB}) {
        std::printf("  %12s %16.1f\n", util::formatBytes(unit).c_str(),
                    measure(unit));
    }
    std::printf("\nExpected shape: roughly flat while a 2MB chunk still "
                "spreads over all 8 drives\n(units <= 256KB), with the "
                "paper's 512KB design point at the knee, then a clear\n"
                "drop once the unit is so large that each chunk engages "
                "only a fraction of the\ndrives (>= 1MB).\n");
    bench::writeBenchJson(opts, "ablation_stripe",
                          "Section 5.2 design point (512KB stripe unit)");

    return 0;
}
