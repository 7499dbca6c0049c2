/**
 * @file
 * A parallel data-mining cluster on NASD PFS (the paper's Section 5.2
 * scenario at demonstration scale).
 *
 * Four clients mine 32 MB of sales transactions striped over four
 * drives, then run the full Apriori cascade (1-itemsets, 2-itemsets,
 * 3-itemsets) and print the discovered association rule.
 *
 * Build & run:  ./build/examples/mining_cluster
 */
#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "apps/frequent_sets.h"
#include "apps/transactions.h"
#include "pfs/pfs.h"
#include "rig/cluster.h"
#include "sim/simulator.h"
#include "util/units.h"

using namespace nasd;
using util::kMB;

namespace {

constexpr int kDrives = 4;
constexpr std::uint64_t kDatasetBytes = 32 * kMB;
constexpr std::uint32_t kCatalogItems = 100;

} // namespace

int
main()
{
    // Cluster: 4 drives + storage manager + 4 client workstations.
    rig::NasdCluster cluster(
        {.drives = kDrives, .partition_bytes = 512 * kMB});
    sim::Simulator &sim = cluster.sim;

    // Load the dataset (2 MB chunks; records never straddle chunks).
    apps::DatasetParams params;
    params.catalog_items = kCatalogItems;
    params.planted_pair_rate = 0.35;
    const apps::TransactionGenerator gen(params);
    const std::uint64_t chunks = kDatasetBytes / apps::kChunkBytes;
    const auto file = cluster.loadPfsFile(
        "sales", chunks, [&gen](std::uint64_t c) { return gen.chunk(c); });
    std::printf("loaded %s of transactions across %d drives\n",
                util::formatBytes(kDatasetBytes).c_str(), kDrives);

    // Pass 1 in parallel: each client counts its round-robin chunks.
    const auto clients = cluster.openPfsClients(kDrives, "sales");
    std::vector<apps::ItemCounts> partials(
        kDrives, apps::ItemCounts(kCatalogItems, 0));
    int failed_reads = 0;
    const sim::Tick start = sim.now();
    for (int i = 0; i < kDrives; ++i) {
        sim.spawn([](pfs::PfsClient &c, pfs::PfsHandle f,
                     std::uint64_t total, std::uint64_t first,
                     apps::ItemCounts &out, int &failed) -> sim::Task<void> {
            std::vector<std::uint8_t> chunk(apps::kChunkBytes);
            for (std::uint64_t idx = first; idx < total; idx += kDrives) {
                auto r = co_await c.read(f, idx * apps::kChunkBytes,
                                         chunk);
                if (!r.ok() || r.value() != apps::kChunkBytes)
                    ++failed;
                co_await c.node().cpu().executeAt(
                    static_cast<std::uint64_t>(
                        apps::kCountingCyclesPerByte * apps::kChunkBytes),
                    1.0);
                apps::mergeCounts(
                    out, apps::countOneItemsets(chunk, kCatalogItems));
            }
        }(*clients[i], file, chunks, static_cast<std::uint64_t>(i),
          partials[i], failed_reads));
    }
    sim.run();
    if (failed_reads != 0) {
        std::printf("pass 1: %d chunk reads failed\n", failed_reads);
        return 1;
    }
    const double secs = sim::toSeconds(sim.now() - start);

    apps::ItemCounts counts(kCatalogItems, 0);
    for (const auto &p : partials)
        apps::mergeCounts(counts, p);
    std::printf("pass 1 (1-itemsets): %.1f MB/s aggregate, %.2f s "
                "simulated\n",
                util::bytesPerSecToMBs(static_cast<double>(kDatasetBytes) /
                                       secs),
                secs);

    // Passes 2..3 on one client against the shared file (the later
    // passes are compute-light; the paper measures pass 1).
    const std::uint64_t records = kDatasetBytes / 64;
    const std::uint64_t min_support = records / 5;
    auto frequent1 = apps::frequentItems(counts, min_support);
    std::printf("frequent items (support >= %llu): %zu\n",
                static_cast<unsigned long long>(min_support),
                frequent1.size());

    // One read of the whole file asks each drive for 8 MB, which the
    // drive client moves in bounded pieces.
    std::vector<std::uint8_t> all(kDatasetBytes);
    const auto back = runFor(sim, clients[0]->read(file, 0, all));
    if (!back.ok() || back.value() != kDatasetBytes) {
        std::printf("read-back of the dataset failed\n");
        return 1;
    }
    bool planted_pair_found = false;
    std::vector<apps::ItemSet> level;
    for (const auto item : frequent1)
        level.push_back({item});
    for (int k = 2; k <= 3 && !level.empty(); ++k) {
        const auto candidates = apps::generateCandidates(level);
        if (candidates.empty())
            break;
        const auto counted = apps::countCandidates(all, candidates);
        level = apps::frequentSets(candidates, counted, min_support);
        if (k == 2)
            planted_pair_found = std::find(level.begin(), level.end(),
                                           apps::ItemSet{1, 2}) !=
                                 level.end();
        std::printf("pass %d: %zu candidate %d-itemsets, %zu frequent\n",
                    k, candidates.size(), k, level.size());
        for (const auto &set : level) {
            std::printf("  frequent set {");
            for (std::size_t i = 0; i < set.size(); ++i)
                std::printf("%s%u", i ? ", " : "", set[i]);
            std::printf("}\n");
        }
    }
    if (!planted_pair_found) {
        std::printf("=> no rule: {1, 2} is not a frequent 2-itemset\n");
        return 1;
    }
    std::printf("=> rule discovered: customers buying item 1 also buy "
                "item 2 (the planted association)\n");
    return 0;
}
