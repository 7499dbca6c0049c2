/**
 * @file
 * Tests for the application layer: transaction generation, Apriori
 * mining kernels (including a property-style sweep over dataset
 * parameters), and the Andrew workload over both filesystems.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <span>

#include "apps/andrew.h"
#include "apps/andrew_targets.h"
#include "apps/frequent_sets.h"
#include "apps/transactions.h"
#include "cost/cost_model.h"
#include "crypto/sha256.h"
#include "disk/disk_model.h"
#include "disk/params.h"
#include "net/presets.h"
#include "sim/simulator.h"
#include "util/codec.h"
#include "util/rng.h"
#include "util/units.h"

namespace nasd::apps {
namespace {

using util::kKB;
using util::kMB;

// ------------------------------------------------------------ transactions

TEST(Transactions, RecordRoundTrip)
{
    TransactionRecord r;
    r.txn_id = 0x123456789abcdefull;
    r.store_id = 77;
    r.item_count = 3;
    r.items[0] = 10;
    r.items[1] = 20;
    r.items[2] = 30;
    std::vector<std::uint8_t> buf(TransactionRecord::kBytes);
    encodeRecord(r, buf);
    const auto back = decodeRecord(buf);
    EXPECT_EQ(back.txn_id, r.txn_id);
    EXPECT_EQ(back.store_id, r.store_id);
    EXPECT_EQ(back.item_count, r.item_count);
    EXPECT_EQ(back.items[2], 30u);
}

TEST(Transactions, ChunksAreDeterministic)
{
    TransactionGenerator gen(DatasetParams{});
    EXPECT_EQ(gen.chunk(5), gen.chunk(5));
    EXPECT_NE(gen.chunk(5), gen.chunk(6));
}

TEST(Transactions, ChunkIsExactlyTwoMegabytes)
{
    TransactionGenerator gen(DatasetParams{});
    EXPECT_EQ(gen.chunk(0).size(), kChunkBytes);
}

TEST(Transactions, RecordsDoNotStraddleChunks)
{
    // Every record slot in a chunk decodes cleanly (the last record
    // ends exactly at the chunk boundary).
    TransactionGenerator gen(DatasetParams{});
    const auto chunk = gen.chunk(0);
    const auto last = decodeRecord(std::span<const std::uint8_t>(
        chunk.data() + (kRecordsPerChunk - 1) * TransactionRecord::kBytes,
        TransactionRecord::kBytes));
    EXPECT_GT(last.item_count, 0u);
    EXPECT_EQ(last.txn_id, kRecordsPerChunk - 1);
}

TEST(Transactions, CorruptItemCountIsClamped)
{
    // A record of 0xff bytes claims 255 items. Decoding clamps the
    // count, so the kernels read at most items[kMaxItems - 1] (ASan
    // flags any read past the array).
    const std::vector<std::uint8_t> corrupt(TransactionRecord::kBytes,
                                            0xff);
    EXPECT_EQ(decodeRecord(corrupt).item_count, TransactionRecord::kMaxItems);
    const auto basket_hits =
        countCandidates(corrupt, {ItemSet{0xffffffffu}});
    EXPECT_EQ(basket_hits, (std::vector<std::uint64_t>{1}));

    // The same corrupt count over valid item ids counts twelve items.
    TransactionRecord zeros;
    std::vector<std::uint8_t> record(TransactionRecord::kBytes);
    encodeRecord(zeros, record);
    record[12] = 0xff; // item_count byte
    const auto counts = countOneItemsets(record, 16);
    EXPECT_EQ(counts[0], TransactionRecord::kMaxItems);
}

/**
 * Golden dataset: the generator's bytes are part of every printed
 * mining result and baseline, so pin them. A generator change that
 * moves any byte of these chunks fails here before it reaches a bench.
 */
struct GoldenDataset
{
    std::uint32_t catalog_items;
    std::uint64_t seed;
    const char *chunk0;
    const char *chunk1;
    const char *chunk149;
    std::uint64_t chunk0_total;
    std::uint64_t chunk0_counts[4]; ///< items 0-3 of chunk 0
};

constexpr GoldenDataset kGoldenDatasets[] = {
    // Default DatasetParams.
    {1000, 42,
     "2b5070efe4975919fb8c76c99d804653f9445ab4e56a12e8ee00c327e82c8d58",
     "2902a27f0e16f61be0005b8acf6d86160ba77118de9205ba6be89d5e4e4a22ae",
     "1106ffc39ca67def20066abbfb36d3d0cce04692fa727690d8f123c937f1d6d0",
     245794,
     {14700, 16750, 14279, 4984}},
    // The repository benchmark's mining dataset (seeds 1 and 7).
    {500, 1,
     "62d698e1025f0347441ab990fd95ac19381a4e9fe496cc7b5a1f4db7aa8d903e",
     "b0ce5422ce6318db44dd121efff70550c9f3fd008be0127c6e9ddf5bc4be1c02",
     "48c3ca58fda08d10ac0adfce7b2466f2d1f5a35dd4b4ecc58c518f766d8f56e3",
     246667,
     {17753, 18304, 15524, 5970}},
    {500, 7,
     "34eef22830ed6ff1778b98bc970edcddd592aa0b651f9f735e1327dff4426e70",
     "a0e4b53d4392a61f9efdd8547ab49e118ab3c16d172f87be72c3287fd59b1c0b",
     "1ff14f7da0af98430b3ff27e808a96dc5e06a9893ce4a10e1c89ee18b3d3581d",
     246231,
     {17939, 18696, 15805, 5688}},
};

TEST(Transactions, GoldenChunkDigests)
{
    for (const auto &golden : kGoldenDatasets) {
        SCOPED_TRACE(testing::Message() << "catalog " << golden.catalog_items
                                        << " seed " << golden.seed);
        DatasetParams params;
        params.catalog_items = golden.catalog_items;
        params.seed = golden.seed;
        const TransactionGenerator gen(params);
        const auto chunk0 = gen.chunk(0);
        EXPECT_EQ(crypto::toHex(crypto::Sha256::hash(chunk0)), golden.chunk0);
        EXPECT_EQ(crypto::toHex(crypto::Sha256::hash(gen.chunk(1))),
                  golden.chunk1);
        EXPECT_EQ(crypto::toHex(crypto::Sha256::hash(gen.chunk(149))),
                  golden.chunk149);

        const auto counts = countOneItemsets(chunk0, params.catalog_items);
        std::uint64_t total = 0;
        for (const auto c : counts)
            total += c;
        EXPECT_EQ(total, golden.chunk0_total);
        for (std::size_t i = 0; i < 4; ++i)
            EXPECT_EQ(counts[i], golden.chunk0_counts[i]) << "item " << i;
    }
}

/**
 * The generator as it was before it stored fields straight into the
 * chunk: build each record as a struct, then encodeRecord it. Same
 * draws in the same order, so chunk() must match it byte for byte.
 */
std::vector<std::uint8_t>
referenceChunk(const DatasetParams &params, std::uint64_t index)
{
    const util::ZipfSampler zipf(params.catalog_items, params.zipf_theta);
    util::Rng rng(params.seed * 0x9e3779b9ull + index);
    std::vector<std::uint8_t> out(kChunkBytes);
    for (std::uint64_t r = 0; r < kRecordsPerChunk; ++r) {
        TransactionRecord record;
        record.txn_id = index * kRecordsPerChunk + r;
        record.store_id = static_cast<std::uint32_t>(rng.below(100));
        const auto n = static_cast<std::uint8_t>(
            rng.between(params.min_items, params.max_items));
        record.item_count = n;
        std::size_t filled = 0;
        if (rng.chance(params.planted_pair_rate) && n >= 2) {
            record.items[filled++] = 1;
            record.items[filled++] = 2;
        }
        while (filled < n)
            record.items[filled++] =
                static_cast<std::uint32_t>(zipf.sample(rng));
        encodeRecord(record,
                     std::span<std::uint8_t>(
                         out.data() + r * TransactionRecord::kBytes,
                         TransactionRecord::kBytes));
    }
    return out;
}

TEST(Transactions, ChunkMatchesReferenceEncoderBeyondGoldenParams)
{
    // Catalogs from the smallest allowed to more ranks than a 16-bit
    // guide entry could index, both skew extremes, fixed and minimal
    // basket sizes, and planted pairs never and always.
    std::vector<DatasetParams> cases;
    const auto with = [&cases](auto &&edit) {
        DatasetParams params;
        edit(params);
        cases.push_back(params);
    };
    for (const std::uint32_t catalog : {8u, 500u, 1000u, 70000u})
        with([&](DatasetParams &p) { p.catalog_items = catalog; });
    for (const double theta : {0.0, 0.99})
        with([&](DatasetParams &p) { p.zipf_theta = theta; });
    for (const std::uint32_t items : {3u, 12u}) {
        with([&](DatasetParams &p) {
            p.min_items = items;
            p.max_items = items;
        });
    }
    with([](DatasetParams &p) { p.min_items = 2; });
    for (const double rate : {0.0, 1.0})
        with([&](DatasetParams &p) { p.planted_pair_rate = rate; });

    for (const auto &params : cases) {
        SCOPED_TRACE(testing::Message()
                     << "catalog " << params.catalog_items << " theta "
                     << params.zipf_theta << " items " << params.min_items
                     << "-" << params.max_items << " planted "
                     << params.planted_pair_rate);
        const TransactionGenerator gen(params);
        for (const std::uint64_t index : {0u, 1u, 2u, 149u})
            EXPECT_TRUE(gen.chunk(index) == referenceChunk(params, index))
                << "chunk " << index;
    }
}

// ----------------------------------------------------------------- mining

TEST(Mining, CountsSingleItems)
{
    DatasetParams params;
    params.catalog_items = 50;
    TransactionGenerator gen(params);
    const auto chunk = gen.chunk(0);
    const auto counts = countOneItemsets(chunk, params.catalog_items);
    std::uint64_t total = 0;
    for (const auto c : counts)
        total += c;
    EXPECT_GT(total, kRecordsPerChunk * 2); // >= min_items per record
}

/** Pass-1 counts the slow way: decode each whole record, count its
 *  ids below @p catalog_items. */
ItemCounts
decodedOneItemsetCounts(std::span<const std::uint8_t> data,
                        std::uint32_t catalog_items)
{
    ItemCounts counts(catalog_items, 0);
    for (std::size_t at = 0; at + TransactionRecord::kBytes <= data.size();
         at += TransactionRecord::kBytes) {
        const auto record =
            decodeRecord(data.subspan(at, TransactionRecord::kBytes));
        for (std::size_t i = 0; i < record.item_count; ++i) {
            if (record.items[i] < catalog_items)
                ++counts[record.items[i]];
        }
    }
    return counts;
}

TEST(Mining, OneItemsetCountsMatchDecodedRecords)
{
    // The benches take their reference counts from countOneItemsets
    // itself, so check it here against decodeRecord on seeded random
    // bytes: every count byte 0..255 (clamped to
    // kMaxItems), ids just below, at and above the catalog and far
    // above it, record counts around the kernel's 256-record block, a
    // trailing partial record, and a buffer starting at an odd address.
    util::Rng rng(33);
    for (const std::uint32_t catalog : {0u, 1u, 16u, 500u}) {
        for (const std::size_t records : {0u, 1u, 255u, 256u, 257u, 513u}) {
            for (const std::size_t partial : {0u, 1u, 63u}) {
                const std::size_t size =
                    records * TransactionRecord::kBytes + partial;
                std::vector<std::uint8_t> buffer(1 + size);
                for (auto &byte : buffer)
                    byte = static_cast<std::uint8_t>(rng.next());
                const std::span<const std::uint8_t> data =
                    std::span(buffer).subspan(1);
                // Any 256 consecutive records carry every count byte.
                const std::uint64_t first_count = rng.below(256);
                for (std::size_t r = 0; r < records; ++r) {
                    std::uint8_t *record =
                        buffer.data() + 1 + r * TransactionRecord::kBytes;
                    record[TransactionRecord::kItemCountAt] =
                        static_cast<std::uint8_t>(first_count + r);
                    for (std::size_t i = 0; i < TransactionRecord::kMaxItems;
                         ++i) {
                        // One slot in four keeps its random id.
                        if (rng.below(4) == 0)
                            continue;
                        util::storeLe<std::uint32_t>(
                            record + TransactionRecord::kItemsAt + 4 * i,
                            static_cast<std::uint32_t>(
                                rng.below(catalog + 3)));
                    }
                }
                EXPECT_EQ(countOneItemsets(data, catalog),
                          decodedOneItemsetCounts(data, catalog))
                    << "catalog " << catalog << ", " << records
                    << " records + " << partial << " bytes";
            }
        }
    }
}

TEST(Mining, CounterOverAnyPieceSplitMatchesWholeBuffer)
{
    // An Active Disks scan counts a drive's image piece by piece, where
    // each piece lies: pieces of any length, records split between
    // them, 1-byte and empty pieces, and a partial record at the end.
    DatasetParams params;
    params.catalog_items = 500;
    TransactionGenerator gen(params);
    const auto chunk = gen.chunk(0);
    util::Rng rng(34);
    for (const std::size_t tail : {0u, 1u, 37u, 63u}) {
        const std::size_t size = 600 * TransactionRecord::kBytes + tail;
        const auto data = std::span<const std::uint8_t>(chunk).first(size);
        const ItemCounts whole = countOneItemsets(data, params.catalog_items);
        for (int split = 0; split < 8; ++split) {
            OneItemsetCounter counter(params.catalog_items);
            std::size_t at = 0;
            std::size_t pieces = 0;
            while (at < size) {
                // Mostly short pieces that end inside a record, some
                // empty or a single byte, now and then a long one.
                std::size_t len = rng.below(3 * TransactionRecord::kBytes);
                switch (rng.below(8)) {
                  case 0: len = 0; break;
                  case 1: len = 1; break;
                  case 2: len = rng.below(40 * TransactionRecord::kBytes); break;
                  default: break;
                }
                len = std::min(len, size - at);
                counter.add(data.subspan(at, len));
                at += len;
                ++pieces;
            }
            counter.add({});
            EXPECT_EQ(counter.counts(), whole)
                << "tail " << tail << ", split " << split << " (" << pieces
                << " pieces)";
        }
        // One byte at a time.
        OneItemsetCounter bytewise(params.catalog_items);
        for (std::size_t at = 0; at < size; ++at)
            bytewise.add(data.subspan(at, 1));
        EXPECT_EQ(bytewise.counts(), whole) << "tail " << tail;
    }
}

TEST(Mining, PlantedPairIsFrequent)
{
    DatasetParams params;
    params.planted_pair_rate = 0.5;
    TransactionGenerator gen(params);
    const auto chunk = gen.chunk(0);
    const auto counts = countOneItemsets(chunk, params.catalog_items);
    // Items 1 and 2 appear in at least half the records.
    EXPECT_GT(counts[1], kRecordsPerChunk / 3);
    EXPECT_GT(counts[2], kRecordsPerChunk / 3);
}

TEST(Mining, MergePartialCounts)
{
    ItemCounts a{1, 2, 3};
    ItemCounts b{10, 20, 30};
    mergeCounts(a, b);
    EXPECT_EQ(a, (ItemCounts{11, 22, 33}));
}

TEST(Mining, MergedPartialsEqualSequentialScan)
{
    DatasetParams params;
    params.catalog_items = 100;
    TransactionGenerator gen(params);
    // Whole scan of 4 chunks vs per-chunk partials merged.
    std::vector<std::uint8_t> whole;
    ItemCounts merged(params.catalog_items, 0);
    for (std::uint64_t i = 0; i < 4; ++i) {
        const auto chunk = gen.chunk(i);
        whole.insert(whole.end(), chunk.begin(), chunk.end());
        mergeCounts(merged, countOneItemsets(chunk, params.catalog_items));
    }
    EXPECT_EQ(countOneItemsets(whole, params.catalog_items), merged);
}

TEST(Mining, FrequentItemsRespectSupport)
{
    ItemCounts counts{100, 5, 50, 200};
    const auto frequent = frequentItems(counts, 50);
    EXPECT_EQ(frequent, (std::vector<std::uint32_t>{0, 2, 3}));
}

TEST(Mining, CandidateGenerationJoinsAndPrunes)
{
    // Frequent 2-itemsets {1,2},{1,3},{2,3},{2,4}: join gives {1,2,3}
    // (all subsets frequent) and {2,3,4} (subset {3,4} missing: prune).
    std::vector<ItemSet> frequent2 = {{1, 2}, {1, 3}, {2, 3}, {2, 4}};
    const auto candidates = generateCandidates(frequent2);
    ASSERT_EQ(candidates.size(), 1u);
    EXPECT_EQ(candidates[0], (ItemSet{1, 2, 3}));
}

TEST(Mining, PairCountingFindsPlantedRule)
{
    DatasetParams params;
    params.planted_pair_rate = 0.5;
    TransactionGenerator gen(params);
    const auto chunk = gen.chunk(0);

    const std::vector<ItemSet> candidates = {{1, 2}, {997, 998}};
    const auto counts = countCandidates(chunk, candidates);
    EXPECT_GT(counts[0], kRecordsPerChunk / 3); // planted pair
    EXPECT_LT(counts[1], counts[0] / 10);       // random rare pair
}

TEST(Mining, FullAprioriPassesConverge)
{
    DatasetParams params;
    params.catalog_items = 60;
    params.planted_pair_rate = 0.6;
    TransactionGenerator gen(params);
    const auto data = gen.chunk(0);

    const std::uint64_t min_support = kRecordsPerChunk / 4;
    const auto counts1 = countOneItemsets(data, params.catalog_items);
    const auto frequent1 = frequentItems(counts1, min_support);
    ASSERT_GE(frequent1.size(), 2u);

    std::vector<ItemSet> level;
    for (const auto item : frequent1)
        level.push_back({item});
    // Pass 2.
    auto candidates = generateCandidates(level);
    auto counts = countCandidates(data, candidates);
    const auto frequent2 = frequentSets(candidates, counts, min_support);
    // The planted pair must survive.
    EXPECT_NE(std::find(frequent2.begin(), frequent2.end(), ItemSet{1, 2}),
              frequent2.end());
}

/** Property sweep: partial/merged counting equals whole-buffer
 *  counting across dataset shapes. */
class MiningSweep
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, double>>
{};

TEST_P(MiningSweep, MergeEquivalence)
{
    DatasetParams params;
    params.catalog_items = std::get<0>(GetParam());
    params.zipf_theta = std::get<1>(GetParam());
    TransactionGenerator gen(params);

    std::vector<std::uint8_t> whole;
    ItemCounts merged(params.catalog_items, 0);
    for (std::uint64_t i = 0; i < 2; ++i) {
        const auto chunk = gen.chunk(i);
        whole.insert(whole.end(), chunk.begin(), chunk.end());
        mergeCounts(merged, countOneItemsets(chunk, params.catalog_items));
    }
    EXPECT_EQ(countOneItemsets(whole, params.catalog_items), merged);
}

INSTANTIATE_TEST_SUITE_P(
    DatasetShapes, MiningSweep,
    ::testing::Combine(::testing::Values(16u, 100u, 1000u),
                       ::testing::Values(0.0, 0.8, 1.2)));

// ----------------------------------------------------------------- Andrew

TEST(Andrew, RunsOnBaselineNfs)
{
    sim::Simulator sim;
    net::Network net(sim);
    auto &server_node = net.addNode("server", net::alphaStation500(),
                                    net::oc3Link(), net::dceRpcCosts());
    auto &client_node = net.addNode("client", net::alphaStation255(),
                                    net::oc3Link(), net::dceRpcCosts());
    disk::DiskModel disk(sim, disk::cheetahParams());
    fs::FfsFileSystem ffs(sim, disk, &server_node.cpu());
    sim.spawn(ffs.format());
    sim.run();
    fs::NfsServer server(sim, server_node);
    const auto volume = server.addVolume(ffs);
    fs::NfsClient client(net, client_node, server);
    NfsAndrewTarget target(client, volume);

    AndrewParams params;
    params.dirs = 2;
    params.files_per_dir = 4;
    std::optional<AndrewReport> report;
    sim.spawn([](sim::Simulator &s, AndrewTarget &t, AndrewParams p,
                 std::optional<AndrewReport> &out) -> sim::Task<void> {
        out = co_await runAndrew(s, t, p);
    }(sim, target, params, report));
    sim.run();

    ASSERT_TRUE(report.has_value());
    EXPECT_GT(report->make_dir, 0u);
    EXPECT_GT(report->copy, 0u);
    EXPECT_GT(report->read_all, 0u);
    EXPECT_GT(report->total(), 0u);
}

TEST(Andrew, RunsOnNasdNfs)
{
    sim::Simulator sim;
    net::Network net(sim);
    auto &fm_node = net.addNode("fm", net::alphaStation500(),
                                net::oc3Link(), net::dceRpcCosts());
    auto &client_node = net.addNode("client", net::alphaStation255(),
                                    net::oc3Link(), net::dceRpcCosts());
    std::vector<std::unique_ptr<NasdDrive>> drives;
    std::vector<NasdDrive *> raw;
    for (int i = 0; i < 2; ++i) {
        drives.push_back(std::make_unique<NasdDrive>(
            sim, net, prototypeDriveConfig("nasd" + std::to_string(i),
                                           i + 1)));
        raw.push_back(drives.back().get());
    }
    fs::NasdNfsFileManager fm(sim, net, fm_node, raw, 0);
    sim.spawn(fm.initialize(512 * kMB));
    sim.run();
    fs::NasdNfsClient client(net, client_node, fm, raw);
    NasdNfsAndrewTarget target(client, fm.rootHandle());

    AndrewParams params;
    params.dirs = 2;
    params.files_per_dir = 4;
    std::optional<AndrewReport> report;
    sim.spawn([](sim::Simulator &s, AndrewTarget &t, AndrewParams p,
                 std::optional<AndrewReport> &out) -> sim::Task<void> {
        out = co_await runAndrew(s, t, p);
    }(sim, target, params, report));
    sim.run();

    ASSERT_TRUE(report.has_value());
    EXPECT_GT(report->total(), 0u);
}

} // namespace
} // namespace nasd::apps

// ------------------------------------------------------------- cost model

namespace nasd::cost {
namespace {

TEST(CostModel, HighEndSingleDiskOverheadNearPaper)
{
    ServerCostModel model(highEndServer());
    const auto b = model.analyze(1);
    // Paper: "overhead that starts at 1,300% for one server-attached
    // disk".
    EXPECT_NEAR(b.overhead_percent, 1342, 60);
}

TEST(CostModel, HighEndFourteenDisksNearPaper)
{
    ServerCostModel model(highEndServer());
    const auto b = model.analyze(14);
    // Paper: saturates at 14 disks, 2 NICs, 4 disk interfaces, 115%.
    EXPECT_EQ(b.nics, 2 + (b.nics - 2)); // at least 2
    EXPECT_NEAR(b.overhead_percent, 115, 10);
    EXPECT_EQ(model.maxDisksByMemory(), 14);
}

TEST(CostModel, LowCostSingleDiskNearPaper)
{
    ServerCostModel model(lowCostServer());
    const auto b = model.analyze(1);
    // Paper: "One disk suffers a 380% cost overhead".
    EXPECT_NEAR(b.overhead_percent, 383, 20);
}

TEST(CostModel, LowCostSixDisksNearPaper)
{
    ServerCostModel model(lowCostServer());
    const auto b = model.analyze(6);
    // Paper: "a six disk system still suffers an 80% cost overhead".
    EXPECT_NEAR(b.overhead_percent, 80, 10);
    EXPECT_EQ(model.maxDisksByMemory(), 6);
}

TEST(CostModel, OverheadShrinksWithScaleButStaysHigh)
{
    ServerCostModel model(lowCostServer());
    EXPECT_GT(model.analyze(2).overhead_percent,
              model.analyze(6).overhead_percent);
    EXPECT_GT(model.analyze(6).overhead_percent, 50);
}

TEST(CostModel, NasdPremiumFarBelowServerOverhead)
{
    // Paper: a 10% NASD premium means >= 10x reduction in server
    // overhead cost.
    ServerCostModel model(lowCostServer());
    const double nasd = ServerCostModel::nasdOverheadPercent(0.10);
    EXPECT_DOUBLE_EQ(nasd, 10.0);
    EXPECT_GT(model.analyze(6).overhead_percent / nasd, 8.0);
}

TEST(CostModel, TotalSystemSavingsOverFiftyPercent)
{
    // Paper: total storage system cost reduction of over 50%... the
    // text says the increase is "at least 80% over the cost of simply
    // buying the storage"; at small scale the traditional system costs
    // well over 1.5x the NASD system.
    ServerCostModel model(lowCostServer());
    EXPECT_GT(model.systemCostRatio(1), 2.0);
    EXPECT_GT(model.systemCostRatio(6), 1.5);
}

TEST(CostModel, MemorySaturationFlagged)
{
    ServerCostModel model(highEndServer());
    EXPECT_FALSE(model.analyze(14).memory_saturated);
    EXPECT_TRUE(model.analyze(15).memory_saturated);
}

} // namespace
} // namespace nasd::cost
