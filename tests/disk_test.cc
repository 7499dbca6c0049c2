/**
 * @file
 * Unit tests for the disk substrate: sparse store, mechanical timing,
 * cache/readahead behaviour, write-behind, and the striping driver.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <span>
#include <utility>
#include <vector>

#include "disk/disk_model.h"
#include "disk/params.h"
#include "disk/striping.h"
#include "sim/simulator.h"
#include "sim/task.h"
#include "util/attribution.h"
#include "util/byte_sink.h"
#include "util/rng.h"
#include "util/sparse_store.h"
#include "util/units.h"

namespace nasd::disk {
namespace {

using sim::Simulator;
using sim::Task;
using sim::Tick;
using util::kKB;
using util::kMB;

std::vector<std::uint8_t>
pattern(std::size_t n, std::uint8_t seed = 1)
{
    std::vector<std::uint8_t> v(n);
    for (std::size_t i = 0; i < n; ++i)
        v[i] = static_cast<std::uint8_t>(seed + i * 7);
    return v;
}

// ---------------------------------------------------------------- sparse

TEST(SparseStore, UnwrittenReadsZero)
{
    util::SparseStore store;
    std::vector<std::uint8_t> buf(100, 0xff);
    store.read(12345, buf);
    for (auto b : buf)
        EXPECT_EQ(b, 0);
    EXPECT_EQ(store.allocatedBytes(), 0u);
}

TEST(SparseStore, WriteReadRoundTrip)
{
    util::SparseStore store(4096);
    const auto data = pattern(10000);
    store.write(777, data);
    std::vector<std::uint8_t> out(10000);
    store.read(777, out);
    EXPECT_EQ(out, data);
}

TEST(SparseStore, CrossChunkBoundary)
{
    util::SparseStore store(4096);
    const auto data = pattern(100);
    store.write(4096 - 50, data); // straddles two chunks
    std::vector<std::uint8_t> out(100);
    store.read(4096 - 50, out);
    EXPECT_EQ(out, data);
    EXPECT_EQ(store.allocatedBytes(), 2 * 4096u);
}

TEST(SparseStore, PartialWriteIntoFreshChunkZeroesBothSides)
{
    util::SparseStore store(4096);
    // Dirty a chunk and free it, so the fresh chunks below are likely
    // to reuse memory that holds non-zero bytes.
    store.write(0, std::vector<std::uint8_t>(4096, 0xee));
    store.trim(0, 4096);
    ASSERT_EQ(store.allocatedBytes(), 0u);

    const auto data = pattern(4096);
    store.write(1000, std::span(data).first(100)); // inside one chunk
    store.write(3 * 4096 - 30, std::span(data).first(60)); // straddles two
    std::vector<std::uint8_t> out(4 * 4096);
    store.read(0, out);
    for (std::size_t i = 0; i < out.size(); ++i) {
        std::uint8_t want = 0;
        if (i >= 1000 && i < 1100)
            want = data[i - 1000];
        else if (i >= 3 * 4096 - 30 && i < 3 * 4096 + 30)
            want = data[i - (3 * 4096 - 30)];
        ASSERT_EQ(out[i], want) << "byte " << i;
    }
}

TEST(SparseStore, TrimFreesWholeChunks)
{
    util::SparseStore store(4096);
    store.write(0, pattern(4096 * 3));
    EXPECT_EQ(store.allocatedBytes(), 3 * 4096u);
    store.trim(0, 4096);
    EXPECT_EQ(store.allocatedBytes(), 2 * 4096u);
    std::vector<std::uint8_t> out(10);
    store.read(0, out);
    for (auto b : out)
        EXPECT_EQ(b, 0);
}

TEST(SparseStore, PartialTrimZeroes)
{
    util::SparseStore store(4096);
    store.write(0, pattern(4096));
    store.trim(100, 50);
    std::vector<std::uint8_t> out(4096);
    store.read(0, out);
    const auto orig = pattern(4096);
    EXPECT_EQ(out[99], orig[99]);
    for (int i = 100; i < 150; ++i)
        EXPECT_EQ(out[i], 0);
    EXPECT_EQ(out[150], orig[150]);
}

/** The pieces view() hands over for one range, each with its offset. */
struct Viewed
{
    std::vector<std::uint8_t> bytes;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> pieces;
};

template <typename ViewFn>
Viewed
collectView(std::uint64_t offset, std::uint64_t length, ViewFn view)
{
    Viewed got;
    auto sink = [&](std::span<const std::uint8_t> piece) {
        got.pieces.emplace_back(offset + got.bytes.size(), piece.size());
        got.bytes.insert(got.bytes.end(), piece.begin(), piece.end());
    };
    view(offset, length, util::ByteSink(sink));
    return got;
}

/** Every piece is non-empty and stays inside one @p granule. */
void
expectPiecesWithin(const Viewed &got, std::uint64_t granule)
{
    for (const auto &[at, size] : got.pieces) {
        ASSERT_GT(size, 0u) << "piece at " << at;
        EXPECT_EQ(at / granule, (at + size - 1) / granule)
            << "piece [" << at << ", " << at + size << ")";
    }
}

TEST(SparseStore, ViewedPiecesConcatenateToTheCopiedBytes)
{
    // A 1 MB image of 16 KB chunks: some written, some never written
    // (holes), one written and then trimmed whole, one partly.
    util::SparseStore store(16 * kKB);
    const auto data = pattern(1 * kMB, 3);
    std::vector<std::uint8_t> image(data.size()); // what it must hold
    for (std::uint64_t c = 0; c < 64; ++c) {
        if (c % 3 == 1)
            continue;
        const auto piece = std::span(data).subspan(c * 16 * kKB, 16 * kKB);
        store.write(c * 16 * kKB, piece);
        std::copy(piece.begin(), piece.end(),
                  image.begin() + static_cast<std::ptrdiff_t>(c * 16 * kKB));
    }
    for (const auto &[at, n] : {std::pair<std::uint64_t, std::uint64_t>{
                                    6 * 16 * kKB, 16 * kKB},
                                {9 * 16 * kKB + 100, 5000}}) {
        store.trim(at, n);
        std::fill_n(image.begin() + static_cast<std::ptrdiff_t>(at), n, 0);
    }
    util::Rng rng(41);
    for (int trial = 0; trial < 300; ++trial) {
        const std::uint64_t offset = rng.below(1 * kMB);
        const std::uint64_t length = rng.below(1 * kMB - offset + 1);
        const auto got = collectView(
            offset, length,
            [&](std::uint64_t at, std::uint64_t n, util::ByteSink sink) {
                store.read(at, n, sink);
            });
        const auto from = image.begin() + static_cast<std::ptrdiff_t>(offset);
        ASSERT_EQ(got.bytes, std::vector<std::uint8_t>(
                                 from, from + static_cast<std::ptrdiff_t>(
                                                  length)))
            << "[" << offset << ", +" << length << ")";
        std::vector<std::uint8_t> copied(length);
        store.read(offset, copied);
        EXPECT_EQ(got.bytes, copied);
        expectPiecesWithin(got, 16 * kKB);
    }
}

TEST(Striping, ViewedPiecesConcatenateToPeekedBytes)
{
    // Two members striped at 32 KB over 64 KB store chunks: a range
    // crosses stripe units, member chunks, never-written holes (the
    // second half of the image) and a zeroed stretch.
    Simulator sim;
    DiskModel d0(sim, medallistParams());
    DiskModel d1(sim, medallistParams());
    StripingDriver stripe(sim, {&d0, &d1}, 32 * kKB);
    const auto data = pattern(2 * kMB, 5);
    stripe.poke(0, data);
    stripe.zero(300 * kKB, 200 * kKB);
    std::vector<std::uint8_t> image(4 * kMB); // what the stripe holds
    std::copy(data.begin(), data.end(), image.begin());
    std::fill_n(image.begin() + 300 * kKB, 200 * kKB, 0);
    util::Rng rng(42);
    for (int trial = 0; trial < 300; ++trial) {
        const std::uint64_t offset = rng.below(4 * kMB);
        const std::uint64_t length =
            rng.below(std::min<std::uint64_t>(1 * kMB, 4 * kMB - offset) + 1);
        const auto got = collectView(
            offset, length,
            [&](std::uint64_t at, std::uint64_t n, util::ByteSink sink) {
                stripe.view(at, n, sink);
            });
        const auto from = image.begin() + static_cast<std::ptrdiff_t>(offset);
        ASSERT_EQ(got.bytes, std::vector<std::uint8_t>(
                                 from, from + static_cast<std::ptrdiff_t>(
                                                  length)))
            << "[" << offset << ", +" << length << ")";
        // A member hands over its own image, one piece per store chunk.
        for (const BlockDevice *dev :
             {static_cast<const BlockDevice *>(&stripe),
              static_cast<const BlockDevice *>(&d0)}) {
            const auto viewed = collectView(
                offset, length,
                [&](std::uint64_t at, std::uint64_t n, util::ByteSink sink) {
                    dev->view(at, n, sink);
                });
            std::vector<std::uint8_t> peeked(length);
            dev->peek(offset, peeked);
            ASSERT_EQ(viewed.bytes, peeked)
                << "[" << offset << ", +" << length << ")";
            expectPiecesWithin(viewed, dev == &stripe ? 32 * kKB : 64 * kKB);
        }
    }
}

// ----------------------------------------------------------------- disk

/** Run one task to completion and return the elapsed simulated time. */
Tick
timed(Simulator &sim, Task<void> task)
{
    const Tick start = sim.now();
    runTask(sim, std::move(task));
    return sim.now() - start;
}

TEST(DiskParams, DerivedQuantities)
{
    const auto p = medallistParams();
    EXPECT_NEAR(p.mediaBytesPerSec(), 90.0 * 100 * 512, 1.0);
    EXPECT_NEAR(p.rotationPeriodNs(), 60.0 / 5400 * 1e9, 1.0);
    EXPECT_GT(p.totalBlocks() * 512ull, 2000ull * kMB);
}

TEST(DiskModel, SeekTimeCurve)
{
    Simulator sim;
    DiskModel disk(sim, medallistParams());
    const auto &p = disk.params();
    EXPECT_EQ(disk.seekTime(100, 100), 0u);
    EXPECT_GE(disk.seekTime(0, 1), sim::msec(p.track_to_track_ms));
    // One-third stroke lands near the advertised average.
    const Tick third = disk.seekTime(0, p.cylinders / 3);
    EXPECT_NEAR(sim::toMillis(third), p.avg_seek_ms, 0.5);
    // Full stroke respects the maximum.
    EXPECT_LE(disk.seekTime(0, p.cylinders - 1),
              sim::msec(p.max_seek_ms) + 1);
    // Monotone in distance.
    EXPECT_LT(disk.seekTime(0, 10), disk.seekTime(0, 1000));
}

TEST(DiskModel, DataRoundTrip)
{
    Simulator sim;
    DiskModel disk(sim, medallistParams());
    const auto data = pattern(8 * 512);
    timed(sim, disk.write(100, 8, data));
    std::vector<std::uint8_t> out(8 * 512);
    timed(sim, disk.read(100, 8, out));
    EXPECT_EQ(out, data);
}

TEST(DiskModel, ColdReadCostsMechanicalTime)
{
    Simulator sim;
    DiskModel disk(sim, medallistParams());
    std::vector<std::uint8_t> out(512);
    const Tick t = timed(sim, disk.read(1000000, 1, out));
    // Must include at least a seek and some rotation.
    EXPECT_GT(t, sim::msec(2));
    EXPECT_EQ(disk.stats().cache_misses.value(), 1u);
}

TEST(DiskModel, SequentialReadHitsReadahead)
{
    Simulator sim;
    DiskModel disk(sim, medallistParams());
    std::vector<std::uint8_t> out(16 * 512);
    (void)timed(sim, disk.read(0, 16, out)); // cold: loads + readahead
    const Tick t2 = timed(sim, disk.read(16, 16, out)); // prefetched
    EXPECT_EQ(disk.stats().cache_hits.value(), 1u);
    // A hit costs overhead + bus, but no seek: well under 5 ms.
    EXPECT_LT(t2, sim::msec(5));
}

TEST(DiskModel, RandomReadsDoNotHit)
{
    Simulator sim;
    DiskModel disk(sim, medallistParams());
    std::vector<std::uint8_t> out(512);
    (void)timed(sim, disk.read(0, 1, out));
    (void)timed(sim, disk.read(2000000, 1, out));
    (void)timed(sim, disk.read(500000, 1, out));
    EXPECT_EQ(disk.stats().cache_hits.value(), 0u);
    EXPECT_EQ(disk.stats().cache_misses.value(), 3u);
}

TEST(DiskModel, WriteBehindAcksFast)
{
    Simulator sim;
    auto params = medallistParams();
    DiskModel disk(sim, params);
    const auto data = pattern(64 * 1024);
    const Tick t = timed(sim, disk.write(0, 128, data));
    // Ack after overhead + bus transfer (~13 ms at 5 MB/s), long before
    // media drain completes.
    EXPECT_LT(t, sim::msec(16));
}

TEST(DiskModel, WriteThroughWaitsForMedia)
{
    Simulator sim;
    auto params = medallistParams();
    params.write_behind = false;
    DiskModel disk(sim, params);
    const auto data = pattern(64 * 1024);
    const Tick t = timed(sim, disk.write(0, 128, data));
    // Media transfer alone is ~14 ms plus bus ~13 ms plus positioning.
    EXPECT_GT(t, sim::msec(25));
}

TEST(DiskModel, SustainedWritesThrottleToMediaRate)
{
    Simulator sim;
    DiskModel disk(sim, medallistParams());
    // Write 8 MB in 256 KB chunks; buffer is 512 KB so the stream must
    // throttle to the drain rate.
    const auto chunk = pattern(256 * 1024);
    const Tick start = sim.now();
    for (int i = 0; i < 32; ++i)
        (void)timed(sim, disk.write(i * 512ull, 512, chunk));
    const double secs = sim::toSeconds(sim.now() - start);
    const double mbs = 8.0 / secs;
    // Drain rate is ~75% of 4.6 MB/s media: expect 3-5 MB/s apparent.
    EXPECT_GT(mbs, 2.5);
    EXPECT_LT(mbs, 5.0);
}

TEST(DiskModel, FlushDrainsBacklog)
{
    Simulator sim;
    DiskModel disk(sim, medallistParams());
    const auto data = pattern(256 * 1024);
    (void)timed(sim, disk.write(0, 512, data));
    const Tick t = timed(sim, disk.flush());
    EXPECT_GT(t, sim::msec(10)); // 256 KB at ~3.5 MB/s drain
}

TEST(DiskModel, WriteInvalidatesCache)
{
    Simulator sim;
    DiskModel disk(sim, medallistParams());
    std::vector<std::uint8_t> out(512);
    (void)timed(sim, disk.read(10, 1, out));
    const auto data = pattern(512, 99);
    (void)timed(sim, disk.write(10, 1, data));
    (void)timed(sim, disk.read(10, 1, out));
    EXPECT_EQ(out, data); // sees new data
}

TEST(DiskModel, ZeroIsFreeAndWritesNothing)
{
    Simulator sim;
    DiskModel disk(sim, medallistParams());
    const auto data = pattern(256 * kKB);
    disk.poke(0, data);
    disk.zero(60 * kKB, 10 * kKB); // straddles the 64 KB store chunk
    EXPECT_EQ(sim.now(), 0u);
    EXPECT_EQ(disk.stats().writes.value(), 0u);

    std::vector<std::uint8_t> out(data.size());
    timed(sim, disk.read(0, 512, out));
    for (std::size_t i = 0; i < out.size(); ++i) {
        const bool zeroed = i >= 60 * kKB && i < 70 * kKB;
        ASSERT_EQ(out[i], zeroed ? 0 : data[i]) << "byte " << i;
    }
}

TEST(DiskModel, BarracudaCachedSectorNearPaperNumber)
{
    Simulator sim;
    DiskModel disk(sim, barracudaParams());
    std::vector<std::uint8_t> out(512);
    (void)timed(sim, disk.read(0, 1, out)); // cold
    // Sequential cached single-sector reads: paper reports 0.30 ms.
    const Tick t = timed(sim, disk.read(1, 1, out));
    EXPECT_EQ(disk.stats().cache_hits.value(), 1u);
    EXPECT_NEAR(sim::toMillis(t), 0.30, 0.1);
}

TEST(DiskModel, BarracudaRandomSectorNearPaperNumber)
{
    Simulator sim;
    DiskModel disk(sim, barracudaParams());
    std::vector<std::uint8_t> out(512);
    // Average several random reads; paper reports 9.4 ms.
    constexpr int kReads = 8;
    double sum_ms = 0.0;
    const std::uint64_t stride = 997 * 1000;
    for (int i = 1; i <= kReads; ++i) {
        const Tick t = timed(
            sim, disk.read((i * stride) % disk.numBlocks(), 1, out));
        sum_ms += sim::toMillis(t);
    }
    EXPECT_NEAR(sum_ms / kReads, 9.4, 2.0);
}

// -------------------------------------------------------------- striping

TEST(Striping, GeometryAndCapacity)
{
    Simulator sim;
    DiskModel d0(sim, medallistParams());
    DiskModel d1(sim, medallistParams());
    StripingDriver stripe(sim, {&d0, &d1}, 32 * kKB);
    EXPECT_EQ(stripe.blockSize(), 512u);
    EXPECT_EQ(stripe.numBlocks(), 2 * d0.numBlocks());
    EXPECT_EQ(stripe.stripeUnitBytes(), 32 * kKB);
}

TEST(Striping, RoundTripAcrossUnits)
{
    Simulator sim;
    DiskModel d0(sim, medallistParams());
    DiskModel d1(sim, medallistParams());
    StripingDriver stripe(sim, {&d0, &d1}, 32 * kKB);

    // 200 KB spans several stripe units on both disks.
    const auto data = pattern(200 * 1024, 3);
    timed(sim, stripe.write(64, 400, data));
    std::vector<std::uint8_t> out(200 * 1024);
    timed(sim, stripe.read(64, 400, out));
    EXPECT_EQ(out, data);
}

TEST(Striping, LargeReadUsesBothDisks)
{
    Simulator sim;
    DiskModel d0(sim, medallistParams());
    DiskModel d1(sim, medallistParams());
    StripingDriver stripe(sim, {&d0, &d1}, 32 * kKB);
    std::vector<std::uint8_t> out(512 * 1024);
    timed(sim, stripe.read(0, 1024, out));
    EXPECT_GT(d0.stats().reads.value(), 0u);
    EXPECT_GT(d1.stats().reads.value(), 0u);
    // Coalescing: each disk should see exactly one request.
    EXPECT_EQ(d0.stats().reads.value(), 1u);
    EXPECT_EQ(d1.stats().reads.value(), 1u);
}

TEST(Striping, ParallelismBeatsSingleDisk)
{
    Simulator sim;
    DiskModel d0(sim, medallistParams());
    DiskModel d1(sim, medallistParams());
    DiskModel solo(sim, medallistParams());
    StripingDriver stripe(sim, {&d0, &d1}, 32 * kKB);

    std::vector<std::uint8_t> out(512 * 1024);
    const Tick striped = timed(sim, stripe.read(0, 1024, out));
    const Tick single = timed(sim, solo.read(0, 1024, out));
    EXPECT_LT(striped, single);
    // Roughly 2x for large sequential reads.
    EXPECT_LT(striped, single * 3 / 4);
}

TEST(Striping, SmallReadTouchesOneDisk)
{
    Simulator sim;
    DiskModel d0(sim, medallistParams());
    DiskModel d1(sim, medallistParams());
    StripingDriver stripe(sim, {&d0, &d1}, 32 * kKB);
    std::vector<std::uint8_t> out(4 * 1024);
    timed(sim, stripe.read(0, 8, out)); // inside the first unit
    EXPECT_EQ(d0.stats().reads.value() + d1.stats().reads.value(), 1u);
}

TEST(Striping, SequentialApparentBandwidthNearPaperRawRead)
{
    Simulator sim;
    DiskModel d0(sim, medallistParams());
    DiskModel d1(sim, medallistParams());
    StripingDriver stripe(sim, {&d0, &d1}, 32 * kKB);

    // Sequential 512 KB reads, single outstanding request, as in the
    // Figure 6 raw-read measurement: paper reports ~5 MB/s.
    std::vector<std::uint8_t> out(512 * 1024);
    const Tick start = sim.now();
    for (int i = 0; i < 8; ++i)
        timed(sim, stripe.read(i * 1024ull, 1024, out));
    const double mbs =
        4.0 / sim::toSeconds(sim.now() - start); // 4 MB total
    EXPECT_GT(mbs, 3.5);
    EXPECT_LT(mbs, 7.0);
}

TEST(Striping, ZeroSpansStripeUnitsAndStoreChunks)
{
    Simulator sim;
    DiskModel d0(sim, medallistParams());
    DiskModel d1(sim, medallistParams());
    StripingDriver stripe(sim, {&d0, &d1}, 32 * kKB);

    // [30000, 330000) starts and ends inside stripe units, crosses ten
    // unit boundaries, and covers all of d0's second 64 KB store chunk
    // (units 4 and 6) plus parts of the chunks either side of it.
    const auto data = pattern(1 * kMB, 5);
    stripe.poke(0, data);
    constexpr std::uint64_t kFrom = 30000;
    constexpr std::uint64_t kTo = 330000;
    stripe.zero(kFrom, kTo - kFrom);

    std::vector<std::uint8_t> peeked(data.size());
    stripe.peek(0, peeked);
    std::vector<std::uint8_t> read(data.size());
    timed(sim, stripe.read(0, static_cast<std::uint32_t>(kMB / 512), read));
    EXPECT_EQ(read, peeked);
    for (std::size_t i = 0; i < peeked.size(); ++i) {
        const bool zeroed = i >= kFrom && i < kTo;
        ASSERT_EQ(peeked[i], zeroed ? 0 : data[i]) << "byte " << i;
    }
    EXPECT_EQ(d0.stats().writes.value() + d1.stats().writes.value(), 0u);
}

// ------------------------- write == poke + writeBack, read == fetch + peek

/** What a batch of device ops left behind: per-op completion ticks,
 *  attribution and delivered bytes, both members' counters, and the
 *  image. */
struct BatchOutcome
{
    std::vector<Tick> done;
    std::vector<util::OpAttribution> attrs;
    std::vector<std::uint64_t> offsets; ///< each op's first byte
    std::vector<std::vector<std::uint8_t>> delivered;
    std::vector<std::uint64_t> counters;
    std::vector<std::uint8_t> image;
};

/** How runBatch() issues its ops. */
struct BatchMode
{
    bool striped = false;
    bool reads = false; ///< reads of a pre-filled image, else writes
    bool split = false; ///< poke + writeBack / fetch + peek
    bool attributed = false;
    bool write_behind = true;
};

/**
 * Issue the same ops to a fresh device either whole (write(data),
 * read(out)) or split (poke + writeBack, fetch + peek): a first batch
 * of five concurrent ops (so they queue on bus and mechanism), then
 * the same five one at a time over the now-busy device. The ranges
 * cover one piece inside a stripe unit, a range straddling a unit
 * boundary, a multi-piece 200 KB range and a 512 KB range.
 */
BatchOutcome
runBatch(const BatchMode &mode)
{
    struct Op
    {
        std::uint64_t block;
        std::uint32_t count;
    };
    const std::vector<Op> ops = {
        {0, 8}, {60, 8}, {64, 400}, {1000, 1}, {2048, 1024}};
    constexpr std::size_t kImageBytes = 3072 * 512;

    Simulator sim;
    DiskParams params = medallistParams();
    params.write_behind = mode.write_behind;
    DiskModel d0(sim, params);
    DiskModel d1(sim, params);
    StripingDriver stripe(sim, {&d0, &d1}, 32 * kKB);
    BlockDevice &dev =
        mode.striped ? static_cast<BlockDevice &>(stripe) : d0;
    if (mode.reads)
        dev.poke(0, pattern(kImageBytes, 9));

    BatchOutcome result;
    result.done.resize(2 * ops.size());
    result.attrs.resize(2 * ops.size());
    result.delivered.resize(2 * ops.size());
    const auto issue = [&](std::size_t i) {
        const Op op = ops[i % ops.size()];
        result.offsets.push_back(op.block * 512);
        util::OpAttribution *attr =
            mode.attributed ? &result.attrs[i] : nullptr;
        sim.spawn([](Simulator &s, BlockDevice &d, Op o, std::uint8_t seed,
                     BatchMode m, util::OpAttribution *a, Tick &done,
                     std::vector<std::uint8_t> &got) -> Task<void> {
            const std::uint64_t at = o.block * 512;
            if (m.reads) {
                got.resize(o.count * 512ull);
                if (m.split) {
                    co_await d.fetch(o.block, o.count, a);
                    d.peek(at, got);
                } else {
                    co_await d.read(o.block, o.count, got, a);
                }
            } else {
                const auto data = pattern(o.count * 512ull, seed);
                if (m.split) {
                    d.poke(at, data);
                    co_await d.writeBack(o.block, o.count, a);
                } else {
                    co_await d.write(o.block, o.count, data, a);
                }
            }
            done = s.now();
        }(sim, dev, op, static_cast<std::uint8_t>(i + 1), mode, attr,
                                     result.done[i], result.delivered[i]));
    };
    for (std::size_t i = 0; i < ops.size(); ++i)
        issue(i);
    sim.run();
    for (std::size_t i = ops.size(); i < 2 * ops.size(); ++i) {
        issue(i);
        sim.run();
    }

    for (const DiskModel *d : {&d0, &d1}) {
        const DiskStats &st = d->stats();
        for (const util::Counter *c :
             {&st.reads, &st.writes, &st.cache_hits, &st.cache_misses,
              &st.media_blocks_read, &st.media_blocks_written,
              &st.bus_wait_ns, &st.bus_service_ns, &st.mech_wait_ns,
              &st.mech_service_ns})
            result.counters.push_back(c->value());
    }
    result.image.resize(kImageBytes);
    dev.peek(0, result.image);
    return result;
}

void
expectSplitMatchesWhole(bool striped, bool reads)
{
    for (const bool attributed : {false, true}) {
        for (const bool write_behind : {true, false}) {
            SCOPED_TRACE(::testing::Message()
                         << "attributed=" << attributed
                         << " write_behind=" << write_behind);
            BatchMode mode{striped, reads, false, attributed, write_behind};
            const auto whole = runBatch(mode);
            mode.split = true;
            const auto split = runBatch(mode);
            EXPECT_EQ(whole.done, split.done);
            EXPECT_EQ(whole.counters, split.counters);
            EXPECT_EQ(whole.delivered, split.delivered);
            EXPECT_EQ(whole.image, split.image);
            ASSERT_EQ(whole.attrs.size(), split.attrs.size());
            for (std::size_t i = 0; i < whole.attrs.size(); ++i) {
                EXPECT_EQ(whole.attrs[i].wait_ns, split.attrs[i].wait_ns);
                EXPECT_EQ(whole.attrs[i].service_ns,
                          split.attrs[i].service_ns);
            }
            // The batch really reached both members and the media.
            const std::size_t media = reads ? 4 : 5;
            EXPECT_GT(whole.counters[media], 0u);
            if (striped) {
                EXPECT_GT(whole.counters[10 + media], 0u);
            }
            if (attributed) {
                EXPECT_GT(whole.attrs[2].totalNs(), 0u);
            }
            if (reads) {
                for (std::size_t i = 0; i < whole.delivered.size(); ++i) {
                    const auto &got = whole.delivered[i];
                    const auto at = static_cast<std::ptrdiff_t>(
                        whole.offsets[i]);
                    ASSERT_TRUE(std::equal(got.begin(), got.end(),
                                           whole.image.begin() + at));
                }
            }
        }
    }
}

TEST(DiskModel, WriteEqualsPokeThenWriteBack)
{
    expectSplitMatchesWhole(false, false);
}

TEST(Striping, WriteEqualsPokeThenWriteBack)
{
    expectSplitMatchesWhole(true, false);
}

TEST(DiskModel, ReadEqualsFetchThenPeek)
{
    expectSplitMatchesWhole(false, true);
}

TEST(Striping, ReadEqualsFetchThenPeek)
{
    expectSplitMatchesWhole(true, true);
}

} // namespace
} // namespace nasd::disk
