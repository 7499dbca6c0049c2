/**
 * @file
 * Wall-clock microbenchmarks (google-benchmark) for the real
 * computational kernels of the library — the pieces that execute
 * actual work rather than simulated time: SHA-256/HMAC, capability
 * mint/verify, the byte codec, the extent allocator, the object
 * store's read and write data planes, and the frequent-sets counting
 * kernel.
 *
 * These measure THIS implementation on THIS host; they are not part of
 * the paper reproduction, but they justify design choices (e.g. that
 * software HMAC per request is trivial for the file manager while
 * per-byte data MACs are not — the same asymmetry the paper's
 * hardware argument rests on).
 */
#include <benchmark/benchmark.h>

#include <algorithm>
#include <span>
#include <vector>

#include "apps/frequent_sets.h"
#include "apps/transactions.h"
#include "crypto/hmac.h"
#include "crypto/keychain.h"
#include "disk/disk_model.h"
#include "disk/params.h"
#include "disk/striping.h"
#include "nasd/allocator.h"
#include "nasd/capability.h"
#include "nasd/object_store.h"
#include "sim/simulator.h"
#include "util/codec.h"
#include "util/rng.h"

using namespace nasd;

namespace {

crypto::Key
testKey()
{
    crypto::Key key{};
    for (std::size_t i = 0; i < key.size(); ++i)
        key[i] = static_cast<std::uint8_t>(i * 7 + 1);
    return key;
}

void
BM_Sha256(benchmark::State &state)
{
    std::vector<std::uint8_t> data(state.range(0), 0xab);
    for (auto _ : state) {
        benchmark::DoNotOptimize(crypto::Sha256::hash(data));
    }
    state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(4096)->Arg(65536);

void
BM_HmacSha256(benchmark::State &state)
{
    const auto key = testKey();
    std::vector<std::uint8_t> data(state.range(0), 0xcd);
    for (auto _ : state) {
        benchmark::DoNotOptimize(crypto::HmacSha256::mac(key, data));
    }
    state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HmacSha256)->Arg(64)->Arg(4096)->Arg(65536);

CapabilityPublic
benchCapability()
{
    CapabilityPublic pub;
    pub.partition = 3;
    pub.object_id = 0x1234;
    pub.rights = kRightRead | kRightWrite;
    return pub;
}

// Cold: a new key epoch per mint, so every mint derives the working key
// through the whole hierarchy.
void
BM_CapabilityMint(benchmark::State &state)
{
    CapabilityIssuer issuer(testKey(), 1);
    CapabilityPublic pub = benchCapability();
    for (auto _ : state) {
        benchmark::DoNotOptimize(issuer.mint(pub));
        ++pub.key_epoch;
    }
}
BENCHMARK(BM_CapabilityMint);

// Warm: the working key is memoized, as for every mint after the first
// at one epoch; only the capability MAC is computed.
void
BM_CapabilityMintWarm(benchmark::State &state)
{
    CapabilityIssuer issuer(testKey(), 1);
    const CapabilityPublic pub = benchCapability();
    for (auto _ : state) {
        benchmark::DoNotOptimize(issuer.mint(pub));
    }
}
BENCHMARK(BM_CapabilityMintWarm);

// Re-keys HMAC from the private portion for every digest.
void
BM_RequestDigest(benchmark::State &state)
{
    const Capability cap = CapabilityIssuer(testKey(), 1).mint(
        benchCapability());
    const RequestParams params{OpCode::kReadData, 3, 0x1234, 0, 8192};
    std::uint64_t nonce = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            requestMac(cap.private_key, params, ++nonce));
    }
}
BENCHMARK(BM_RequestDigest);

// What clients and the drive pay: a copy of a keyed context per digest.
void
BM_RequestDigestKeyed(benchmark::State &state)
{
    CredentialFactory cred(
        CapabilityIssuer(testKey(), 1).mint(benchCapability()));
    const RequestParams params{OpCode::kReadData, 3, 0x1234, 0, 8192};
    for (auto _ : state) {
        benchmark::DoNotOptimize(cred.forRequest(params));
    }
}
BENCHMARK(BM_RequestDigestKeyed);

// Cold: a new epoch per call, so the memo never hits.
void
BM_KeyHierarchyDerivation(benchmark::State &state)
{
    crypto::KeyChain chain(testKey());
    std::uint32_t epoch = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(chain.workingKey(
            1, 3, crypto::WorkingKeyKind::kBlack, epoch++));
    }
}
BENCHMARK(BM_KeyHierarchyDerivation);

void
BM_KeyHierarchyDerivationWarm(benchmark::State &state)
{
    crypto::KeyChain chain(testKey());
    for (auto _ : state) {
        benchmark::DoNotOptimize(chain.workingKey(
            1, 3, crypto::WorkingKeyKind::kBlack, 0));
    }
}
BENCHMARK(BM_KeyHierarchyDerivationWarm);

void
BM_CodecEncodeDecode(benchmark::State &state)
{
    for (auto _ : state) {
        std::vector<std::uint8_t> buf;
        util::Encoder enc(buf);
        for (int i = 0; i < 16; ++i)
            enc.put<std::uint64_t>(0x0123456789abcdefULL + i);
        util::Decoder dec(buf);
        std::uint64_t sum = 0;
        for (int i = 0; i < 16; ++i)
            sum += dec.get<std::uint64_t>();
        benchmark::DoNotOptimize(sum);
    }
}
BENCHMARK(BM_CodecEncodeDecode);

void
BM_AllocatorChurn(benchmark::State &state)
{
    for (auto _ : state) {
        ExtentAllocator alloc(4096);
        std::vector<std::vector<Extent>> held;
        util::Rng rng(7);
        for (int i = 0; i < 64; ++i) {
            auto got = alloc.allocate(
                static_cast<std::uint32_t>(1 + rng.below(32)),
                static_cast<std::uint32_t>(rng.below(4096)));
            if (got.ok())
                held.push_back(got.value());
            if (held.size() > 16) {
                for (const auto &e : held.front())
                    alloc.unref(e);
                held.erase(held.begin());
            }
        }
        benchmark::DoNotOptimize(alloc.freeUnits());
    }
}
BENCHMARK(BM_AllocatorChurn);

/**
 * The drive's read data plane: 512 KB ObjectStore::read calls on the
 * prototype's two Medallists striped at 32 KB. Arg 0 streams a 4 MB
 * object through a 512 KB unit cache, so every read misses and goes
 * through the device; arg 1 caches the whole object, so every read
 * hits. Host time includes the simulator events the read schedules.
 */
void
BM_ObjectStoreRead(benchmark::State &state)
{
    const bool hit = state.range(0) != 0;
    constexpr std::size_t kRead = 512 * 1024;
    constexpr std::uint64_t kObject = 8 * kRead;

    sim::Simulator sim;
    disk::DiskModel d0(sim, disk::medallistParams());
    disk::DiskModel d1(sim, disk::medallistParams());
    disk::StripingDriver stripe(sim, {&d0, &d1}, 32 * 1024);
    StoreConfig config;
    config.data_cache_bytes = hit ? kObject : kRead;
    ObjectStore store(sim, stripe, config);
    sim.spawn(store.format());
    sim.run();
    if (!store.createPartition(0, 2 * kObject).ok()) {
        state.SkipWithError("createPartition failed");
        return;
    }
    const ObjectId oid = runFor(sim, store.createObject(0, kObject)).value();
    std::vector<std::uint8_t> data(kObject);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<std::uint8_t>(i * 13 + 1);
    if (!runFor(sim, store.write(0, oid, 0, data)).ok()) {
        state.SkipWithError("write failed");
        return;
    }
    sim.spawn(store.flushAll());
    sim.run();

    std::vector<std::uint8_t> out(kRead);
    std::uint64_t offset = 0;
    for (auto _ : state) {
        const auto n = runFor(sim, store.read(0, oid, offset, out));
        benchmark::DoNotOptimize(n);
        benchmark::DoNotOptimize(out.data());
        if (!hit)
            offset = (offset + kRead) % kObject;
    }
    state.SetBytesProcessed(state.iterations() *
                            static_cast<std::int64_t>(kRead));
}
BENCHMARK(BM_ObjectStoreRead)->ArgName("hit")->Arg(0)->Arg(1);

/**
 * The drive's write data plane: 512 KB ObjectStore::write calls on the
 * same striped Medallists. Arg 0 grows a fresh object, so each write
 * allocates and zeroes units and writes back the refcount region;
 * every 8 writes the object is truncated to empty, untimed. Arg 1
 * overwrites a 4 MB object in place. Host time includes the simulator
 * events the write schedules, media write-back included.
 */
void
BM_ObjectStoreWrite(benchmark::State &state)
{
    const bool overwrite = state.range(0) != 0;
    constexpr std::size_t kWrite = 512 * 1024;
    constexpr std::uint64_t kObject = 8 * kWrite;

    sim::Simulator sim;
    disk::DiskModel d0(sim, disk::medallistParams());
    disk::DiskModel d1(sim, disk::medallistParams());
    disk::StripingDriver stripe(sim, {&d0, &d1}, 32 * 1024);
    ObjectStore store(sim, stripe, StoreConfig{});
    sim.spawn(store.format());
    sim.run();
    if (!store.createPartition(0, 2 * kObject).ok()) {
        state.SkipWithError("createPartition failed");
        return;
    }
    const ObjectId oid = runFor(sim, store.createObject(0, 0)).value();
    std::vector<std::uint8_t> data(kWrite);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<std::uint8_t>(i * 13 + 1);
    if (overwrite) {
        for (std::uint64_t at = 0; at < kObject; at += kWrite) {
            if (!runFor(sim, store.write(0, oid, at, data)).ok()) {
                state.SkipWithError("write failed");
                return;
            }
        }
    }

    std::uint64_t offset = 0;
    bool grown = false;
    for (auto _ : state) {
        if (!overwrite && offset == 0 && grown) {
            state.PauseTiming();
            SetAttrRequest empty;
            empty.truncate_size = 0;
            (void)runFor(sim, store.setAttributes(0, oid, empty));
            state.ResumeTiming();
        }
        const auto n = runFor(sim, store.write(0, oid, offset, data));
        benchmark::DoNotOptimize(n);
        if (!n.ok()) {
            state.SkipWithError("write failed");
            return;
        }
        grown = true;
        offset = (offset + kWrite) % kObject;
    }
    state.SetBytesProcessed(state.iterations() *
                            static_cast<std::int64_t>(kWrite));
}
BENCHMARK(BM_ObjectStoreWrite)->ArgName("overwrite")->Arg(0)->Arg(1);

/** Dataset params with the benchmark's catalog size: 500 items as in
 *  fig9 and perfbench, 1000 as in the default DatasetParams. */
apps::DatasetParams
catalogParams(const benchmark::State &state)
{
    apps::DatasetParams params;
    params.catalog_items = static_cast<std::uint32_t>(state.range(0));
    return params;
}

void
BM_TransactionGeneration(benchmark::State &state)
{
    apps::TransactionGenerator gen(catalogParams(state));
    std::uint64_t index = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(gen.chunk(index++));
    }
    state.SetBytesProcessed(state.iterations() * apps::kChunkBytes);
}
BENCHMARK(BM_TransactionGeneration)->ArgName("catalog")->Arg(500)->Arg(1000);

/// Counts the first piece_kb of one chunk: a whole 2 MB chunk, as a
/// PFS or NFS client counts it, or one 512 KB Active Disks scan piece
/// (ActiveDiskRuntime::kScanChunkBytes).
void
BM_FrequentSetsCounting(benchmark::State &state)
{
    const auto params = catalogParams(state);
    apps::TransactionGenerator gen(params);
    const auto chunk = gen.chunk(0);
    const auto piece = std::span<const std::uint8_t>(chunk).first(
        static_cast<std::size_t>(state.range(1)) * 1024);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            apps::countOneItemsets(piece, params.catalog_items));
    }
    state.SetBytesProcessed(state.iterations() * state.range(1) * 1024);
}
BENCHMARK(BM_FrequentSetsCounting)
    ->ArgNames({"catalog", "piece_kb"})
    ->Args({500, 2048})
    ->Args({1000, 2048})
    ->Args({500, 512});

/**
 * An Active Disks scan's host work over an image of 16 chunks (32 MB,
 * larger than L2), delivered in 64 KB pieces as a drive's image holds
 * them. Arg 1 counts each piece where it lies
 * (apps::OneItemsetCounter); arg 0 copies the pieces into a 512 KB
 * scan chunk and counts each whole chunk, as the copying read path did.
 */
void
BM_FrequentSetsInPlace(benchmark::State &state)
{
    const bool in_place = state.range(0) != 0;
    constexpr std::size_t kPiece = 64 * 1024;
    constexpr std::size_t kChunk = 512 * 1024;
    constexpr std::uint64_t kImageChunks = 16;
    const auto params = catalogParams(state);
    apps::TransactionGenerator gen(params);
    std::vector<std::uint8_t> image;
    image.reserve(kImageChunks * apps::kChunkBytes);
    for (std::uint64_t i = 0; i < kImageChunks; ++i) {
        const auto chunk = gen.chunk(i);
        image.insert(image.end(), chunk.begin(), chunk.end());
    }
    std::vector<std::uint8_t> chunk(kChunk);
    const std::span<const std::uint8_t> bytes(image);
    for (auto _ : state) {
        apps::OneItemsetCounter counter(params.catalog_items);
        for (std::size_t at = 0; at < bytes.size(); at += kChunk) {
            for (std::size_t p = 0; p < kChunk; p += kPiece) {
                const auto piece = bytes.subspan(at + p, kPiece);
                if (in_place)
                    counter.add(piece);
                else
                    std::copy(piece.begin(), piece.end(), chunk.begin() + p);
            }
            if (!in_place) {
                benchmark::DoNotOptimize(chunk.data());
                counter.add(chunk);
            }
        }
        benchmark::DoNotOptimize(counter.counts().data());
    }
    state.SetBytesProcessed(state.iterations() *
                            static_cast<std::int64_t>(bytes.size()));
}
BENCHMARK(BM_FrequentSetsInPlace)
    ->ArgNames({"catalog", "in_place"})
    ->Args({500, 0})
    ->Args({500, 1});

} // namespace

BENCHMARK_MAIN();
