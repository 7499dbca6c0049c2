#include "workloads.h"

#include <algorithm>
#include <cstring>
#include <optional>
#include <utility>

#include "active/active.h"
#include "apps/frequent_sets.h"
#include "apps/transactions.h"
#include "cheops/cheops.h"
#include "disk/disk_model.h"
#include "disk/params.h"
#include "disk/striping.h"
#include "fs/ffs/ffs.h"
#include "fs/nfs/nfs_client.h"
#include "fs/nfs/nfs_server.h"
#include "net/presets.h"
#include "pfs/pfs.h"
#include "sim/simulator.h"
#include "sim/sync.h"
#include "util/flight_recorder.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/units.h"

namespace nasdbench {

using namespace nasd;
using util::kKB;
using util::kMB;

namespace {

constexpr std::uint32_t kCatalogItems = 500;
/// The paper's mining dataset: 150 chunks of 2 MB.
constexpr std::uint64_t kPaperChunks = 150;
constexpr std::uint64_t kTinyChunks = 8;
/// Mining producers: 512 KB reads, four outstanding per 2 MB chunk.
constexpr std::uint64_t kReadBytes = 512 * kKB;
/// Targets that do not exist, for --inject fail.
constexpr std::uint64_t kBogusObject = 999999;

double
toMs(sim::Tick t)
{
    return static_cast<double>(t) * 1e-6;
}

apps::DatasetParams
datasetParams(std::uint64_t seed)
{
    apps::DatasetParams p;
    p.catalog_items = kCatalogItems;
    p.seed = seed;
    return p;
}

/** Seed of round @p index's op stream, start phase and start order. */
std::uint64_t
roundSeed(std::uint64_t seed, std::uint64_t index)
{
    return seed * 0x9e3779b97f4a7c15ULL + index + 1;
}

/** The per-run state every cluster needs: its own metrics registry
 *  and flight recorder (so rebuilt clusters reuse instance names),
 *  the simulator and the switch. Members die in reverse order. */
struct Base
{
    util::MetricsScope metrics;
    util::FlightRecorderScope flight;
    sim::Simulator sim;
    net::Network net{sim};
};

template <typename T>
T
runFor(sim::Simulator &sim, sim::Task<T> task, Spans &spans)
{
    std::optional<T> result;
    sim.spawn([](sim::Task<T> t, std::optional<T> &out) -> sim::Task<void> {
        out = co_await std::move(t);
    }(std::move(task), result));
    {
        Spans::Host span(spans, "sim.run");
        sim.run();
    }
    return std::move(*result);
}

void
runTask(sim::Simulator &sim, sim::Task<void> task, Spans &spans)
{
    sim.spawn(std::move(task));
    Spans::Host span(spans, "sim.run");
    sim.run();
}

/**
 * Begin a round: idle until a seeded point of the platters' revolution
 * (a disk's rotational position is a function of the simulated clock),
 * where all @p n clients then start at the same instant. Returns the
 * order in which to start them, which only breaks the tie between those
 * simultaneous events: fig9_mining uses rank order (what @p rank_order
 * gives); otherwise the seed picks it.
 */
std::vector<int>
startRound(sim::Simulator &sim, util::Rng &rng, const disk::DiskParams &disk,
           int n, bool rank_order, Spans &spans)
{
    const auto gap = static_cast<sim::Tick>(
        rng.below(static_cast<std::uint64_t>(disk.rotationPeriodNs())));
    runTask(sim,
            [](sim::Simulator &s, sim::Tick t) -> sim::Task<void> {
                co_await s.delay(t);
            }(sim, gap),
            spans);
    std::vector<int> order(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
        order[static_cast<std::size_t>(i)] = i;
    if (!rank_order) {
        for (std::size_t i = order.size(); i > 1; --i)
            std::swap(order[i - 1], order[rng.below(i)]);
    }
    return order;
}

sim::Task<void>
flushAll(sim::Simulator &sim, const std::vector<NasdDrive *> &drives)
{
    std::vector<sim::Task<void>> flushes;
    for (NasdDrive *d : drives)
        flushes.push_back(d->store().flushAll());
    co_await sim::parallelAll(sim, std::move(flushes));
}

/** Generates the dataset chunk by chunk; the first time through it
 *  also counts each chunk into the reference, outside setup time. */
class Dataset
{
  public:
    Dataset(std::uint64_t seed, std::uint64_t chunks)
        : gen_(datasetParams(seed)), chunks_(chunks)
    {}

    std::uint64_t chunks() const { return chunks_; }
    std::uint64_t bytes() const { return chunks_ * apps::kChunkBytes; }
    const apps::ItemCounts &reference() const { return reference_; }

    std::vector<std::uint8_t>
    chunk(std::uint64_t index, Spans &spans, double &excluded)
    {
        std::vector<std::uint8_t> data;
        {
            Spans::Host span(spans, "apps.gen");
            data = gen_.chunk(index);
        }
        if (counted_ < chunks_ && index == counted_) {
            const double t0 = hostNow();
            if (reference_.empty())
                reference_.assign(kCatalogItems, 0);
            apps::mergeCounts(reference_,
                              apps::countOneItemsets(data, kCatalogItems));
            ++counted_;
            excluded += hostNow() - t0;
        }
        return data;
    }

  private:
    apps::TransactionGenerator gen_;
    std::uint64_t chunks_;
    std::uint64_t counted_ = 0;
    apps::ItemCounts reference_;
};

/** Compare a round's merged counts with the reference; the delivered
 *  bytes count as verified only if they match. */
void
checkCounts(const std::vector<apps::ItemCounts> &partials,
            const apps::ItemCounts &reference, bool corrupt, RoundResult &r)
{
    apps::ItemCounts merged(kCatalogItems, 0);
    for (const auto &p : partials)
        apps::mergeCounts(merged, p);
    if (corrupt)
        merged[1] += 1;
    if (merged == reference) {
        r.verified_bytes = r.bytes;
        return;
    }
    r.correct = false;
    std::size_t item = 0;
    while (item < merged.size() && merged[item] == reference[item])
        ++item;
    r.mismatches.push_back(
        "itemset counts differ from the reference at item " +
        std::to_string(item) + ": " + std::to_string(merged[item]) +
        " vs " + std::to_string(reference[item]));
}

// ------------------------------------------------------------- mining

/** One producer read of a mining chunk, timed in simulated time. */
template <typename ReadFn>
sim::Task<void>
timedRead(sim::Simulator &sim, ReadFn &read, std::uint64_t offset,
          std::span<std::uint8_t> out, bool bogus, std::uint64_t request,
          const char *layer_op, RoundResult &r, Spans &spans)
{
    const sim::Tick t0 = sim.now();
    const bool ok = co_await read(offset, out, bogus);
    const sim::Tick t1 = sim.now();
    ++r.attempted;
    ++r.counts[std::string(layer_op) + "_ops"];
    if (ok) {
        r.bytes += out.size();
    } else {
        ++r.failed;
        ++r.counts[std::string(layer_op) + "_failed"];
    }
    r.latency_ms.push_back(toMs(t1 - t0));
    spans.sim(layer_op, request, false, t0, t1);
}

/**
 * A mining client (the Figure 9 pass-1 loop): chunks first, first +
 * stride, ... each arrive as four parallel 512 KB reads, then the
 * client CPU runs the counting kernel over them.
 */
template <typename ReadFn>
sim::Task<void>
mineClient(sim::Simulator &sim, sim::CpuResource &cpu, ReadFn read,
           std::uint64_t chunks, std::uint64_t first, std::uint64_t stride,
           bool fail_first, const char *layer_op, apps::ItemCounts &counts,
           RoundResult &r, Spans &spans, sim::Tick &finished)
{
    std::vector<std::uint8_t> buf(apps::kChunkBytes);
    for (std::uint64_t c = first; c < chunks; c += stride) {
        const std::uint64_t request = spans.newRequest();
        const sim::Tick begin = sim.now();
        std::fill(buf.begin(), buf.end(), 0);
        std::vector<sim::Task<void>> producers;
        for (std::uint64_t off = 0; off < apps::kChunkBytes;
             off += kReadBytes) {
            producers.push_back(timedRead(
                sim, read, c * apps::kChunkBytes + off,
                std::span<std::uint8_t>(buf.data() + off, kReadBytes),
                std::exchange(fail_first, false), request, layer_op, r,
                spans));
        }
        co_await sim::parallelAll(sim, std::move(producers));
        co_await cpu.executeAt(
            static_cast<std::uint64_t>(apps::kCountingCyclesPerByte *
                                       static_cast<double>(buf.size())),
            1.0);
        apps::ItemCounts part;
        {
            Spans::Host span(spans, "apps.count");
            part = apps::countOneItemsets(buf, kCatalogItems);
        }
        r.counts["apps.count_bytes"] += buf.size();
        apps::mergeCounts(counts, part);
        spans.sim("apps.chunk", request, true, begin, sim.now());
    }
    finished = std::max(finished, sim.now());
}

/** Spawn @p n mining clients over one shared file, chunks round-robin,
 *  run them to completion and check the counts. */
template <typename MakeRead>
RoundResult
mineRound(Base &b, std::uint64_t seed, std::uint64_t index,
          const Options &opts, const Dataset &data, int n,
          const disk::DiskParams &disk, const char *layer_op, Spans &spans,
          MakeRead make_read, const std::vector<net::NetNode *> &nodes)
{
    RoundResult r;
    std::vector<apps::ItemCounts> partials(
        n, apps::ItemCounts(kCatalogItems, 0));
    util::Rng rng(roundSeed(seed, index));
    const auto order =
        startRound(b.sim, rng, disk, n, opts.rank_order, spans);
    const sim::Tick start = b.sim.now();
    sim::Tick finished = start;
    for (const int i : order) {
        b.sim.spawn(mineClient(
            b.sim, nodes[i]->cpu(), make_read(i), data.chunks(),
            static_cast<std::uint64_t>(i), static_cast<std::uint64_t>(n),
            opts.inject == Inject::kFail && index == 0 && i == 0, layer_op,
            partials[i], r, spans, finished));
    }
    {
        Spans::Host span(spans, "sim.run");
        b.sim.run();
    }
    r.sim_seconds = sim::toSeconds(finished - start);
    checkCounts(partials, data.reference(),
                opts.inject == Inject::kCorrupt && index == 0, r);
    return r;
}

/**
 * mine_nasd: Figure 9's NASD PFS configuration at 8 drives. Eight
 * clients mine one PFS file striped over 8 prototype drives (512 KB
 * stripe unit); per drive the dataset exceeds the 32 MB object cache.
 */
class MineNasd : public Workload
{
  public:
    explicit MineNasd(const Options &opts)
        : opts_(opts),
          data_(opts.seed, opts.size == Size::kTiny ? kTinyChunks
                                                    : kPaperChunks)
    {}

    double
    setup(Spans &spans) override
    {
        double excluded = 0;
        c_.reset();
        c_ = std::make_unique<Cluster>();
        Cluster &c = *c_;
        for (int i = 0; i < kDrives; ++i) {
            c.drives.push_back(std::make_unique<NasdDrive>(
                c.sim, c.net,
                prototypeDriveConfig("nasd" + std::to_string(i), i + 1)));
            c.raw.push_back(c.drives.back().get());
        }
        auto &mgr_node = c.net.addNode("mgr", net::alphaStation500(),
                                       net::oc3Link(), net::dceRpcCosts());
        c.storage = std::make_unique<cheops::CheopsManager>(
            c.sim, c.net, mgr_node, c.raw, 0);
        runTask(c.sim, c.storage->initialize(1024 * kMB), spans);
        c.manager = std::make_unique<pfs::PfsManager>(*c.storage);

        auto &loader_node = c.net.addNode("loader", net::alphaStation255(),
                                          net::oc3Link(), net::dceRpcCosts());
        c.loader = std::make_unique<pfs::PfsClient>(c.net, loader_node,
                                                    *c.manager, c.raw);
        c.handle =
            runFor(c.sim, c.loader->open("sales", true, true), spans).value();
        for (std::uint64_t k = 0; k < data_.chunks(); ++k) {
            const auto chunk = data_.chunk(k, spans, excluded);
            Spans::Host span(spans, "setup.load");
            auto w = runFor(c.sim,
                            c.loader->write(c.handle,
                                            k * apps::kChunkBytes, chunk),
                            spans);
            NASD_ASSERT(w.ok(), "mine_nasd: load write failed");
        }
        runTask(c.sim, flushAll(c.sim, c.raw), spans);

        for (int i = 0; i < kDrives; ++i) {
            auto &node = c.net.addNode("client" + std::to_string(i),
                                       net::alphaStation255(),
                                       net::oc3Link(), net::dceRpcCosts());
            c.nodes.push_back(&node);
            c.clients.push_back(std::make_unique<pfs::PfsClient>(
                c.net, node, *c.manager, c.raw));
            auto h = runFor(c.sim, c.clients.back()->open("sales", false,
                                                          false),
                            spans);
            NASD_ASSERT(h.ok(), "mine_nasd: client open failed");
        }
        return excluded;
    }

    RoundResult
    round(std::uint64_t index, Spans &spans) override
    {
        Cluster &c = *c_;
        return mineRound(
            c, opts_.seed, index, opts_, data_, kDrives,
            disk::medallistParams(), "pfs.read", spans,
            [&c](int i) {
                pfs::PfsClient *client = c.clients[i].get();
                const pfs::PfsHandle handle = c.handle;
                return [client, handle](std::uint64_t off,
                                        std::span<std::uint8_t> out,
                                        bool bogus) -> sim::Task<bool> {
                    pfs::PfsHandle h = handle;
                    if (bogus)
                        h.object = kBogusObject;
                    auto res = co_await client->read(h, off, out);
                    co_return res.ok() && res.value() == out.size();
                };
            },
            c.nodes);
    }

    std::uint64_t genChunks() const override { return data_.chunks(); }
    std::uint32_t
    diskBlockBytes() const override
    {
        return disk::medallistParams().block_size;
    }
    const char *opName() const override { return "PfsClient::read 512 KB"; }

  private:
    static constexpr int kDrives = 8;

    struct Cluster : Base
    {
        std::vector<std::unique_ptr<NasdDrive>> drives;
        std::vector<NasdDrive *> raw;
        std::unique_ptr<cheops::CheopsManager> storage;
        std::unique_ptr<pfs::PfsManager> manager;
        std::unique_ptr<pfs::PfsClient> loader;
        pfs::PfsHandle handle;
        std::vector<net::NetNode *> nodes;
        std::vector<std::unique_ptr<pfs::PfsClient>> clients;
    };

    Options opts_;
    Dataset data_;
    std::unique_ptr<Cluster> c_;
};

/**
 * mine_nfs: Figure 9's NFS configuration at 8 disks. Ten clients read
 * one file striped (64 KB) over 8 Cheetah disks behind one NFS server
 * (AlphaStation 500, two OC-3 links, 64 MB buffer cache), with
 * NFSv3-style 32 KB transfers, eight outstanding.
 */
class MineNfs : public Workload
{
  public:
    explicit MineNfs(const Options &opts)
        : opts_(opts),
          data_(opts.seed, opts.size == Size::kTiny ? kTinyChunks
                                                    : kPaperChunks)
    {}

    double
    setup(Spans &spans) override
    {
        double excluded = 0;
        c_.reset();
        c_ = std::make_unique<Cluster>();
        Cluster &c = *c_;
        net::LinkParams server_link = net::oc3Link();
        server_link.mbps = 2 * 155.0;
        auto &server_node = c.net.addNode("nfs-server",
                                          net::alphaStation500(),
                                          server_link, net::dceRpcCosts());
        std::vector<disk::BlockDevice *> members;
        for (int i = 0; i < kDisks; ++i) {
            c.disks.push_back(std::make_unique<disk::DiskModel>(
                c.sim, disk::cheetahParams()));
            members.push_back(c.disks.back().get());
        }
        c.stripe = std::make_unique<disk::StripingDriver>(c.sim, members,
                                                          64 * kKB);
        fs::FfsParams server_fs;
        server_fs.buffer_cache_bytes = 64 * kMB;
        server_fs.readahead_clusters = 8;
        c.volume = std::make_unique<fs::FfsFileSystem>(
            c.sim, *c.stripe, &server_node.cpu(), server_fs);
        runTask(c.sim, c.volume->format(), spans);
        c.server = std::make_unique<fs::NfsServer>(c.sim, server_node);
        const std::uint32_t volume = c.server->addVolume(*c.volume);

        auto ino =
            runFor(c.sim, c.volume->create(fs::kRootInode, "sales"), spans);
        NASD_ASSERT(ino.ok(), "mine_nfs: create failed");
        for (std::uint64_t k = 0; k < data_.chunks(); ++k) {
            const auto chunk = data_.chunk(k, spans, excluded);
            Spans::Host span(spans, "setup.load");
            auto w = runFor(c.sim,
                            c.volume->write(ino.value(),
                                            k * apps::kChunkBytes, chunk),
                            spans);
            NASD_ASSERT(w.ok(), "mine_nfs: load write failed");
        }
        runTask(c.sim, c.volume->sync(), spans);
        c.file = fs::NfsFileHandle{volume, ino.value()};

        // Fill the file's eight sequential-stream trackers with one read
        // at a time. FfsFileSystem::readBlocks keeps a pointer into the
        // tracker vector across co_await, so growing that vector while
        // other reads are suspended (ten clients starting at once) is a
        // use-after-free; a full table never reallocates.
        std::vector<std::uint8_t> probe(8 * kKB);
        for (std::uint64_t k = 0; k < 8; ++k) {
            auto r = runFor(c.sim,
                            c.volume->read(ino.value(), k * data_.bytes() / 8,
                                           probe),
                            spans);
            NASD_ASSERT(r.ok(), "mine_nfs: tracker warm-up read failed");
        }

        fs::NfsClientParams mount;
        mount.rsize = 32 * kKB;
        mount.wsize = 32 * kKB;
        for (int i = 0; i < kClients; ++i) {
            auto &node = c.net.addNode("client" + std::to_string(i),
                                       net::alphaStation255(),
                                       net::oc3Link(), net::dceRpcCosts());
            c.nodes.push_back(&node);
            c.clients.push_back(std::make_unique<fs::NfsClient>(
                c.net, node, *c.server, mount));
        }
        return excluded;
    }

    RoundResult
    round(std::uint64_t index, Spans &spans) override
    {
        Cluster &c = *c_;
        return mineRound(
            c, opts_.seed, index, opts_, data_, kClients,
            disk::cheetahParams(), "nfs.read", spans,
            [&c](int i) {
                fs::NfsClient *client = c.clients[i].get();
                const fs::NfsFileHandle file = c.file;
                return [client, file](std::uint64_t off,
                                      std::span<std::uint8_t> out,
                                      bool bogus) -> sim::Task<bool> {
                    fs::NfsFileHandle fh = file;
                    if (bogus)
                        fh.ino = static_cast<std::uint32_t>(kBogusObject);
                    auto res = co_await client->read(fh, off, out);
                    co_return res.ok() && res.value() == out.size();
                };
            },
            c.nodes);
    }

    std::uint64_t genChunks() const override { return data_.chunks(); }
    std::uint32_t
    diskBlockBytes() const override
    {
        return disk::cheetahParams().block_size;
    }
    const char *opName() const override { return "NfsClient::read 512 KB"; }

  private:
    static constexpr int kDisks = 8;
    static constexpr int kClients = 10;

    struct Cluster : Base
    {
        std::vector<std::unique_ptr<disk::DiskModel>> disks;
        std::unique_ptr<disk::StripingDriver> stripe;
        std::unique_ptr<fs::FfsFileSystem> volume;
        std::unique_ptr<fs::NfsServer> server;
        fs::NfsFileHandle file;
        std::vector<net::NetNode *> nodes;
        std::vector<std::unique_ptr<fs::NfsClient>> clients;
    };

    Options opts_;
    Dataset data_;
    std::unique_ptr<Cluster> c_;
};

// ------------------------------------------------------------- parity

/**
 * parity_update: four clients on one RAID-5 Cheops object (8 data
 * units + rotating parity over 9 drives, 32 KB stripe unit). Client k
 * owns rows k, k+4, ... so every read has one right answer. Each op
 * is a read (half), a sub-row read-modify-write (a quarter) or a
 * full-row write (a quarter). A round ends with flushAll.
 */
class ParityUpdate : public Workload
{
  public:
    explicit ParityUpdate(const Options &opts)
        : opts_(opts), data_(opts.seed, opts.size == Size::kTiny ? 2 : 12),
          decks_per_client_(opts.size == Size::kTiny ? 1 : 4)
    {}

    double
    setup(Spans &spans) override
    {
        double excluded = 0;
        c_.reset();
        c_ = std::make_unique<Cluster>();
        Cluster &c = *c_;
        for (int i = 0; i < kDrives; ++i) {
            c.drives.push_back(std::make_unique<NasdDrive>(
                c.sim, c.net,
                prototypeDriveConfig("nasd" + std::to_string(i), i + 1)));
            c.raw.push_back(c.drives.back().get());
        }
        auto &mgr_node = c.net.addNode("mgr", net::alphaStation500(),
                                       net::oc3Link(), net::dceRpcCosts());
        c.storage = std::make_unique<cheops::CheopsManager>(
            c.sim, c.net, mgr_node, c.raw, 0);
        runTask(c.sim, c.storage->initialize(1024 * kMB), spans);
        auto &loader_node = c.net.addNode("loader", net::alphaStation255(),
                                          net::oc3Link(), net::dceRpcCosts());
        c.loader = std::make_unique<cheops::CheopsClient>(
            c.net, loader_node, *c.storage, c.raw);
        c.object = runFor(c.sim,
                          c.loader->create(kUnit, kWidth, data_.bytes(),
                                           cheops::Redundancy::kParity),
                          spans)
                       .value();
        model_.assign(data_.bytes(), 0);
        for (std::uint64_t k = 0; k < data_.chunks(); ++k) {
            const auto chunk = data_.chunk(k, spans, excluded);
            std::memcpy(model_.data() + k * apps::kChunkBytes, chunk.data(),
                        chunk.size());
            Spans::Host span(spans, "setup.load");
            auto w = runFor(c.sim,
                            c.loader->write(c.object, k * apps::kChunkBytes,
                                            chunk),
                            spans);
            NASD_ASSERT(w.ok(), "parity_update: load write failed");
        }
        runTask(c.sim, flushAll(c.sim, c.raw), spans);
        for (int i = 0; i < kClients; ++i) {
            auto &node = c.net.addNode("client" + std::to_string(i),
                                       net::alphaStation255(),
                                       net::oc3Link(), net::dceRpcCosts());
            c.clients.push_back(std::make_unique<cheops::CheopsClient>(
                c.net, node, *c.storage, c.raw));
        }
        return excluded;
    }

    RoundResult
    round(std::uint64_t index, Spans &spans) override
    {
        Cluster &c = *c_;
        RoundResult r;
        util::Rng rng(roundSeed(opts_.seed, index));
        const auto order = startRound(c.sim, rng, disk::medallistParams(),
                                      kClients, opts_.rank_order, spans);
        const sim::Tick start = c.sim.now();
        for (const int i : order) {
            c.sim.spawn(client(
                *c.clients[i], c.object, i, util::Rng(rng.next()),
                opts_.inject == Inject::kFail && index == 0 && i == 0, r,
                spans));
        }
        {
            Spans::Host span(spans, "sim.run");
            c.sim.run();
        }
        runTask(c.sim, flushAll(c.sim, c.raw), spans);
        r.sim_seconds = sim::toSeconds(c.sim.now() - start);
        return r;
    }

    /** Read the whole object back and compare it with the model. */
    bool
    finalCheck(std::vector<std::string> &notes) override
    {
        Cluster &c = *c_;
        Spans quiet(false);
        auto &node = c.net.addNode("verifier", net::alphaStation255(),
                                   net::oc3Link(), net::dceRpcCosts());
        cheops::CheopsClient verifier(c.net, node, *c.storage, c.raw);
        std::vector<std::uint8_t> buf(apps::kChunkBytes);
        for (std::uint64_t off = 0; off < model_.size(); off += buf.size()) {
            auto res = runFor(c.sim, verifier.read(c.object, off, buf), quiet);
            if (opts_.inject == Inject::kCorrupt && off == 0)
                buf[0] ^= 1;
            if (!res.ok() ||
                std::memcmp(buf.data(), model_.data() + off, buf.size()) !=
                    0) {
                notes.push_back("read-back differs from the model in the "
                                "2 MB at offset " +
                                std::to_string(off));
                return false;
            }
        }
        return true;
    }

    std::uint64_t genChunks() const override { return data_.chunks(); }
    std::uint32_t
    diskBlockBytes() const override
    {
        return disk::medallistParams().block_size;
    }
    const char *opName() const override { return "CheopsClient::write"; }

  private:
    static constexpr int kDrives = 9;
    static constexpr int kClients = 4;
    static constexpr std::uint32_t kWidth = 8;
    static constexpr std::uint64_t kUnit = 32 * kKB;
    static constexpr std::uint64_t kRowBytes = kWidth * kUnit;
    static constexpr std::uint64_t kAlign = 4 * kKB;

    struct Cluster : Base
    {
        std::vector<std::unique_ptr<NasdDrive>> drives;
        std::vector<NasdDrive *> raw;
        std::unique_ptr<cheops::CheopsManager> storage;
        std::unique_ptr<cheops::CheopsClient> loader;
        cheops::LogicalObjectId object = 0;
        std::vector<std::unique_ptr<cheops::CheopsClient>> clients;
    };

    /** A random aligned range of @p size bytes inside row @p row. */
    static std::uint64_t
    placeInRow(util::Rng &rng, std::uint64_t row, std::uint64_t size)
    {
        return row * kRowBytes +
               kAlign * rng.below((kRowBytes - size) / kAlign + 1);
    }

    /** One application op of the mix. */
    struct Op
    {
        bool write;
        bool full_row;
        std::uint64_t size;
    };

    /**
     * A client's ops for one round: exactly half reads, a quarter
     * sub-row updates (read-modify-write) and a quarter full-row
     * writes, each size equally often, in seeded order. Every round
     * and seed thus does the same work; only order and placement vary.
     */
    std::vector<Op>
    shuffledOps(util::Rng &rng) const
    {
        std::vector<Op> ops;
        for (std::uint64_t d = 0; d < decks_per_client_; ++d) {
            for (const std::uint64_t size : {16 * kKB, 64 * kKB, kRowBytes})
                ops.insert(ops.end(), 8, Op{false, false, size});
            for (const std::uint64_t size :
                 {4 * kKB, 16 * kKB, 32 * kKB, 64 * kKB})
                ops.insert(ops.end(), 3, Op{true, false, size});
            ops.insert(ops.end(), 12, Op{true, true, kRowBytes});
        }
        for (std::size_t i = ops.size(); i > 1; --i)
            std::swap(ops[i - 1], ops[rng.below(i)]);
        return ops;
    }

    sim::Task<void>
    client(cheops::CheopsClient &store, cheops::LogicalObjectId object,
           int k, util::Rng rng, bool fail_first, RoundResult &r,
           Spans &spans)
    {
        sim::Simulator &sim = c_->sim;
        const std::uint64_t own_rows = model_.size() / kRowBytes / kClients;
        std::vector<std::uint8_t> buf(kRowBytes);
        for (const Op &op : shuffledOps(rng)) {
            const std::uint64_t row =
                static_cast<std::uint64_t>(k) + kClients * rng.below(own_rows);
            const std::uint64_t size = op.size;
            const std::uint64_t offset =
                op.full_row ? row * kRowBytes : placeInRow(rng, row, size);
            const std::uint64_t request = spans.newRequest();
            ++r.attempted;
            if (!op.write) {
                const std::span<std::uint8_t> out(buf.data(), size);
                const sim::Tick t0 = sim.now();
                auto res = co_await store.read(object, offset, out);
                spans.sim("cheops.read", request, true, t0, sim.now());
                if (!res.ok()) {
                    ++r.failed;
                    ++r.counts["cheops.failed"];
                    continue;
                }
                r.bytes += size;
                if (std::memcmp(out.data(), model_.data() + offset, size) ==
                    0) {
                    r.verified_bytes += size;
                } else if (r.correct) {
                    r.correct = false;
                    r.mismatches.push_back(
                        "read at offset " + std::to_string(offset) +
                        " differs from the model");
                }
                continue;
            }
            for (std::uint64_t j = 0; j < size; j += 8) {
                const std::uint64_t word = rng.next();
                std::memcpy(buf.data() + j, &word, 8);
            }
            const std::span<const std::uint8_t> in(buf.data(), size);
            const cheops::LogicalObjectId target =
                std::exchange(fail_first, false) ? kBogusObject : object;
            const sim::Tick t0 = sim.now();
            auto res = co_await store.write(target, offset, in);
            const sim::Tick t1 = sim.now();
            spans.sim("cheops.write", request, true, t0, t1);
            r.latency_ms.push_back(toMs(t1 - t0));
            if (!res.ok()) {
                ++r.failed;
                ++r.counts["cheops.failed"];
                continue;
            }
            std::memcpy(model_.data() + offset, buf.data(), size);
            r.bytes += size;
            r.written_bytes += size;
        }
    }

    Options opts_;
    Dataset data_;
    std::uint64_t decks_per_client_; ///< 48 ops each
    std::vector<std::uint8_t> model_;
    std::unique_ptr<Cluster> c_;
};

// ------------------------------------------------------------- active

/**
 * active_scan: Section 6. The dataset is spread over 8 prototype drives
 * on 10 Mb/s Ethernet (drive i holds chunks i, i+8, ...); one scan per
 * drive runs the frequent-sets kernel on the drive and ships back only
 * the count table.
 */
class ActiveScan : public Workload
{
  public:
    explicit ActiveScan(const Options &opts)
        : opts_(opts),
          data_(opts.seed, opts.size == Size::kTiny ? kTinyChunks
                                                    : kPaperChunks)
    {}

    double
    setup(Spans &spans) override
    {
        double excluded = 0;
        c_.reset();
        c_ = std::make_unique<Cluster>();
        Cluster &c = *c_;
        for (int i = 0; i < kDrives; ++i) {
            auto cfg = prototypeDriveConfig("nasd" + std::to_string(i), i + 1);
            cfg.link = net::tenMbitEthernetLink();
            c.drives.push_back(
                std::make_unique<NasdDrive>(c.sim, c.net, std::move(cfg)));
            c.issuers.push_back(std::make_unique<CapabilityIssuer>(
                c.drives.back()->config().master_key, i + 1));
            c.runtimes.push_back(
                std::make_unique<active::ActiveDiskRuntime>(*c.drives.back()));
            c.runtimes.back()->installMethod("frequent-sets", [] {
                return std::make_unique<active::FrequentSetsMethod>(
                    kCatalogItems);
            });
        }
        c.controller = &c.net.addNode("client0", net::alphaStation255(),
                                      net::tenMbitEthernetLink(),
                                      net::dceRpcCosts());
        for (int i = 0; i < kDrives; ++i) {
            runTask(c.sim, c.drives[i]->format(), spans);
            auto part = c.drives[i]->store().createPartition(0, 512 * kMB);
            NASD_ASSERT(part.ok(), "active_scan: createPartition failed");
            NasdClient loader(c.net, *c.controller, *c.drives[i]);
            CapabilityPublic pc;
            pc.partition = 0;
            pc.object_id = kPartitionControlObject;
            pc.rights = kRightCreate;
            CredentialFactory pcred(c.issuers[i]->mint(pc));
            const ObjectId oid =
                runFor(c.sim, loader.create(pcred, 0), spans).value();
            CapabilityPublic pub;
            pub.partition = 0;
            pub.object_id = oid;
            pub.rights = kRightRead | kRightWrite | kRightGetAttr;
            c.creds.push_back(
                std::make_unique<CredentialFactory>(c.issuers[i]->mint(pub)));
        }
        for (std::uint64_t k = 0; k < data_.chunks(); ++k) {
            const auto chunk = data_.chunk(k, spans, excluded);
            const auto drive = static_cast<int>(k % kDrives);
            Spans::Host span(spans, "setup.load");
            NasdClient loader(c.net, *c.controller, *c.drives[drive]);
            auto w = runFor(c.sim,
                            loader.write(*c.creds[drive],
                                         k / kDrives * apps::kChunkBytes,
                                         chunk),
                            spans);
            NASD_ASSERT(w.ok(), "active_scan: load write failed");
        }
        std::vector<NasdDrive *> raw;
        for (auto &d : c.drives)
            raw.push_back(d.get());
        runTask(c.sim, flushAll(c.sim, raw), spans);
        return excluded;
    }

    RoundResult
    round(std::uint64_t index, Spans &spans) override
    {
        Cluster &c = *c_;
        RoundResult r;
        util::Rng rng(roundSeed(opts_.seed, index));
        std::vector<apps::ItemCounts> partials(
            kDrives, apps::ItemCounts(kCatalogItems, 0));
        std::uint64_t scanned_before = 0;
        for (auto &rt : c.runtimes)
            scanned_before += rt->bytesScanned();
        const auto order = startRound(c.sim, rng, disk::medallistParams(),
                                      kDrives, opts_.rank_order, spans);
        const sim::Tick start = c.sim.now();
        sim::Tick finished = start;
        for (const int i : order) {
            c.sim.spawn(scan(
                i, opts_.inject == Inject::kFail && index == 0 && i == 0,
                partials[i], r, spans, finished));
        }
        {
            Spans::Host span(spans, "sim.run");
            c.sim.run();
        }
        r.sim_seconds = sim::toSeconds(finished - start);
        for (auto &rt : c.runtimes)
            r.scanned_bytes += rt->bytesScanned();
        r.scanned_bytes -= scanned_before;
        checkCounts(partials, data_.reference(),
                    opts_.inject == Inject::kCorrupt && index == 0, r);
        return r;
    }

    std::uint64_t genChunks() const override { return data_.chunks(); }
    std::uint32_t
    diskBlockBytes() const override
    {
        return disk::medallistParams().block_size;
    }
    const char *opName() const override
    {
        return "ActiveDiskClient::scan (one per drive)";
    }

  private:
    static constexpr int kDrives = 8;

    struct Cluster : Base
    {
        std::vector<std::unique_ptr<NasdDrive>> drives;
        std::vector<std::unique_ptr<CapabilityIssuer>> issuers;
        std::vector<std::unique_ptr<active::ActiveDiskRuntime>> runtimes;
        std::vector<std::unique_ptr<CredentialFactory>> creds;
        net::NetNode *controller = nullptr;
    };

    /** Bytes of the dataset on drive @p i. */
    std::uint64_t
    driveBytes(int i) const
    {
        const auto d = static_cast<std::uint64_t>(i);
        return d < data_.chunks()
                   ? (data_.chunks() - d + kDrives - 1) / kDrives *
                         apps::kChunkBytes
                   : 0;
    }

    sim::Task<void>
    scan(int drive, bool bogus, apps::ItemCounts &out, RoundResult &r,
         Spans &spans, sim::Tick &finished)
    {
        Cluster &c = *c_;
        active::ActiveDiskClient client(c.net, *c.controller,
                                        *c.runtimes[drive]);
        const std::uint64_t request = spans.newRequest();
        const sim::Tick t0 = c.sim.now();
        auto res = co_await client.scan(*c.creds[drive],
                                        bogus ? "no-such-method"
                                              : "frequent-sets");
        const sim::Tick t1 = c.sim.now();
        spans.sim("active.scan", request, true, t0, t1);
        ++r.attempted;
        r.latency_ms.push_back(toMs(t1 - t0));
        if (res.ok()) {
            out = active::FrequentSetsMethod::decodeResult(res.value());
            r.bytes += driveBytes(drive);
        } else {
            ++r.failed;
        }
        finished = std::max(finished, t1);
    }

    Options opts_;
    Dataset data_;
    std::unique_ptr<Cluster> c_;
};

} // namespace

std::unique_ptr<Workload>
makeWorkload(const Options &opts)
{
    if (opts.workload == "mine_nasd")
        return std::make_unique<MineNasd>(opts);
    if (opts.workload == "mine_nfs")
        return std::make_unique<MineNfs>(opts);
    if (opts.workload == "parity_update")
        return std::make_unique<ParityUpdate>(opts);
    if (opts.workload == "active_scan")
        return std::make_unique<ActiveScan>(opts);
    return nullptr;
}

} // namespace nasdbench
