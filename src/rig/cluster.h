/**
 * @file
 * The two rigs that benches, tests and examples build their systems
 * from, kept apart from the code that drives them:
 *
 *   NasdCluster  N prototype drives behind a Cheops storage manager
 *                (the "mgr" node) with the PFS name service on top;
 *                clients are alphaStation255 / OC-3 / DCE nodes.
 *   DriveRig     one formatted prototype drive, its capability issuer
 *                and one client, for per-request measurements.
 *
 * Each rig builds its nodes and issues its setup RPCs in a fixed
 * order, so every run built on it replays the same simulated event
 * schedule. Setup helpers fail loudly: a load write, open or partition
 * create that does not succeed aborts the process instead of letting
 * it measure a half-loaded system.
 *
 * A rig drains the event queue when it is destroyed, while its drives
 * and manager are still alive: createPartition() and a stepped run
 * leave detached frames (write-behind, rebuild tokens) suspended in
 * them, and ~Simulator would otherwise unwind those frames into freed
 * semaphores. Whatever the caller builds on top of a rig (clients,
 * buffers) dies first, so the caller runs its own work to completion.
 * An exception a drained frame throws ends the process, as a failed
 * setup assertion does.
 */
#ifndef NASD_RIG_CLUSTER_H_
#define NASD_RIG_CLUSTER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "apps/transactions.h"
#include "cheops/cheops.h"
#include "nasd/client.h"
#include "nasd/drive.h"
#include "net/presets.h"
#include "pfs/pfs.h"
#include "sim/simulator.h"
#include "util/logging.h"
#include "util/units.h"

namespace nasd::rig {

/** Declarative description of a NasdCluster. */
struct ClusterSpec
{
    int drives = 8;
    /// Partition quota the Cheops manager claims on every drive.
    std::uint64_t partition_bytes = 1024 * util::kMB;
    /// Per-drive config tweak: when nonzero, overrides every drive's
    /// data-cache size (a bench shrinks it to stream from media).
    std::uint64_t drive_cache_bytes = 0;
    /// Slow-drive fault: scale drive `slow_drive`'s mechanical service
    /// time by `slow_factor` from before the first request on.
    int slow_drive = -1;
    double slow_factor = 1.0;
};

/**
 * N prototype drives ("nasd0".."nasdN-1"), the "mgr" node running an
 * initialized Cheops manager, and the PFS name service co-located
 * with it. Callers that want a per-run metrics registry or flight
 * journal install the scope before constructing the cluster.
 */
class NasdCluster
{
  public:
    explicit NasdCluster(const ClusterSpec &spec)
    {
        for (int i = 0; i < spec.drives; ++i) {
            DriveConfig cfg =
                prototypeDriveConfig("nasd" + std::to_string(i), i + 1);
            if (spec.drive_cache_bytes != 0)
                cfg.store.data_cache_bytes = spec.drive_cache_bytes;
            drives.push_back(
                std::make_unique<NasdDrive>(sim, net, std::move(cfg)));
            raw.push_back(drives.back().get());
        }
        if (spec.slow_drive >= 0) {
            NASD_ASSERT(spec.slow_drive < spec.drives, "--slow-drive: drive ",
                        spec.slow_drive, " out of range for ", spec.drives,
                        " drives");
            raw[static_cast<std::size_t>(spec.slow_drive)]->slowDown(
                spec.slow_factor);
        }
        auto &mgr_node = net.addNode("mgr", net::alphaStation500(),
                                     net::oc3Link(), net::dceRpcCosts());
        storage_ = std::make_unique<cheops::CheopsManager>(sim, net, mgr_node,
                                                           raw, 0);
        runTask(sim, storage_->initialize(spec.partition_bytes));
        pfs_ = std::make_unique<pfs::PfsManager>(*storage_);
    }

    NasdCluster(const NasdCluster &) = delete;
    NasdCluster &operator=(const NasdCluster &) = delete;
    ~NasdCluster() { sim.run(); }

    cheops::CheopsManager &storage() { return *storage_; }

    /** The PFS name service on the manager node. */
    pfs::PfsManager &pfs() { return *pfs_; }

    /** Add a client workstation: AlphaStation 255, OC-3, DCE RPC. */
    net::NetNode &
    clientNode(const std::string &name)
    {
        return net.addNode(name, net::alphaStation255(), net::oc3Link(),
                           net::dceRpcCosts());
    }

    /** A Cheops client on a new client node called @p name. */
    std::unique_ptr<cheops::CheopsClient>
    cheopsClient(const std::string &name)
    {
        return std::make_unique<cheops::CheopsClient>(net, clientNode(name),
                                                      *storage_, raw);
    }

    /** Push every drive's write-behind data to media. */
    void
    flushAll()
    {
        for (auto *d : raw)
            runTask(sim, d->store().flushAll());
    }

    /**
     * Create PFS file @p name through a "loader" client, write chunk
     * `chunk(c)` at offset c * kChunkBytes for c < @p chunks, then
     * flush every drive. The loader stays open for the cluster's life.
     */
    template <typename ChunkFn>
    pfs::PfsHandle
    loadPfsFile(const std::string &name, std::uint64_t chunks, ChunkFn chunk,
                std::uint64_t stripe_unit = pfs::kDefaultStripeUnit)
    {
        loader_ = std::make_unique<pfs::PfsClient>(net, clientNode("loader"),
                                                   *pfs_, raw);
        const auto handle =
            runFor(sim, loader_->open(name, true, true, stripe_unit));
        NASD_ASSERT(handle.ok(), "cluster: cannot create PFS file ", name);
        for (std::uint64_t c = 0; c < chunks; ++c) {
            const auto w = runFor(
                sim, loader_->write(handle.value(), c * apps::kChunkBytes,
                                    chunk(c)));
            NASD_ASSERT(w.ok(), "cluster: load write of chunk ", c,
                        " failed");
        }
        flushAll();
        return handle.value();
    }

    /** Clients "client0".."client<n-1>", each with @p name open for
     *  reading. */
    std::vector<std::unique_ptr<pfs::PfsClient>>
    openPfsClients(int n, const std::string &name)
    {
        std::vector<std::unique_ptr<pfs::PfsClient>> clients;
        for (int i = 0; i < n; ++i) {
            clients.push_back(std::make_unique<pfs::PfsClient>(
                net, clientNode("client" + std::to_string(i)), *pfs_, raw));
            const auto h =
                runFor(sim, clients.back()->open(name, false, false));
            NASD_ASSERT(h.ok(), "cluster: client", i, " cannot open ",
                        name);
        }
        return clients;
    }

    sim::Simulator sim;
    net::Network net{sim};
    std::vector<std::unique_ptr<NasdDrive>> drives;
    std::vector<NasdDrive *> raw; ///< the drives, as Cheops takes them

  private:
    std::unique_ptr<cheops::CheopsManager> storage_;
    std::unique_ptr<pfs::PfsManager> pfs_;
    std::unique_ptr<pfs::PfsClient> loader_;
};

/**
 * One prototype drive built from a caller-tweaked config, formatted
 * with partition 0, plus its capability issuer and a "client" node
 * (AlphaStation 255, OC-3) speaking the drive's RPC stack.
 */
class DriveRig
{
  public:
    DriveRig(DriveConfig cfg, std::uint64_t partition_bytes)
        : drive(sim, net, std::move(cfg)),
          issuer(drive.config().master_key, 1),
          client(net,
                 net.addNode("client", net::alphaStation255(),
                             net::oc3Link(), drive.config().rpc),
                 drive)
    {
        runTask(sim, drive.format());
        const auto part = drive.store().createPartition(0, partition_bytes);
        NASD_ASSERT(part.ok(), "drive rig: createPartition failed");
    }

    DriveRig(const DriveRig &) = delete;
    DriveRig &operator=(const DriveRig &) = delete;
    ~DriveRig() { sim.run(); }

    /** A credential for @p rights on object @p oid of partition 0. */
    CredentialFactory
    credential(ObjectId oid, std::uint8_t rights)
    {
        CapabilityPublic pub;
        pub.partition = 0;
        pub.object_id = oid;
        pub.rights = rights;
        return CredentialFactory(issuer.mint(pub));
    }

    /** Create an object in partition 0. */
    ObjectId
    createObject()
    {
        auto cred = credential(kPartitionControlObject, kRightCreate);
        const auto oid = runFor(sim, client.create(cred, 0));
        NASD_ASSERT(oid.ok(), "drive rig: create failed");
        return oid.value();
    }

    sim::Simulator sim;
    net::Network net{sim};
    NasdDrive drive;
    CapabilityIssuer issuer;
    NasdClient client;
};

} // namespace nasd::rig

#endif // NASD_RIG_CLUSTER_H_
