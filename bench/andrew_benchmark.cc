/**
 * @file
 * Section 5.1's validation: the Andrew benchmark over plain NFS and
 * over NASD-NFS, at 1 drive / 1 client and at 8 drives / 8 clients.
 *
 * The paper found benchmark times within 5% of each other in both
 * configurations — the point being that moving the data path from a
 * store-and-forward server to direct drive transfers does not penalize
 * a conventional distributed filesystem on a conventional,
 * small-file-heavy workload. Both systems here get the same spindles
 * (n dual-Medallist pairs), the same clients, and the same five-phase
 * workload.
 */
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "apps/andrew.h"
#include "apps/andrew_targets.h"
#include "bench/bench_util.h"
#include "disk/disk_model.h"
#include "disk/params.h"
#include "disk/striping.h"
#include "fs/nfs/nasd_nfs.h"
#include "fs/nfs/nfs_client.h"
#include "fs/nfs/nfs_server.h"
#include "net/presets.h"
#include "sim/simulator.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/units.h"

using namespace nasd;
using util::kKB;
using util::kMB;

namespace {

apps::AndrewParams
workload()
{
    apps::AndrewParams p;
    p.dirs = 4;
    p.files_per_dir = 10;
    p.mean_file_bytes = 16 * kKB;
    return p;
}

/** Run n concurrent Andrew instances; return the slowest total time. */
template <typename TargetVector>
sim::Tick
runAll(sim::Simulator &sim, TargetVector &targets,
       const std::vector<sim::CpuResource *> &client_cpus)
{
    std::vector<sim::Tick> times(targets.size(), 0);
    for (std::size_t i = 0; i < targets.size(); ++i) {
        apps::AndrewParams params = workload();
        params.client_cpu = client_cpus[i];
        sim.spawn([](sim::Simulator &s, apps::AndrewTarget &t,
                     apps::AndrewParams p, sim::Tick &out)
                      -> sim::Task<void> {
            const auto report = co_await apps::runAndrew(s, t, p);
            out = report.total();
        }(sim, *targets[i], params, times[i]));
    }
    sim.run();
    return *std::max_element(times.begin(), times.end());
}

/** Andrew over plain NFS: n clients, one server, 2n Medallists. */
sim::Tick
nfsTime(int n)
{
    sim::Simulator sim;
    net::Network net(sim);
    auto &server_node = net.addNode("server", net::alphaStation500(),
                                    net::oc3Link(), net::dceRpcCosts());
    std::vector<std::unique_ptr<disk::DiskModel>> disks;
    std::vector<disk::BlockDevice *> members;
    for (int i = 0; i < 2 * n; ++i) {
        disks.push_back(std::make_unique<disk::DiskModel>(
            sim, disk::medallistParams()));
        members.push_back(disks.back().get());
    }
    disk::StripingDriver stripe(sim, members, 32 * kKB);
    fs::FfsFileSystem ffs(sim, stripe, &server_node.cpu());
    runTask(sim, ffs.format());
    fs::NfsServer server(sim, server_node);
    const auto volume = server.addVolume(ffs);

    std::vector<std::unique_ptr<fs::NfsClient>> clients;
    std::vector<std::unique_ptr<apps::NfsAndrewTarget>> targets;
    std::vector<sim::CpuResource *> cpus;
    for (int i = 0; i < n; ++i) {
        auto &node = net.addNode("client" + std::to_string(i),
                                 net::alphaStation255(), net::oc3Link(),
                                 net::dceRpcCosts());
        clients.push_back(
            std::make_unique<fs::NfsClient>(net, node, server));
        auto sub = runFor(
            sim, clients.back()->mkdir(server.rootHandle(volume),
                                       "w" + std::to_string(i)));
        NASD_ASSERT(sub.ok(), "andrew setup: nfs mkdir failed");
        targets.push_back(std::make_unique<apps::NfsAndrewTarget>(
            *clients.back(), volume, sub.value()));
        cpus.push_back(&node.cpu());
    }
    return runAll(sim, targets, cpus);
}

/** Andrew over NASD-NFS: n clients, n prototype drives. */
sim::Tick
nasdTime(int n)
{
    sim::Simulator sim;
    net::Network net(sim);
    auto &fm_node = net.addNode("fm", net::alphaStation500(),
                                net::oc3Link(), net::dceRpcCosts());
    std::vector<std::unique_ptr<NasdDrive>> drives;
    std::vector<NasdDrive *> raw;
    for (int i = 0; i < n; ++i) {
        drives.push_back(std::make_unique<NasdDrive>(
            sim, net,
            prototypeDriveConfig("nasd" + std::to_string(i), i + 1)));
        raw.push_back(drives.back().get());
    }
    fs::NasdNfsFileManager fm(sim, net, fm_node, raw, 0);
    runTask(sim, fm.initialize(1024 * kMB));

    std::vector<std::unique_ptr<fs::NasdNfsClient>> clients;
    std::vector<std::unique_ptr<apps::NasdNfsAndrewTarget>> targets;
    std::vector<sim::CpuResource *> cpus;
    for (int i = 0; i < n; ++i) {
        auto &node = net.addNode("client" + std::to_string(i),
                                 net::alphaStation255(), net::oc3Link(),
                                 net::dceRpcCosts());
        clients.push_back(
            std::make_unique<fs::NasdNfsClient>(net, node, fm, raw));
        auto sub = runFor(
            sim, clients.back()->mkdir(fm.rootHandle(),
                                       "w" + std::to_string(i)));
        NASD_ASSERT(sub.ok(), "andrew setup: nasd-nfs mkdir failed");
        targets.push_back(std::make_unique<apps::NasdNfsAndrewTarget>(
            *clients.back(), sub.value()));
        cpus.push_back(&node.cpu());
    }
    return runAll(sim, targets, cpus);
}

} // namespace

int
main(int argc, char **argv)
{
    bench::banner("andrew_benchmark — NFS vs NASD-NFS",
                  "Section 5.1 (Andrew benchmark within 5%)");

    const bench::BenchOptions opts = bench::parseOptions("andrew_benchmark", argc, argv);

    std::printf("\n%22s %12s %12s %10s\n", "configuration", "NFS (s)",
                "NASD-NFS (s)", "delta");
    for (const int n : {1, 8}) {
        const auto nfs = nfsTime(n);
        const auto nasd = nasdTime(n);
        const double delta =
            100.0 * (static_cast<double>(nasd) - static_cast<double>(nfs)) /
            static_cast<double>(nfs);
        std::printf("%14d drive/cl %12.2f %12.2f %+9.1f%%\n", n,
                    sim::toSeconds(nfs), sim::toSeconds(nasd), delta);
        const std::string drives = "_" + std::to_string(n) + "drive";
        util::metrics()
            .gauge("andrew/nfs" + drives + "_ms")
            .set(sim::toSeconds(nfs) * 1e3);
        util::metrics()
            .gauge("andrew/nasd_nfs" + drives + "_ms")
            .set(sim::toSeconds(nasd) * 1e3);
    }
    std::printf("\nPaper anchor: benchmark times within 5%% of each other "
                "for both the 1 drive / 1 client\nand 8 drive / 8 client "
                "configurations.\n");
    bench::writeBenchJson(opts, "andrew_benchmark",
                          "Section 5.1 (Andrew benchmark within 5%)");

    return 0;
}
