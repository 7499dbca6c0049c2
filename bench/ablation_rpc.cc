/**
 * @file
 * Ablation: the cost of workstation-class communications.
 *
 * Section 4.4 concludes "NASD control is not necessarily too expensive
 * but workstation-class implementations of communications certainly
 * are": 70-97% of every request's instructions were DCE RPC / UDP/IP.
 * This bench swaps the heavyweight stack for a lean SAN protocol on
 * both ends and measures what the same prototype drive could deliver.
 */
#include <cstdio>

#include "bench/bench_util.h"
#include "nasd/drive.h"
#include "net/presets.h"
#include "rig/cluster.h"
#include "sim/simulator.h"
#include "util/units.h"

using namespace nasd;
using util::kMB;

namespace {

struct Point
{
    double warm_read_mbs;
    double small_op_ms;
};

Point
measure(const net::RpcCosts &costs)
{
    auto cfg = prototypeDriveConfig("nasd0", 1);
    cfg.rpc = costs;
    rig::DriveRig rig(std::move(cfg), 256 * kMB);
    auto cred = rig.credential(rig.createObject(),
                               kRightRead | kRightWrite | kRightGetAttr);

    Point p;
    p.warm_read_mbs = bench::warmReadMbs(rig, cred);

    // Small-op latency: warm getattr.
    (void)runFor(rig.sim, rig.client.getAttr(cred));
    const sim::Tick start = rig.sim.now();
    for (int i = 0; i < 8; ++i)
        (void)runFor(rig.sim, rig.client.getAttr(cred));
    p.small_op_ms = sim::toMillis(rig.sim.now() - start) / 8.0;
    return p;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::banner(
        "ablation_rpc — DCE-weight vs lean SAN communications",
        "Section 4.4 (communications dominate request cost)");

    const bench::BenchOptions opts = bench::parseOptions("ablation_rpc", argc, argv);

    const auto dce = measure(net::dceRpcCosts());
    const auto lean = measure(net::leanRpcCosts());

    std::printf("\nOne prototype drive, one client, warm cache:\n\n");
    std::printf("  %-26s %18s %16s\n", "protocol stack",
                "512KB reads MB/s", "getattr ms");
    std::printf("  %-26s %18.1f %16.3f\n", "DCE RPC / UDP/IP",
                dce.warm_read_mbs, dce.small_op_ms);
    std::printf("  %-26s %18.1f %16.3f\n", "lean SAN protocol",
                lean.warm_read_mbs, lean.small_op_ms);
    std::printf("  %-26s %17.1fx %15.1fx\n", "improvement",
                lean.warm_read_mbs / dce.warm_read_mbs,
                dce.small_op_ms / lean.small_op_ms);
    std::printf("\nPaper anchor: the drive-side object service is cheap; "
                "a commodity NASD would ship a\nlean protocol stack "
                "rather than workstation DCE RPC, recovering most of the "
                "70-97%%\nof instructions spent on communications.\n");
    bench::writeBenchJson(opts, "ablation_rpc",
                          "Section 4.4 (communications dominate request cost)");

    return 0;
}
