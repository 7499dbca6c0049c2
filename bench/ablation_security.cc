/**
 * @file
 * Ablation: what request integrity costs (Section 4.1's argument).
 *
 * The paper disabled its security protocols because software crypto at
 * disk rates was infeasible, and argued that a few tens of thousands
 * of gates of digest hardware make it affordable. This bench measures
 * warm 512 KB reads under the three security levels the drive
 * supports: none (the paper's measured configuration), software keyed
 * digests, and hardware digest support.
 */
#include <cstdio>

#include "bench/bench_util.h"
#include "nasd/drive.h"
#include "rig/cluster.h"
#include "util/units.h"

using namespace nasd;
using util::kKB;
using util::kMB;

namespace {

double
measure(SecurityLevel level)
{
    auto cfg = prototypeDriveConfig("nasd0", 1);
    cfg.security = level;
    rig::DriveRig rig(std::move(cfg), 256 * kMB);
    // Under software digests the drive verifies a 2 MB write for longer
    // than one attempt's deadline; 512 KB transfers load it in time.
    // Every request this bench times is 512 KB, so none of them moves.
    DriveRetryPolicy policy = rig.client.policy();
    policy.max_transfer = 512 * kKB;
    rig.client.setPolicy(policy);
    auto cred =
        rig.credential(rig.createObject(), kRightRead | kRightWrite);
    return bench::warmReadMbs(rig, cred);
}

} // namespace

int
main(int argc, char **argv)
{
    bench::banner("ablation_security — cost of request integrity",
                  "Section 4.1 (cryptographic integrity; Figure 5)");

    const bench::BenchOptions opts = bench::parseOptions("ablation_security", argc, argv);

    const double none = measure(SecurityLevel::kNone);
    const double sw = measure(SecurityLevel::kIntegritySw);
    const double hw = measure(SecurityLevel::kIntegrityHw);

    std::printf("\nWarm 512KB reads from one prototype drive:\n\n");
    std::printf("  %-34s %12s %10s\n", "security level", "MB/s",
                "vs none");
    std::printf("  %-34s %12.1f %9.0f%%\n",
                "none (paper's measured config)", none, 100.0);
    std::printf("  %-34s %12.1f %9.0f%%\n", "integrity, software digests",
                sw, 100.0 * sw / none);
    std::printf("  %-34s %12.1f %9.0f%%\n", "integrity, digest hardware",
                hw, 100.0 * hw / none);
    std::printf("\nPaper anchor: software crypto at disk rates is not "
                "viable on a drive controller, but\nDES-class digest "
                "hardware (tens of kilogates) runs faster than the media "
                "rate,\nmaking integrity nearly free.\n");
    bench::writeBenchJson(opts, "ablation_security",
                          "Section 4.1 (cryptographic integrity; Figure 5)");

    return 0;
}
