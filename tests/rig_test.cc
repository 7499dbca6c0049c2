/**
 * @file
 * Tests for the rigs in rig/cluster.h. createPartition() leaves its
 * metadata write-behind suspended inside the drive's DiskModel; a rig
 * destroyed before anything runs must drain those frames while its
 * drives are alive, or ~Simulator unwinds them into freed semaphores
 * (a use-after-free under ASan).
 */
#include <gtest/gtest.h>

#include <memory>

#include "nasd/drive.h"
#include "rig/cluster.h"
#include "util/units.h"

namespace nasd::rig {
namespace {

using util::kMB;

TEST(RigTest, DriveRigDrainsOnDestruction)
{
    auto rig = std::make_unique<DriveRig>(prototypeDriveConfig("nasd0", 1),
                                          64 * kMB);
    ASSERT_GT(rig->sim.liveProcesses(), 0u);
    rig.reset();
}

TEST(RigTest, NasdClusterDrainsOnDestruction)
{
    auto cluster = std::make_unique<NasdCluster>(
        ClusterSpec{.drives = 2, .partition_bytes = 64 * kMB});
    ASSERT_TRUE(cluster->drives[0]->store().createPartition(1, kMB).ok());
    ASSERT_GT(cluster->sim.liveProcesses(), 0u);
    cluster.reset();
}

} // namespace
} // namespace nasd::rig
