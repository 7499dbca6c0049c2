/**
 * @file
 * Unit tests for the network substrate: link serialization, contention
 * on shared receive links, RPC cost accounting, and saturation limits
 * that drive Figure 7.
 */
#include <gtest/gtest.h>

#include "net/network.h"
#include "net/presets.h"
#include "net/rpc.h"
#include "sim/simulator.h"
#include "util/units.h"

namespace nasd::net {
namespace {

using sim::Simulator;
using sim::Task;
using sim::Tick;
using util::kMB;

Tick
timed(Simulator &sim, Task<void> task)
{
    const Tick start = sim.now();
    runTask(sim, std::move(task));
    return sim.now() - start;
}

TEST(Link, SerializationTime)
{
    Simulator sim;
    Network net(sim);
    auto &a = net.addNode("a", alphaStation255(), oc3Link(), dceRpcCosts());
    auto &b = net.addNode("b", alphaStation255(), oc3Link(), dceRpcCosts());

    // 1 MB over 155 Mb/s = 1048576 / 19.375e6 s = ~54.1 ms.
    const Tick t = timed(sim, net.transfer(a, b, kMB));
    EXPECT_NEAR(sim::toMillis(t), 54.1, 1.0);
    EXPECT_EQ(a.bytes_sent.value(), kMB);
    EXPECT_EQ(b.bytes_received.value(), kMB);
}

TEST(Link, SlowerEndGoverns)
{
    Simulator sim;
    Network net(sim);
    auto &fast =
        net.addNode("fast", alphaStation255(), gigabitLink(), dceRpcCosts());
    auto &slow = net.addNode("slow", alphaStation255(),
                             tenMbitEthernetLink(), dceRpcCosts());
    // 1 MB at 10 Mb/s = ~839 ms.
    const Tick t = timed(sim, net.transfer(fast, slow, kMB));
    EXPECT_NEAR(sim::toMillis(t), 839.0, 10.0);
}

TEST(Link, ReceiverContentionSerializes)
{
    Simulator sim;
    Network net(sim);
    auto &client =
        net.addNode("client", alphaStation255(), oc3Link(), dceRpcCosts());
    auto &d1 =
        net.addNode("d1", alpha3000_400(), oc3Link(), dceRpcCosts());
    auto &d2 =
        net.addNode("d2", alpha3000_400(), oc3Link(), dceRpcCosts());

    // Two drives send 1 MB each to one client: its RX link serializes
    // them, so the pair takes ~2x one transfer.
    std::vector<Task<void>> tasks;
    tasks.push_back(net.transfer(d1, client, kMB));
    tasks.push_back(net.transfer(d2, client, kMB));
    const Tick t = timed(sim, sim::parallelAll(sim, std::move(tasks)));
    EXPECT_NEAR(sim::toMillis(t), 108.2, 2.0);
}

TEST(Link, DisjointPairsRunInParallel)
{
    Simulator sim;
    Network net(sim);
    auto &a = net.addNode("a", alphaStation255(), oc3Link(), dceRpcCosts());
    auto &b = net.addNode("b", alphaStation255(), oc3Link(), dceRpcCosts());
    auto &c = net.addNode("c", alphaStation255(), oc3Link(), dceRpcCosts());
    auto &d = net.addNode("d", alphaStation255(), oc3Link(), dceRpcCosts());

    std::vector<Task<void>> tasks;
    tasks.push_back(net.transfer(a, b, kMB));
    tasks.push_back(net.transfer(c, d, kMB));
    const Tick t = timed(sim, sim::parallelAll(sim, std::move(tasks)));
    EXPECT_NEAR(sim::toMillis(t), 54.1, 1.0); // same as one transfer
}

Task<void>
doCall(Network &net, NetNode &client, NetNode &server, std::uint64_t req,
       std::uint64_t resp, int &out)
{
    out = co_await call<int>(net, client, server, req, [&]()
                             -> sim::Task<RpcReply<int>> {
        co_return RpcReply<int>{42, resp};
    });
}

TEST(Rpc, ReturnsHandlerValue)
{
    Simulator sim;
    Network net(sim);
    auto &client =
        net.addNode("client", alphaStation255(), oc3Link(), dceRpcCosts());
    auto &drive =
        net.addNode("drive", alpha3000_400(), oc3Link(), dceRpcCosts());
    int result = 0;
    (void)timed(sim, doCall(net, client, drive, 100, 100, result));
    EXPECT_EQ(result, 42);
}

TEST(Rpc, NullCallLatencyDominatedByBaseCosts)
{
    Simulator sim;
    Network net(sim);
    auto &client =
        net.addNode("client", alphaStation255(), oc3Link(), dceRpcCosts());
    auto &drive =
        net.addNode("drive", alpha3000_400(), oc3Link(), dceRpcCosts());
    int result = 0;
    const Tick t = timed(sim, doCall(net, client, drive, 1, 1, result));
    // Client 35k instr at 233 MHz (~330 us), drive 35k at 133 MHz
    // (~580 us), wire ~2x 120 us: around 1 ms end to end.
    EXPECT_GT(t, sim::usec(500));
    EXPECT_LT(t, sim::msec(3));
}

TEST(Rpc, LargeReplyChargesClientDataPath)
{
    Simulator sim;
    Network net(sim);
    auto &client =
        net.addNode("client", alphaStation255(), oc3Link(), dceRpcCosts());
    auto &drive =
        net.addNode("drive", alpha3000_400(), oc3Link(), dceRpcCosts());

    const std::uint64_t before = client.cpu().instructionsRetired();
    int result = 0;
    (void)timed(sim, doCall(net, client, drive, 64, 512 * 1024, result));
    const std::uint64_t delta =
        client.cpu().instructionsRetired() - before;
    // recv of 512 KB at 3.42 instr/byte is ~1.79M instructions.
    EXPECT_GT(delta, 1'500'000u);
    EXPECT_LT(delta, 2'300'000u);
}

TEST(Rpc, DceClientSaturatesNearEightyMegabit)
{
    // The Figure 7 premise: a 233 MHz client running DCE RPC cannot
    // receive much more than 80 Mb/s (10 MB/s).
    Simulator sim;
    Network net(sim);
    auto &client =
        net.addNode("client", alphaStation255(), oc3Link(), dceRpcCosts());
    const RpcCosts &c = client.costs();

    // Pure receive-path cost of 1 MB of payload in 512 KB replies.
    const double per_byte_ns =
        c.recv_per_byte_instr * c.data_cpi * 1000.0 / 233.0;
    const double base_ns = static_cast<double>(c.recv_base_instr) * 2.2 *
                           1000.0 / 233.0;
    const double mb_time_ns = 2 * base_ns + 1048576.0 * per_byte_ns;
    const double mbs = 1e9 / mb_time_ns;
    EXPECT_GT(mbs, 8.0);
    EXPECT_LT(mbs, 12.0);
}

TEST(Rpc, LeanStackIsMuchCheaper)
{
    Simulator sim;
    Network net(sim);
    auto &c1 =
        net.addNode("c1", alphaStation255(), oc3Link(), dceRpcCosts());
    auto &d1 =
        net.addNode("d1", alpha3000_400(), oc3Link(), dceRpcCosts());
    auto &c2 =
        net.addNode("c2", alphaStation255(), oc3Link(), leanRpcCosts());
    auto &d2 =
        net.addNode("d2", alpha3000_400(), oc3Link(), leanRpcCosts());

    int r = 0;
    const Tick dce = timed(sim, doCall(net, c1, d1, 64, 8192, r));
    const Tick lean = timed(sim, doCall(net, c2, d2, 64, 8192, r));
    EXPECT_LT(lean * 2, dce);
}

TEST(Presets, PaperHardwareValues)
{
    EXPECT_DOUBLE_EQ(alpha3000_400().mhz, 133.0);
    EXPECT_DOUBLE_EQ(alphaStation255().mhz, 233.0);
    EXPECT_DOUBLE_EQ(alphaStation500().mhz, 500.0);
    EXPECT_DOUBLE_EQ(driveAsic200().mhz, 200.0);
    EXPECT_DOUBLE_EQ(oc3Link().mbps, 155.0);
    EXPECT_NEAR(oc3Link().bytesPerSec(), 19.375e6, 1.0);
}

} // namespace
} // namespace nasd::net
