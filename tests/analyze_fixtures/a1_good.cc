// Fixture: clean counterparts to a1_bad.cc — safe idioms the analyzer
// must NOT flag. Zero findings expected.
#include "sim/sync.h"
#include "sim/task.h"

namespace fx {

// Detached, but state rides in the frame by value / shared ownership.
sim::Task<void>
pumpByValue(std::shared_ptr<RingBuffer> buf, int id)
{
    co_await sim::tick();
    buf->push(id);
}

// Detached with a ref param, but the only use is in the same statement
// as the co_await: the referent is alive for the whole suspension.
sim::Task<void>
writeOwned(Device &dev, Payload p)
{
    co_await dev.write(std::move(p));
}

void
start(sim::Simulator &sim, Device &dev, Payload p)
{
    sim.spawn(pumpByValue(sharedBuffer(), 1));
    sim.spawn(writeOwned(dev, std::move(p)));

    // Spawned lambda: no captures, state passed as value parameters.
    sim.spawn([](std::shared_ptr<Counters> c) -> sim::Task<void> {
        co_await sim::tick();
        c->ops.add(1);
    }(sharedCounters()));
}

// Not detached: a plain awaited coroutine may hold refs across
// suspensions because the caller's frame keeps the referents alive.
sim::Task<int>
readThrough(Cache &cache, std::uint64_t key)
{
    co_await sim::tick();
    co_return cache.lookup(key);
}

void
callOut(net::Network &net, net::NetNode &a, net::NetNode &b)
{
    int budget = 7;
    // Value capture: the closure is copied into callWithDeadline's
    // std::function, so the handler owns its state (as NasdClient::call's
    // handlers do).
    net::callWithDeadline<Reply>(
        net, a, b, 64, sim::msec(5),
        [budget]() -> sim::Task<net::RpcReply<Reply>> {
            co_return makeReply(budget);
        });
}

} // namespace fx
