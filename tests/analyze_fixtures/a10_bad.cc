// Fixture: scheduler callbacks that capture by reference. The callback
// runs when the event fires, after the scheduling scope has returned,
// so every reference capture of a local dangles.
namespace fx {

void
arm(sim::Simulator &sim, std::coroutine_handle<> h)
{
    int fired = 0;
    sim.schedule(sim.now() + 10, [&] { ++fired; }); // EXPECT[A10]
    sim.scheduleIn(5, [&fired] { ++fired; }); // EXPECT[A10]
    auto timer = sim.scheduleCancelable(
        sim.now() + 20,
        [this, &h] { h.resume(); }); // EXPECT[A10]
    sim.scheduleCancelableIn(7, [&, h] { h.resume(); }); // EXPECT[A10]
}

} // namespace fx
