// Fixture: clean counterparts to a10_bad.cc — scheduler callbacks
// capture by value; by-reference lambdas that never reach the
// scheduler are fine. Zero findings expected.
#include <algorithm>
#include <vector>

namespace fx {

void
arm(sim::Simulator &sim, std::coroutine_handle<> h, std::vector<int> &v)
{
    sim.schedule(sim.now() + 10, [h] { h.resume(); });
    sim.scheduleIn(5, [=] { h.resume(); });
    auto timer = sim.scheduleCancelable(sim.now() + 20,
                                        [this, h] { h.resume(); });
    sim.scheduleCancelableIn(7, [id = 3, h] { h.resume(); });
    int bound = 4;
    std::sort(v.begin(), v.end(),
              [&](int a, int b) { return a % bound < b % bound; });
}

} // namespace fx
