// Fixture: util::Counter instruments held by value outside src/util.
// A loose counter never reaches the MetricsRegistry, so it is missing
// from every BENCH_*.json dump.
namespace fx {

class Drive
{
  private:
    util::Counter reads_; // EXPECT[A12]
    util::Counter writes_{}; // EXPECT[A12]
    nasd::util::Counter errors_ = {}; // EXPECT[A12]
};

} // namespace fx
