// Fixture: raw stderr prints bypass NASD_LOG, so NASD_LOG_LEVEL cannot
// filter them and they skip the log format.
#include <cstdio>

namespace fx {

void
report(int code)
{
    fprintf(stderr, "failed: %d\n", code); // EXPECT[A13]
    std::fprintf(stderr, "still failed\n"); // EXPECT[A13]
}

} // namespace fx
