// Fixture: clean counterparts to a13_bad.cc. Zero findings expected;
// mentions of fprintf(stderr, ...) in comments and strings are not
// calls.
#include <cstdio>

namespace fx {

void
report(int code, char *buf, unsigned long n)
{
    NASD_LOG(kWarn, "failed: ", code);
    std::printf("table row %d\n", code);
    std::fprintf(stdout, "fprintf(stderr, ...) is banned\n");
    std::snprintf(buf, n, "%d", code);
}

} // namespace fx
