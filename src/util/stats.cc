#include "util/stats.h"

#include <algorithm>

#include "util/logging.h"

namespace nasd::util {

void
UtilizationTracker::markBusy(std::uint64_t now)
{
    if (busy_)
        return;
    busy_ = true;
    busy_since_ = now;
}

void
UtilizationTracker::markIdle(std::uint64_t now)
{
    if (!busy_)
        return;
    NASD_ASSERT(now >= busy_since_);
    busy_ns_ += now - busy_since_;
    busy_ = false;
}

double
UtilizationTracker::utilization(std::uint64_t start, std::uint64_t end) const
{
    if (end <= start)
        return 0.0;
    std::uint64_t busy = busy_ns_;
    if (busy_ && end > busy_since_)
        busy += end - std::max(busy_since_, start);
    const double frac =
        static_cast<double>(busy) / static_cast<double>(end - start);
    return frac > 1.0 ? 1.0 : frac;
}

} // namespace nasd::util
