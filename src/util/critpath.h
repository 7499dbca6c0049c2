/**
 * @file
 * Critical-path analysis over a Tracer's span tree.
 *
 * A striped read fans out to several drives and completes when the
 * slowest branch does: the critical path. analyzeDriveFanout() walks
 * every trace that has a root span of a given name (e.g. "pfs/read"),
 * finds its child spans matching a prefix (e.g. "drive/"), and reports
 * per drive lane how often that drive finished last (was critical) and
 * how much slack (time behind the critical branch) it had otherwise.
 * fig9_mining prints it for its in-memory trace under both --breakdown
 * and --trace.
 */
#ifndef NASD_UTIL_CRITPATH_H_
#define NASD_UTIL_CRITPATH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/trace.h"

namespace nasd::util {

/** Per-drive-lane summary across all analyzed root ops. */
struct DriveFanoutStats
{
    std::string lane;           ///< drive lane name ("nasd3", ...)
    std::uint64_t spans = 0;    ///< fan-out branches landing on this lane
    std::uint64_t critical = 0; ///< times this lane finished last
    double mean_slack_ns = 0;   ///< avg time behind the critical branch
    double mean_dur_ns = 0;     ///< avg branch duration on this lane
};

struct FanoutReport
{
    std::uint64_t roots = 0; ///< root ops with at least one fan-out span
    /** Sorted by critical count descending, then lane name. */
    std::vector<DriveFanoutStats> drives;

    /** Lane that was critical most often ("" when no roots matched). */
    const std::string &dominantLane() const
    {
        static const std::string kNone;
        return drives.empty() ? kNone : drives.front().lane;
    }
};

/**
 * Analyze every trace in @p tracer whose root span is named
 * @p root_name, treating spans whose names start with @p child_prefix
 * as the fan-out branches (grouped by trace id, so indirect children
 * count too).
 */
FanoutReport analyzeDriveFanout(const Tracer &tracer,
                                const std::string &root_name,
                                const std::string &child_prefix);

} // namespace nasd::util

#endif // NASD_UTIL_CRITPATH_H_
