/**
 * @file
 * The benchmark's four workloads. Each builds its cluster through the
 * libraries' public constructors, loads a seeded dataset, and runs
 * closed-loop rounds of application ops whose outputs it checks.
 */
#ifndef NASDBENCH_WORKLOADS_H_
#define NASDBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"

namespace nasdbench {

/** What one timed round did and whether its outputs were right. */
struct RoundResult
{
    std::uint64_t attempted = 0;      ///< application ops issued
    std::uint64_t failed = 0;         ///< ops with a non-ok result
    std::uint64_t bytes = 0;          ///< application bytes moved
    std::uint64_t verified_bytes = 0; ///< of those, checked correct
    std::uint64_t written_bytes = 0;  ///< bytes written, checked later
    std::uint64_t scanned_bytes = 0;  ///< bytes consumed on-drive
    double sim_seconds = 0;           ///< simulated length of the round
    bool correct = true;
    std::vector<double> latency_ms;   ///< the app op's sim latency
    std::map<std::string, std::uint64_t> counts; ///< bench-side op counts
    std::vector<std::string> mismatches;
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /**
     * Build a fresh cluster and load and flush the dataset, replacing
     * any earlier cluster. Returns the host seconds spent on work a
     * user would not do (the benchmark's reference computation).
     */
    virtual double setup(Spans &spans) = 0;

    /** One closed-loop round of application ops on the cluster. */
    virtual RoundResult round(std::uint64_t index, Spans &spans) = 0;

    /** Check state the rounds left behind; false on a mismatch. */
    virtual bool
    finalCheck(std::vector<std::string> &)
    {
        return true;
    }

    /** TransactionGenerator chunks one setup generates. */
    virtual std::uint64_t genChunks() const = 0;
    /** Sector size of the workload's disks. */
    virtual std::uint32_t diskBlockBytes() const = 0;
    /** What sim_op_* times, for the notes. */
    virtual const char *opName() const = 0;
};

/** The named workload, or nullptr for an unknown name. */
std::unique_ptr<Workload> makeWorkload(const Options &opts);

} // namespace nasdbench

#endif // NASDBENCH_WORKLOADS_H_
