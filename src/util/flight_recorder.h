/**
 * @file
 * Flight recorder: an always-on, bounded, deterministic journal of
 * control-plane events.
 *
 * The metrics registry answers "where did the time go" and the tracer
 * answers "what did this op fan out into"; neither records the
 * *sequence* of control-plane events — the fault injections, drive
 * crashes, version fences, rebuild row locks and degraded-mode
 * transitions whose interleaving is what actually explains a retry
 * storm or a stale-map writer. The FlightRecorder keeps one fixed-size
 * ring of trivially-copyable events per node, each stamped with a
 * globally-ordered sequence number, the simulated time, and the
 * TraceContext id of the operation it belongs to, so a journal line
 * links back to its causal trace and per-node journals merge into one
 * causally-ordered timeline (tools/flight_report.py).
 *
 * Determinism and cost contract:
 *  - timestamps are simulated time only; sequence numbers come from a
 *    per-recorder counter — two identical seeded runs produce
 *    byte-identical dumps (tools/check_determinism.sh gates this);
 *  - a journal reserves its fixed-size ring when it is created but
 *    writes a slot only when an event lands in it, so a node that
 *    records nothing keeps no resident ring pages; recording never
 *    allocates: events are fixed-size PODs, the detail string is
 *    clamped into an inline buffer, and the ring never grows.
 *
 * Like the MetricsRegistry, a process-wide recorder is always
 * installed (flightRecorder()) and FlightRecorderScope swaps in a
 * fresh one for the lifetime of a bench run or test.
 */
#ifndef NASD_UTIL_FLIGHT_RECORDER_H_
#define NASD_UTIL_FLIGHT_RECORDER_H_

#include <array>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "util/trace.h"

namespace nasd::util {

/** Control-plane event taxonomy (see DESIGN.md §9). */
enum class FrEvent : std::uint8_t
{
    // RPC unreliable-path outcomes.
    kRpcTimeout,   ///< deadline fired before any reply copy
    kRpcRetry,     ///< client retry policy re-issuing an attempt
    kRpcLateReply, ///< reply landed after the caller timed out
    // Fault-plan injections.
    kFaultPlanInstalled,
    kFaultPlanCleared,
    kFaultDrop,      ///< a = payload bytes
    kFaultDuplicate, ///< a = payload bytes, b = copies
    kFaultDelay,     ///< a = payload bytes, b = delay ns
    kPartition,      ///< detail = node cut off
    kHeal,           ///< detail = node reconnected
    // Drive lifecycle.
    kDriveCrash,
    kDriveRestart,
    kDriveFailed,    ///< media failure (setFailed(true))
    kDriveRecovered, ///< setFailed(false)
    kDriveProbe,     ///< a = status code
    // Capability lifecycle.
    kCapMint,    ///< a = object id, b = expiry ns
    kCapRefresh, ///< client refreshed its map/credentials
    kCapExpired, ///< drive rejected an expired capability
    // Cheops map control.
    kVersionFence, ///< a = logical object id, b = new map_version
    kMapRefresh,   ///< a = logical object id, b = map_version seen
    // Rebuild engine.
    kRebuildStart,    ///< a = object id, b = dead component
    kRebuildComplete, ///< a = object id, b = rows done
    kRebuildAbort,    ///< a = object id, b = rows done, detail = why
    kRowLockAcquire,  ///< a = object id, b = ticket (0 = engine)
    kRowLockRelease,  ///< a = object id, b = ticket (0 = engine)
    // Degraded-mode transitions.
    kDegradedRead,  ///< a = object id
    kDegradedWrite, ///< a = object id, b = row
    kWriteThrough,  ///< a = object id, b = row (write to rebuild target)
    kMarkDegraded,  ///< a = object id, b = component declared dead
    // Bench phase markers (fig9_mining --kill-drive).
    kPhaseBegin, ///< detail = phase name
    kPhaseEnd,   ///< detail = phase name
    // Top-level client operation (pfs/cheops entry points).
    kClientOp, ///< detail = op name, a = offset, b = bytes
    // Fleet telemetry.
    kDriveSlowdown,    ///< a = mech scale in milli-units (3000 = 3.0x)
    kStragglerSuspect, ///< detail = drive, a = score milli, b = p99 ns
};

/** Stable lower_snake name of an event kind (JSON + reports). */
const char *frEventName(FrEvent e);

/** One journal line. Fixed-size and trivially copyable so the ring
 *  never allocates; detail is clamped to the inline buffer. */
struct FlightEvent
{
    static constexpr std::size_t kDetailCap = 23;

    std::uint64_t seq = 0;      ///< global order across all journals
    std::uint64_t time_ns = 0;  ///< simulated time
    std::uint64_t trace_id = 0; ///< owning trace, 0 = none
    std::uint64_t a = 0;        ///< event-specific argument
    std::uint64_t b = 0;        ///< event-specific argument
    FrEvent kind = FrEvent::kClientOp;
    char detail[kDetailCap + 1] = {}; ///< NUL-terminated short label
};

static_assert(std::is_trivially_copyable_v<FlightEvent>,
              "journal rings memcpy events; keep FlightEvent POD");

class FlightRecorder;

/** Per-node bounded ring of FlightEvents (oldest overwritten). */
class FlightJournal
{
  public:
    /** Append one event; never allocates. */
    void record(std::uint64_t time_ns, FrEvent kind,
                std::uint64_t trace_id = 0, std::uint64_t a = 0,
                std::uint64_t b = 0, std::string_view detail = {});

    const std::string &nodeName() const { return node_; }
    std::size_t capacity() const { return capacity_; }
    /** Events currently held (≤ capacity). */
    std::size_t size() const { return ring_.size(); }
    /** Total events ever recorded (≥ size() once wrapped). */
    std::uint64_t recorded() const { return recorded_; }

    /** i-th retained event, oldest first (i < size()). */
    const FlightEvent &at(std::size_t i) const
    {
        const std::size_t base = recorded_ < capacity_ ? 0 : next_;
        return ring_[(base + i) % capacity_];
    }

  private:
    friend class FlightRecorder;
    FlightJournal(FlightRecorder &owner, std::string node,
                  std::size_t capacity)
        : owner_(owner), node_(std::move(node)), capacity_(capacity)
    {
        // Reserve, do not construct: the ring's pages stay untouched
        // until events land in them. (Allocating only on the first
        // event instead changes the host heap's layout enough to make
        // glibc trim and re-fault the heap top on some workloads.)
        ring_.reserve(capacity_);
    }

    FlightRecorder &owner_;
    std::string node_;
    std::size_t capacity_;
    std::vector<FlightEvent> ring_; ///< grows to capacity_, then wraps
    std::size_t next_ = 0;      ///< ring write cursor
    std::uint64_t recorded_ = 0;
};

/** Top-K retained tail samples of one op class (deterministic: no
 *  RNG; ties broken toward the earlier sample). With K = 16, every
 *  retained sample is ≥ the exact p99 once ≥ 1600 samples arrived. */
class TailExemplars
{
  public:
    static constexpr std::size_t kKeep = 16;

    struct Exemplar
    {
        double value = 0;           ///< e.g. latency ns
        std::uint64_t trace_id = 0; ///< trace of the sampled op
        std::uint64_t seq = 0;      ///< journal cursor at record time
    };

    void add(double value, std::uint64_t trace_id, std::uint64_t seq);

    std::uint64_t count() const { return count_; }
    std::size_t retained() const { return used_; }
    /** Retained samples sorted by descending value (max first). */
    std::vector<Exemplar> sorted() const;
    /** The single largest sample (retained() > 0). */
    const Exemplar &max() const;
    /** Smallest retained value: the reservoir's tail threshold. */
    double threshold() const;

  private:
    std::array<Exemplar, kKeep> keep_{};
    std::size_t used_ = 0;
    std::uint64_t count_ = 0;
};

/**
 * Owns the per-node journals, the global sequence counter that orders
 * them, the per-op-class tail exemplars, and the deterministic trace-id
 * mint used when no Tracer is installed.
 */
class FlightRecorder
{
  public:
    static constexpr std::size_t kDefaultCapacity = 4096;

    explicit FlightRecorder(std::size_t per_node_capacity = kDefaultCapacity)
        : capacity_(per_node_capacity)
    {
    }

    FlightRecorder(const FlightRecorder &) = delete;
    FlightRecorder &operator=(const FlightRecorder &) = delete;

    /**
     * Journal for @p node, created on first use. The pointer is stable
     * for the recorder's lifetime — emit sites cache it at
     * construction, like cached Counter references.
     */
    FlightJournal &node(const std::string &name);

    /** Next global sequence number (handed out by journal record()). */
    std::uint64_t nextSeq() { return ++next_seq_; }
    /** Sequence of the most recently recorded event. */
    std::uint64_t lastSeq() const { return next_seq_; }

    std::uint64_t totalRecorded() const;
    std::size_t nodeCount() const { return nodes_.size(); }

    /** Record one latency sample for @p op's tail-exemplar reservoir.
     *  Allocation-free once the op class exists (transparent lookup). */
    void recordLatency(std::string_view op, double value_ns,
                       std::uint64_t trace_id);
    /** Exemplars of @p op, or nullptr when none were recorded. */
    const TailExemplars *exemplars(std::string_view op) const;
    /** Op classes with exemplars, in deterministic (sorted) order. */
    std::vector<std::string> exemplarOps() const;

    /**
     * Deterministic trace-id mint for always-on journaling: uses the
     * installed Tracer when there is one (so journal lines share ids
     * with trace spans) and a per-recorder counter otherwise.
     */
    TraceContext mintTrace();
    /** Child context: Tracer childOf() when tracing, else the parent
     *  itself (or a fresh root when the parent is invalid). */
    TraceContext mintChild(const TraceContext &parent);

    /** All retained events merged across nodes, ordered by seq. */
    std::vector<std::pair<const FlightJournal *, const FlightEvent *>>
    merged() const;

    /** Events with seq in [center - radius, center + radius]. */
    std::vector<std::pair<const FlightJournal *, const FlightEvent *>>
    window(std::uint64_t center, std::uint64_t radius) const;

    /** Serialize every journal (and exemplars) as one JSON document. */
    std::string toJson() const;
    /** Write toJson() to @p path (NASD_FATAL on I/O failure). */
    void writeJson(const std::string &path) const;

  private:
    std::size_t capacity_;
    std::uint64_t next_seq_ = 0;
    std::uint64_t next_trace_id_ = 0;
    std::map<std::string, std::unique_ptr<FlightJournal>> nodes_;
    std::map<std::string, TailExemplars, std::less<>> exemplars_;
};

/** The currently installed recorder (never null). */
FlightRecorder &flightRecorder();

/**
 * RAII recorder swap, mirroring MetricsScope: installs a fresh
 * FlightRecorder (fresh sequence numbers, trace mints, journals and
 * exemplars) and restores the previous one on destruction, so repeated
 * bench runs in one process journal deterministically.
 */
class FlightRecorderScope
{
  public:
    explicit FlightRecorderScope(
        std::size_t per_node_capacity = FlightRecorder::kDefaultCapacity);
    ~FlightRecorderScope();

    FlightRecorderScope(const FlightRecorderScope &) = delete;
    FlightRecorderScope &operator=(const FlightRecorderScope &) = delete;

    FlightRecorder &recorder() { return recorder_; }

  private:
    FlightRecorder recorder_;
    FlightRecorder *previous_;
};

/**
 * Arm the logging panic/fatal hook so an assertion failure dumps the
 * current recorder's journals to @p path before the process dies —
 * the "black box" recovered after a seeded-fault assertion. Pass
 * nullptr to disarm.
 */
void armCrashDump(const char *path);

} // namespace nasd::util

#endif // NASD_UTIL_FLIGHT_RECORDER_H_
