/**
 * @file
 * Causal tracing: TraceContext propagation and a Chrome trace_event
 * timeline writer.
 *
 * A TraceContext (trace id + span id) is minted per top-level client
 * operation and carried through RPC request parameters, so a striped
 * Cheops read shows its per-drive fan-out as child spans of the client
 * op. Spans are stamped in simulated time; the Tracer deliberately
 * takes raw nanosecond timestamps so util does not depend on sim.
 *
 * Tracing is off unless a Tracer is installed with setTracer(); the
 * instrumented paths pay one null-pointer check when disabled. The
 * output of writeJson() loads directly into chrome://tracing or
 * https://ui.perfetto.dev.
 */
#ifndef NASD_UTIL_TRACE_H_
#define NASD_UTIL_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace nasd::util {

/** Causal identity carried along an operation's RPC chain. */
struct TraceContext
{
    std::uint64_t trace_id = 0; ///< one per top-level client op; 0 = none
    std::uint64_t span_id = 0;  ///< current span within the trace

    bool valid() const { return trace_id != 0; }
};

/**
 * Collects spans and serializes them in Chrome trace_event format.
 * Each named lane ("client0", "cheops", "drive3", ...) becomes a
 * thread row in the timeline; span args carry trace/span/parent ids so
 * causality survives into the viewer.
 */
class Tracer
{
  public:
    /** One recorded span; exposed for in-process analysis (critpath). */
    struct Span
    {
        std::string name;
        std::uint32_t tid;
        std::uint64_t begin_ns;
        std::uint64_t end_ns;
        TraceContext ctx;
        std::uint64_t parent_span;
        /** Extra numeric annotations (wait/service ns, byte counts). */
        std::vector<std::pair<std::string, std::uint64_t>> args;
    };

    /** Mint a fresh trace with its root span id. */
    TraceContext newRoot();

    /** Mint a child context: same trace, new span id. */
    TraceContext childOf(const TraceContext &parent);

    /**
     * Open a span on @p lane at simulated time @p now_ns; returns a
     * handle for endSpan(). @p parent_span is 0 for root spans.
     */
    std::size_t beginSpan(const std::string &name, const std::string &lane,
                          std::uint64_t now_ns, const TraceContext &ctx,
                          std::uint64_t parent_span = 0);

    /** Close the span @p handle at simulated time @p now_ns. */
    void endSpan(std::size_t handle, std::uint64_t now_ns);

    /**
     * Attach a numeric annotation to an open or closed span; emitted
     * into the span's JSON args. Repeated keys accumulate (last wins in
     * the viewer, all are retained in spans()).
     */
    void annotateSpan(std::size_t handle, const std::string &key,
                      std::uint64_t value);

    std::size_t spanCount() const { return spans_.size(); }

    /** All recorded spans, in begin order. */
    const std::vector<Span> &spans() const { return spans_; }

    /** Lane name for a span's tid (tids start at 1). */
    const std::string &laneName(std::uint32_t tid) const
    {
        return lane_names_[tid - 1];
    }

    /** Serialize all spans as a Chrome trace_event JSON document. */
    std::string toJson() const;

    /** Write toJson() to @p path (NASD_FATAL on I/O failure). */
    void writeJson(const std::string &path) const;

  private:
    std::uint32_t laneTid(const std::string &lane);

    std::vector<Span> spans_;
    std::map<std::string, std::uint32_t> lane_tids_;
    std::vector<std::string> lane_names_; ///< indexed by tid - 1
    std::uint64_t next_trace_id_ = 0;
    std::uint64_t next_span_id_ = 0;
};

/** Currently installed tracer, or nullptr when tracing is disabled. */
Tracer *tracer();

/** Install (or, with nullptr, remove) the process-wide tracer. */
void setTracer(Tracer *t);

/**
 * RAII span: opens on construction when tracing is enabled, closes on
 * endAt(). Safe to use unconditionally; a disabled tracer makes every
 * operation a no-op.
 */
class ScopedSpan
{
  public:
    /** A span that never opened: for a caller that saw tracing off and
     *  so built no name. */
    ScopedSpan() = default;

    ScopedSpan(const std::string &name, const std::string &lane,
               std::uint64_t now_ns, const TraceContext &ctx,
               std::uint64_t parent_span = 0);

    /** Is the span recording (tracing on and not yet closed)? */
    bool open() const { return tracer_ != nullptr; }

    /** Close the span at simulated time @p now_ns (idempotent). */
    void endAt(std::uint64_t now_ns);

    /** Attach a numeric annotation (no-op when tracing is disabled
     *  or the span has already been closed). */
    void annotate(const std::string &key, std::uint64_t value);

  private:
    Tracer *tracer_ = nullptr;
    std::size_t handle_ = 0;
};

} // namespace nasd::util

#endif // NASD_UTIL_TRACE_H_
