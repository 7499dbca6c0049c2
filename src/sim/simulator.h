/**
 * @file
 * Discrete-event simulator core.
 *
 * A Simulator owns the event queue and the simulated clock. Simulation
 * logic is expressed as coroutines (see task.h) spawned onto the
 * simulator; they advance time by awaiting delay() or by queueing on
 * resources (see resource.h / sync.h).
 *
 * Events at the same tick execute in FIFO order of scheduling, making
 * every run deterministic. The queue is a hierarchical timing wheel
 * with pooled event nodes (see event_queue.h): O(1) amortized
 * push/pop/cancel and no per-event heap allocation for small
 * callbacks, replacing the original binary heap of std::function —
 * with the executed (when, seq) sequence bit-identical to it.
 */
#ifndef NASD_SIM_SIMULATOR_H_
#define NASD_SIM_SIMULATOR_H_

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>

#include "sim/event_queue.h"
#include "sim/task.h"
#include "sim/time.h"

namespace nasd::sim {

/** Discrete-event engine: clock, event queue, and process ownership. */
class Simulator
{
  public:
    Simulator() = default;

    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;

    ~Simulator();

    /** Current simulated time. */
    Tick now() const { return now_; }

    /** Schedule @p fn to run at absolute time @p when (>= now). */
    void
    schedule(Tick when, EventFn fn)
    {
        NASD_ASSERT(when >= now_, "scheduling into the past: ", when,
                    " < ", now_);
        wheel_.push(when, next_seq_++, std::move(fn),
                    /*cancelable=*/false);
    }

    /** Schedule @p fn to run @p delta ticks from now. */
    void
    scheduleIn(Tick delta, EventFn fn)
    {
        schedule(now_ + delta, std::move(fn));
    }

    /**
     * Schedule @p fn at absolute time @p when and return a handle that
     * cancelScheduled() accepts. Used for timers that usually do not
     * fire (RPC deadlines): a cancelled event is skipped when popped
     * and — critically — does NOT advance the clock, so pending timers
     * of already-completed operations never inflate measured times in
     * run-until-empty loops.
     */
    TimerHandle
    scheduleCancelable(Tick when, EventFn fn)
    {
        NASD_ASSERT(when >= now_, "scheduling into the past: ", when,
                    " < ", now_);
        return wheel_.push(when, next_seq_++, std::move(fn),
                           /*cancelable=*/true);
    }

    /** scheduleCancelable() relative to now. */
    TimerHandle
    scheduleCancelableIn(Tick delta, EventFn fn)
    {
        return scheduleCancelable(now_ + delta, std::move(fn));
    }

    /**
     * Revoke a scheduleCancelable() event. O(1); no per-cancel state
     * is retained. A stale handle — the event already fired, was
     * already cancelled, or the handle is default-constructed — is a
     * harmless no-op thanks to the pool's generation counters, so
     * callers no longer need their own "already fired" bookkeeping.
     */
    void cancelScheduled(TimerHandle h) { wheel_.cancel(h); }

    /**
     * Start a top-level process. The simulator takes ownership of the
     * coroutine frame; it runs synchronously until its first suspension.
     * Exceptions escaping a spawned process are rethrown from run().
     */
    void spawn(Task<void> task);

    /** Run until the event queue is empty. */
    void run();

    /**
     * Run all events up to and including @p deadline, then set the
     * clock to @p deadline.
     * @return true if events remain scheduled after the deadline.
     */
    bool runUntil(Tick deadline);

    /** Total events executed so far (for tests and sanity checks). */
    std::uint64_t eventsExecuted() const { return events_executed_; }

    /**
     * Process-wide count of events executed across every Simulator
     * instance. Feeds the wall-clock `sim/events_per_sec` throughput
     * gauge in bench JSON dumps (see bench_util.h); deliberately NOT
     * part of any simulated quantity, so it never affects determinism.
     */
    static std::uint64_t totalEventsExecuted() { return total_events_; }

    /**
     * Time of the last event actually executed. After run() this
     * equals now(); after runUntil() it excludes the idle tail between
     * the final event and the rounded-up deadline, so sampled runs
     * (StatsPoller) measure the same elapsed time as plain run().
     */
    Tick lastEventTime() const { return last_event_time_; }

    /** Number of live (not yet finished) spawned processes. */
    std::size_t liveProcesses() const { return live_count_; }

    // Awaitable helpers ---------------------------------------------------

    /** Awaitable that suspends the coroutine for @p dt ticks. */
    struct DelayAwaiter
    {
        Simulator &sim;
        Tick dt;

        bool await_ready() const { return false; }

        void
        await_suspend(std::coroutine_handle<> h)
        {
            sim.scheduleIn(dt, [h] { h.resume(); });
        }

        void await_resume() const {}
    };

    /** co_await sim.delay(t): advance this process by @p dt ticks. */
    DelayAwaiter delay(Tick dt) { return DelayAwaiter{*this, dt}; }

  private:
    friend void detail::rootFinished(Simulator &,
                                     detail::PromiseBase &) noexcept;

    /** Reclaim finished top-level processes; rethrow their exceptions. */
    void sweepFinished();

    bool executeNext();

    Tick now_ = 0;
    Tick last_event_time_ = 0;
    std::uint64_t next_seq_ = 0;
    std::uint64_t events_executed_ = 0;
    TimerWheel wheel_;

    // Root coroutines live on intrusive lists threaded through their
    // promises (see PromiseBase): a doubly-linked list of running
    // processes (O(1) unlink when one finishes) and a singly-linked
    // FIFO of finished ones awaiting sweepFinished(), which is thus
    // O(finished), not O(all processes).
    detail::PromiseBase *live_head_ = nullptr;
    detail::PromiseBase *finished_head_ = nullptr;
    detail::PromiseBase *finished_tail_ = nullptr;
    std::size_t live_count_ = 0;

    static inline std::uint64_t total_events_ = 0;
};

/** Run one task on @p sim until it (and the queue) finishes. */
inline void
runTask(Simulator &sim, Task<void> task)
{
    sim.spawn(std::move(task));
    sim.run();
}

/** Run a value-returning task on @p sim to completion; return its
 *  value. Found by argument-dependent lookup: `runFor(sim, task)`. */
template <typename T>
T
runFor(Simulator &sim, Task<T> task)
{
    std::optional<T> result;
    sim.spawn([](Task<T> t, std::optional<T> &out) -> Task<void> {
        out = co_await std::move(t);
    }(std::move(task), result));
    sim.run();
    return std::move(*result);
}

} // namespace nasd::sim

#endif // NASD_SIM_SIMULATOR_H_
