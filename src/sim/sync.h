/**
 * @file
 * Synchronization primitives for simulation coroutines.
 *
 * Semaphore: counted permits with FIFO handoff (no barging), the basis
 * for all queued resources.
 * Gate: one-shot, level-triggered broadcast (once open, stays open).
 * Barrier: classic N-party rendezvous, reusable across generations.
 * parallelAll / parallelGather: fork a batch of lazy Tasks so they run
 * concurrently in simulated time and join on all of them.
 */
#ifndef NASD_SIM_SYNC_H_
#define NASD_SIM_SYNC_H_

#include <coroutine>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "sim/simulator.h"
#include "sim/task.h"
#include "util/logging.h"

namespace nasd::sim {

/** Counted semaphore with FIFO wakeup order. */
class Semaphore
{
  public:
    Semaphore(Simulator &sim, std::uint32_t permits)
        : sim_(sim), permits_(permits)
    {}

    Semaphore(const Semaphore &) = delete;
    Semaphore &operator=(const Semaphore &) = delete;

    struct Awaiter
    {
        Semaphore &sem;

        bool
        await_ready() const
        {
            if (sem.permits_ > 0 && sem.waiters_.empty()) {
                --sem.permits_;
                return true;
            }
            return false;
        }

        void
        await_suspend(std::coroutine_handle<> h)
        {
            // await_ready() declined, so either the queue is non-empty
            // (permits must be 0 by the drain invariant) or no permits
            // remain. Either way there is nothing to hand out: just
            // enqueue. Calling drain() here could schedule a resume of
            // h while its frame is still mid-suspend.
            NASD_ASSERT(sem.permits_ == 0,
                        "semaphore held permits while a waiter queued");
            sem.waiters_.push_back(h);
        }

        void await_resume() const {}
    };

    /** co_await acquire(): obtain one permit, FIFO order. */
    Awaiter acquire() { return Awaiter{*this}; }

    /** Return one permit; wakes the oldest waiter (at the current tick). */
    void
    release()
    {
        ++permits_;
        drain();
    }

    std::uint32_t availablePermits() const { return permits_; }
    std::size_t waiterCount() const { return waiters_.size(); }

  private:
    /** Hand permits to waiters in FIFO order via scheduled resumes. */
    void
    drain()
    {
        while (permits_ > 0 && !waiters_.empty()) {
            auto h = waiters_.front();
            waiters_.pop_front();
            --permits_;
            sim_.scheduleIn(0, [h] { h.resume(); });
        }
    }

    Simulator &sim_;
    std::uint32_t permits_;
    std::deque<std::coroutine_handle<>> waiters_;
};

/**
 * Acquire @p sem and return how long the caller waited in the queue.
 *
 * This is the attribution hook for queued resources: every acquisition
 * site outside src/sim must go through it (enforced by analyzer check
 * A4, tools/nasd_analyze.py) so queue-wait time is observable — callers
 * feed the returned wait into per-resource counters and the active
 * op's util::OpAttribution instead of losing it inside a bare
 * co_await sem.acquire().
 */
inline Task<Tick>
timedAcquire(Simulator &sim, Semaphore &sem)
{
    const Tick start = sim.now();
    co_await sem.acquire();
    co_return sim.now() - start;
}

/**
 * A held Semaphore permit that releases itself when destroyed.
 *
 * Returned by scopedAcquire(); the mandatory holder for any permit
 * whose scope contains an early return, a Result-propagating bail-out,
 * or a co_await that can throw — a manual sem.release() on every exit
 * path is exactly the pattern that leaked window permits before
 * (tools/nasd_analyze.py check A4 bans it outside src/sim).
 *
 * release() hands the permit back explicitly; use it on the happy path
 * when the release must happen at a specific point (or in a specific
 * order across several permits) rather than at scope exit. The
 * destructor is then a no-op, serving only as the safety net for the
 * paths that never reach it.
 */
class ScopedPermit
{
  public:
    ScopedPermit() = default;

    ScopedPermit(Semaphore &sem, Tick waited)
        : sem_(&sem), waited_(waited)
    {}

    ScopedPermit(ScopedPermit &&other) noexcept
        : sem_(std::exchange(other.sem_, nullptr)), waited_(other.waited_)
    {}

    ScopedPermit &
    operator=(ScopedPermit &&other) noexcept
    {
        if (this != &other) {
            release();
            sem_ = std::exchange(other.sem_, nullptr);
            waited_ = other.waited_;
        }
        return *this;
    }

    ScopedPermit(const ScopedPermit &) = delete;
    ScopedPermit &operator=(const ScopedPermit &) = delete;

    ~ScopedPermit() { release(); }

    /** Return the permit now (idempotent). */
    void
    release()
    {
        if (auto *sem = std::exchange(sem_, nullptr))
            sem->release();
    }

    bool held() const { return sem_ != nullptr; }

    /** Queue wait measured by scopedAcquire(), for attribution. */
    Tick waitNs() const { return waited_; }

  private:
    Semaphore *sem_ = nullptr;
    Tick waited_ = 0;
};

/**
 * Acquire @p sem and return a ScopedPermit carrying the measured queue
 * wait. The RAII sibling of timedAcquire(): same attribution contract,
 * plus leak-proof release on every exit path.
 */
inline Task<ScopedPermit>
scopedAcquire(Simulator &sim, Semaphore &sem)
{
    const Tick start = sim.now();
    co_await sem.acquire();
    co_return ScopedPermit(sem, sim.now() - start);
}

/** One-shot, level-triggered gate: once open(), all waits pass. */
class Gate
{
  public:
    explicit Gate(Simulator &sim) : sim_(sim) {}

    Gate(const Gate &) = delete;
    Gate &operator=(const Gate &) = delete;

    struct Awaiter
    {
        Gate &gate;

        bool await_ready() const { return gate.open_; }

        void
        await_suspend(std::coroutine_handle<> h)
        {
            gate.waiters_.push_back(h);
        }

        void await_resume() const {}
    };

    /** co_await wait(): proceed once the gate is (or becomes) open. */
    Awaiter wait() { return Awaiter{*this}; }

    /** Open the gate and release every current and future waiter. */
    void
    open()
    {
        if (open_)
            return;
        open_ = true;
        for (auto h : waiters_)
            sim_.scheduleIn(0, [h] { h.resume(); });
        waiters_.clear();
    }

    bool isOpen() const { return open_; }

  private:
    Simulator &sim_;
    bool open_ = false;
    std::vector<std::coroutine_handle<>> waiters_;
};

/** Reusable N-party barrier. */
class Barrier
{
  public:
    Barrier(Simulator &sim, std::uint32_t parties)
        : sim_(sim), parties_(parties)
    {
        NASD_ASSERT(parties > 0);
    }

    Barrier(const Barrier &) = delete;
    Barrier &operator=(const Barrier &) = delete;

    struct Awaiter
    {
        Barrier &barrier;

        bool await_ready() const { return barrier.parties_ == 1; }

        bool
        await_suspend(std::coroutine_handle<> h)
        {
            // The last arriver releases the rest and continues without
            // suspending (return false). Releasing here — not in
            // await_resume — keeps the release decision off the resume
            // path, where waiters_ may already hold arrivals for the
            // *next* generation and a stale size check could release
            // them early.
            if (barrier.waiters_.size() + 1 == barrier.parties_) {
                barrier.releaseAll();
                return false;
            }
            barrier.waiters_.push_back(h);
            return true;
        }

        void await_resume() const {}
    };

    /** co_await arrive(): block until all parties have arrived. */
    Awaiter arrive() { return Awaiter{*this}; }

  private:
    void
    releaseAll()
    {
        for (auto h : waiters_)
            sim_.scheduleIn(0, [h] { h.resume(); });
        waiters_.clear();
    }

    Simulator &sim_;
    std::uint32_t parties_;
    std::vector<std::coroutine_handle<>> waiters_;
};

namespace detail {

/** Shared completion state for a parallel join. */
struct JoinState
{
    explicit JoinState(Simulator &sim) : gate(sim) {}
    std::size_t remaining = 0;
    Gate gate;
};

inline Task<void>
notifyWhenDone(Task<void> task, std::shared_ptr<JoinState> state)
{
    co_await std::move(task);
    if (--state->remaining == 0)
        state->gate.open();
}

template <typename T>
Task<void>
gatherWhenDone(Task<T> task, std::shared_ptr<JoinState> state,
               std::vector<std::optional<T>> &out, std::size_t index)
{
    out[index].emplace(co_await std::move(task));
    if (--state->remaining == 0)
        state->gate.open();
}

} // namespace detail

/**
 * Run all @p tasks concurrently (in simulated time) and return when
 * every one has finished.
 */
inline Task<void>
parallelAll(Simulator &sim, std::vector<Task<void>> tasks)
{
    if (tasks.empty())
        co_return;
    auto state = std::make_shared<detail::JoinState>(sim);
    state->remaining = tasks.size();
    for (auto &t : tasks)
        sim.spawn(detail::notifyWhenDone(std::move(t), state));
    co_await state->gate.wait();
}

/**
 * Run all @p tasks concurrently and collect their results, in input
 * order.
 */
template <typename T>
Task<std::vector<T>>
parallelGather(Simulator &sim, std::vector<Task<T>> tasks)
{
    std::vector<std::optional<T>> slots(tasks.size());
    if (!tasks.empty()) {
        auto state = std::make_shared<detail::JoinState>(sim);
        state->remaining = tasks.size();
        for (std::size_t i = 0; i < tasks.size(); ++i) {
            sim.spawn(detail::gatherWhenDone<T>(std::move(tasks[i]), state,
                                                slots, i));
        }
        co_await state->gate.wait();
    }
    std::vector<T> results;
    results.reserve(slots.size());
    for (auto &slot : slots)
        results.push_back(std::move(*slot));
    co_return results;
}

} // namespace nasd::sim

#endif // NASD_SIM_SYNC_H_
