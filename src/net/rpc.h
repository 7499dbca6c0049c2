/**
 * @file
 * RPC timing harness.
 *
 * Every service in the system (NASD drive, file manager, Cheops
 * manager, NFS server) is an in-process object whose handlers are
 * coroutines; this helper wraps a handler invocation with the network
 * and CPU costs of a remote procedure call:
 *
 *   client send CPU -> network -> server recv CPU -> handler
 *     -> server send CPU -> network -> client recv CPU
 *
 * Bulk payloads move as a pipeline of chunks: the sender's CPU, the
 * wire, and the receiver's CPU are distinct FIFO resources, so chunk
 * k+1's protocol work overlaps chunk k's transfer, exactly as a real
 * protocol stack overlaps per-packet work. Sustained throughput is
 * governed by the slowest stage — which is how a 233 MHz client
 * running DCE RPC ends up capped near 80 Mb/s while the wire is
 * 155 Mb/s.
 *
 * The handler reports its reply payload size so that read-like
 * operations charge for the data they return.
 */
#ifndef NASD_NET_RPC_H_
#define NASD_NET_RPC_H_

#include <algorithm>
#include <coroutine>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "net/network.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace nasd::net {

/** What a server handler produces: a value plus its wire size. */
template <typename T>
struct RpcReply
{
    T value{};
    std::uint64_t payload_bytes = 0;
};

/** Pipeline granularity for bulk transfers (a jumbo packet). */
inline constexpr std::uint64_t kPipelineChunkBytes = 64 * 1024;

namespace detail {

/**
 * Per-chunk CPU + wire path; FIFO resources form the pipeline.
 *
 * The base cost and header ride only on the first chunk of a message.
 * A retried RPC is a *new* message — each attempt enters sendMessage()
 * from the top with first=true, so the full protocol cost (base
 * instructions + header bytes) is paid again per attempt, never
 * amortized across retries.
 */
inline sim::Task<void>
moveChunk(Network &net, NetNode &src, NetNode &dst, std::uint64_t bytes,
          bool first)
{
    const RpcCosts &sc = src.costs();
    const RpcCosts &dc = dst.costs();

    // Sender protocol work (base cost once per message).
    if (first) {
        co_await src.cpu().execute(sc.send_base_instr);
        src.send_instr.add(sc.send_base_instr);
    }
    const auto send_instr = static_cast<std::uint64_t>(
        sc.send_per_byte_instr * static_cast<double>(bytes));
    if (send_instr > 0) {
        co_await src.cpu().executeAt(send_instr, sc.data_cpi);
        src.send_instr.add(send_instr);
    }

    // Wire.
    co_await net.transfer(src, dst, bytes + (first ? sc.header_bytes : 0));

    // Receiver protocol work.
    if (first) {
        co_await dst.cpu().execute(dc.recv_base_instr);
        dst.recv_instr.add(dc.recv_base_instr);
    }
    const auto recv_instr = static_cast<std::uint64_t>(
        dc.recv_per_byte_instr * static_cast<double>(bytes));
    if (recv_instr > 0) {
        co_await dst.cpu().executeAt(recv_instr, dc.data_cpi);
        dst.recv_instr.add(recv_instr);
    }
}

/**
 * Cost of a message the switch drops: the sender still pays full send
 * CPU and serializes the frame onto its own link; nothing reaches the
 * receiver.
 */
inline sim::Task<void>
chargeLostSend(Network &net, NetNode &src, std::uint64_t bytes)
{
    const RpcCosts &sc = src.costs();
    co_await src.cpu().execute(sc.send_base_instr);
    src.send_instr.add(sc.send_base_instr);
    const auto send_instr = static_cast<std::uint64_t>(
        sc.send_per_byte_instr * static_cast<double>(bytes));
    if (send_instr > 0) {
        co_await src.cpu().executeAt(send_instr, sc.data_cpi);
        src.send_instr.add(send_instr);
    }
    co_await net.occupyTx(src, bytes + sc.header_bytes);
}

} // namespace detail

/**
 * Deliver one message of @p payload bytes from @p src to @p dst,
 * charging protocol CPU on both ends. Large payloads pipeline.
 */
inline sim::Task<void>
sendMessage(Network &net, NetNode &src, NetNode &dst,
            std::uint64_t payload)
{
    if (payload <= kPipelineChunkBytes) {
        co_await detail::moveChunk(net, src, dst, payload, true);
        co_return;
    }
    std::vector<sim::Task<void>> chunks;
    std::uint64_t sent = 0;
    bool first = true;
    while (sent < payload) {
        const std::uint64_t n =
            std::min(kPipelineChunkBytes, payload - sent);
        chunks.push_back(detail::moveChunk(net, src, dst, n, first));
        first = false;
        sent += n;
    }
    co_await sim::parallelAll(net.simulator(), std::move(chunks));
}

/**
 * Execute @p handler on @p server as an RPC from @p client.
 *
 * @param request_payload Bytes of arguments/data the client sends.
 * @param handler Server-side work; its RpcReply reports result bytes.
 * @return The handler's value, once the reply reaches the client.
 */
template <typename T>
sim::Task<T>
call(Network &net, NetNode &client, NetNode &server,
     std::uint64_t request_payload,
     std::function<sim::Task<RpcReply<T>>()> handler)
{
    co_await sendMessage(net, client, server, request_payload);
    RpcReply<T> reply = co_await handler();
    co_await sendMessage(net, server, client, reply.payload_bytes);
    co_return std::move(reply.value);
}

// Unreliable datagram path ----------------------------------------------

/**
 * Like sendMessage(), but subject to the network's FaultPlan and
 * partitions: the message may be dropped (sender still pays CPU + TX
 * serialization), duplicated, or delayed.
 *
 * @return Number of copies delivered to @p dst (0 = dropped).
 */
inline sim::Task<int>
sendUnreliableMessage(Network &net, NetNode &src, NetNode &dst,
                      std::uint64_t payload)
{
    const FaultDecision d = net.faultDecision(src, dst);
    if (d.drop) {
        co_await detail::chargeLostSend(net, src, payload);
        co_return 0;
    }
    if (d.delay > 0)
        co_await net.simulator().delay(d.delay);
    for (int i = 0; i < d.copies; ++i)
        co_await sendMessage(net, src, dst, payload);
    co_return d.copies;
}

/** Result classification of a deadline-protected RPC. */
enum class [[nodiscard]] RpcStatus
{
    kOk,
    kTimeout, ///< deadline expired before any reply copy arrived
};

/** Value + status of a deadline-protected RPC. */
template <typename T>
struct RpcOutcome
{
    RpcStatus status = RpcStatus::kTimeout;
    T value{};

    bool ok() const { return status == RpcStatus::kOk; }
};

namespace detail {

/**
 * Shared between the awaiting caller, the background delivery task,
 * and the deadline timer. shared_ptr-owned: the caller's frame may be
 * resumed (and destroyed) by the timer while the delivery task is
 * still in flight.
 */
template <typename T>
struct CallState
{
    bool done = false;      ///< first reply copy landed before deadline
    bool timed_out = false; ///< deadline fired first
    std::coroutine_handle<> waiter;
    T value{};
    // Deadline timer for this call. A fired or never-armed handle is
    // stale, and cancelling a stale handle is a free no-op (generation
    // counters in the event pool), so no "armed" flag is needed.
    sim::TimerHandle deadline_timer;
};

template <typename T>
struct ReplyAwaiter
{
    CallState<T> *state;

    bool await_ready() const { return state->done || state->timed_out; }
    void await_suspend(std::coroutine_handle<> h) { state->waiter = h; }
    void await_resume() const {}
};

/**
 * Background delivery of one RPC attempt. Runs to completion even if
 * the caller timed out and went away: the handler executes once per
 * delivered request copy (a duplicated request reaches the server
 * twice — replay protection is the server's job), and late replies are
 * counted on the client link instead of being delivered.
 */
template <typename T>
sim::Task<void>
runCall(Network &net, NetNode &client, NetNode &server,
        std::uint64_t request_payload,
        std::function<sim::Task<RpcReply<T>>()> handler,
        std::shared_ptr<CallState<T>> state)
{
    const int copies =
        co_await sendUnreliableMessage(net, client, server,
                                       request_payload);
    for (int i = 0; i < copies; ++i) {
        RpcReply<T> reply = co_await handler();
        const int delivered = co_await sendUnreliableMessage(
            net, server, client, reply.payload_bytes);
        if (delivered == 0)
            continue; // reply lost on the way back
        if (state->timed_out) {
            client.rpc_late_replies.add(1);
            client.flightJournal().record(net.simulator().now(),
                                          util::FrEvent::kRpcLateReply, 0,
                                          reply.payload_bytes, 0,
                                          server.name());
            continue;
        }
        if (state->done)
            continue; // duplicate reply; first copy won
        state->done = true;
        state->value = std::move(reply.value);
        net.simulator().cancelScheduled(state->deadline_timer);
        if (auto h = std::exchange(state->waiter, nullptr)) {
            // Defer one tick-0 event so the caller resumes from the
            // event loop, not from inside this frame (Gate idiom).
            net.simulator().scheduleIn(0, [h] { h.resume(); });
        }
    }
    // The simulator reclaims finished root frames lazily, so release
    // the handler and what it captured now: a write's source counts
    // the attempts still holding it (NasdClient::write).
    handler = nullptr;
}

} // namespace detail

/**
 * Execute @p handler on @p server as an RPC from @p client with a
 * deadline on the simulator clock. The request and reply travel the
 * unreliable path; if no reply copy arrives within @p timeout the call
 * returns RpcStatus::kTimeout instead of hanging. The server-side work
 * keeps running in the background — a late reply is counted in
 * client.rpc_late_replies, never delivered.
 */
template <typename T>
sim::Task<RpcOutcome<T>>
callWithDeadline(Network &net, NetNode &client, NetNode &server,
                 std::uint64_t request_payload,
                 std::function<sim::Task<RpcReply<T>>()> handler,
                 sim::Tick timeout)
{
    auto state = std::make_shared<detail::CallState<T>>();
    auto &sim = net.simulator();
    sim.spawn(detail::runCall<T>(net, client, server, request_payload,
                                 std::move(handler), state));
    if (!state->done && !state->timed_out) {
        NetNode *client_ptr = &client;
        NetNode *server_ptr = &server;
        sim::Simulator *sim_ptr = &sim;
        state->deadline_timer = sim.scheduleCancelableIn(
            timeout, [state, client_ptr, server_ptr, sim_ptr] {
                if (state->done || state->timed_out)
                    return;
                state->timed_out = true;
                client_ptr->rpc_timeouts.add(1);
                client_ptr->flightJournal().record(
                    sim_ptr->now(), util::FrEvent::kRpcTimeout, 0, 0, 0,
                    server_ptr->name());
                if (auto h = std::exchange(state->waiter, nullptr))
                    h.resume();
            });
        co_await detail::ReplyAwaiter<T>{state.get()};
    }
    RpcOutcome<T> out;
    if (state->done) {
        out.status = RpcStatus::kOk;
        out.value = std::move(state->value);
    } else {
        out.status = RpcStatus::kTimeout;
    }
    co_return out;
}

} // namespace nasd::net

#endif // NASD_NET_RPC_H_
