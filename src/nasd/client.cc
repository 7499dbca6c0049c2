#include "nasd/client.h"

#include <algorithm>
#include <memory>

#include "sim/sync.h"
#include "util/flight_recorder.h"
#include "util/logging.h"

namespace nasd {

namespace {

/// Wire size of the fixed request frame: arguments + capability public
/// portion + nonce + request digest (Figure 5), beyond the transport
/// headers already counted by the RPC layer.
constexpr std::uint64_t kControlPayload = 128;

/// Wire size of an attribute frame in replies.
constexpr std::uint64_t kAttrPayload = 128;

/// Pieces of one request cut at max_transfer that are in flight at
/// once: the drive reads piece k+1 while piece k crosses the wire.
constexpr std::uint32_t kTransferWindow = 2;

/// Per-attempt handler factory for attemptLoop. GCC 12 miscompiles a
/// prvalue std::function temporary passed as a by-value coroutine
/// parameter (the temporary is destroyed twice, over-releasing any
/// owning captures), so every MakeFn — and every handler it returns —
/// must be materialized as a named lvalue before it crosses a
/// coroutine boundary.
template <typename Resp>
using MakeFn =
    std::function<std::function<sim::Task<net::RpcReply<Resp>>()>()>;

/** Deterministic per-(node, drive) jitter seed (FNV-1a). */
std::uint64_t
jitterSeed(const std::string &node_name, DriveId drive_id)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : node_name) {
        h ^= static_cast<std::uint8_t>(c);
        h *= 0x100000001b3ULL;
    }
    h ^= drive_id;
    h *= 0x100000001b3ULL;
    return h;
}

/**
 * Run one drive RPC under the retry policy.
 *
 * @p make builds a fresh server-side handler per attempt; it must
 * value-capture everything the handler touches (a timed-out attempt's
 * handler keeps running in the background after the caller's frame has
 * moved on) and mint a fresh credential so each attempt carries a new
 * nonce. kReplayedRequest also retries for idempotent ops: it means a
 * duplicate copy of an earlier attempt reached the drive first and the
 * surviving reply raced badly — a fresh nonce resolves it.
 */
template <typename Resp>
sim::Task<Resp>
attemptLoop(net::Network &net, net::NetNode &node, NasdDrive &drive,
            const DriveRetryPolicy &policy, util::Rng &rng, bool retryable,
            sim::Tick timeout, std::uint64_t request_payload,
            const char *op, std::uint64_t trace_id, MakeFn<Resp> make)
{
    const int attempts = retryable ? std::max(policy.max_attempts, 1) : 1;
    for (int attempt = 0; attempt < attempts; ++attempt) {
        if (attempt > 0) {
            node.flightJournal().record(
                net.simulator().now(), util::FrEvent::kRpcRetry, trace_id,
                static_cast<std::uint64_t>(attempt), drive.id(), op);
            const sim::Tick base =
                std::min(policy.backoff_base << (attempt - 1),
                         policy.backoff_cap);
            const auto jitter = static_cast<sim::Tick>(
                rng.below(static_cast<std::uint64_t>(base / 2) + 1));
            co_await net.simulator().delay(base + jitter);
        }
        auto handler = make();
        net::RpcOutcome<Resp> outcome =
            co_await net::callWithDeadline<Resp>(net, node, drive.node(),
                                                 request_payload, handler,
                                                 timeout);
        if (!outcome.ok())
            continue; // deadline expired; retry if attempts remain
        Resp resp = std::move(outcome.value);
        if (retryable && resp.status == NasdStatus::kReplayedRequest &&
            attempt + 1 < attempts)
            continue;
        co_return resp;
    }
    Resp failed{};
    failed.status = NasdStatus::kTimeout;
    co_return failed;
}

/** Closes a ReadLanding when the reading frame ends, however it ends. */
struct LandingClose
{
    ReadLanding &landing;
    ~LandingClose() { landing.live = 0; }
};

/** Run @p piece once a permit of @p window is free. */
template <typename T>
sim::Task<T>
inWindow(sim::Simulator &sim, sim::Semaphore &window, sim::Task<T> piece)
{
    auto permit = co_await sim::scopedAcquire(sim, window);
    co_return co_await std::move(piece);
}

/** Run @p pieces with at most @p window of them in flight (FIFO), and
 *  collect their results in input order. */
template <typename T>
sim::Task<std::vector<T>>
gatherWindowed(sim::Simulator &sim, std::uint32_t window,
               std::vector<sim::Task<T>> pieces)
{
    sim::Semaphore permits(sim, window);
    std::vector<sim::Task<T>> held;
    held.reserve(pieces.size());
    for (auto &piece : pieces)
        held.push_back(inWindow(sim, permits, std::move(piece)));
    co_return co_await sim::parallelGather(sim, std::move(held));
}

} // namespace

NasdClient::NasdClient(net::Network &net, net::NetNode &node,
                       NasdDrive &drive)
    : net_(net), node_(node), drive_(drive),
      retry_rng_(jitterSeed(node.name(), drive.id()))
{}

sim::Task<StoreResult<std::uint64_t>>
NasdClient::read(CredentialFactory &cred, std::uint64_t offset,
                 std::span<std::uint8_t> out, util::TraceContext parent)
{
    if (out.size() > policy_.max_transfer)
        co_return co_await readPieces(cred, offset, out, parent);
    RequestParams params{OpCode::kReadData, cred.capability().pub.partition,
                         cred.capability().pub.object_id, offset,
                         out.size()};
    params.trace = util::flightRecorder().mintChild(parent);
    util::ScopedSpan span("nasd/read", node_.name(),
                          static_cast<std::uint64_t>(net_.simulator().now()),
                          params.trace, parent.span_id);
    NasdDrive *drive = &drive_;

    // Every attempt lands its bytes in `out` through one shared record;
    // each new attempt takes the live id, and the id is cleared before
    // this frame ends, so a timed-out attempt or a duplicate that is
    // still running never writes into `out` afterwards.
    const auto landing = std::make_shared<ReadLanding>(ReadLanding{out});
    const LandingClose close{*landing};
    const MakeFn<ReadResponse> make = [&cred, params, drive, landing] {
        const RequestCredential credential = cred.forRequest(params);
        const std::uint64_t attempt = ++landing->live;
        return std::function<sim::Task<net::RpcReply<ReadResponse>>()>(
            [drive, credential, params, landing,
             attempt]() -> sim::Task<net::RpcReply<ReadResponse>> {
                auto r = co_await drive->serveRead(credential, params,
                                                   landing, attempt);
                co_return net::RpcReply<ReadResponse>{r, r.length};
            });
    };
    ReadResponse resp = co_await attemptLoop<ReadResponse>(
        net_, node_, drive_, policy_, retry_rng_, true, policy_.timeout,
        kControlPayload, "read", params.trace.trace_id, make);
    span.endAt(static_cast<std::uint64_t>(net_.simulator().now()));

    if (resp.status != NasdStatus::kOk)
        co_return util::Err{resp.status};
    NASD_ASSERT(resp.length <= out.size(), "read reply overruns");
    co_return resp.length;
}

sim::Task<StoreResult<std::uint64_t>>
NasdClient::readPieces(CredentialFactory &cred, std::uint64_t offset,
                       std::span<std::uint8_t> out, util::TraceContext parent)
{
    std::vector<sim::Task<StoreResult<std::uint64_t>>> pieces;
    for (std::uint64_t at = 0; at < out.size(); at += policy_.max_transfer) {
        const std::uint64_t n =
            std::min<std::uint64_t>(policy_.max_transfer, out.size() - at);
        pieces.push_back(read(cred, offset + at, out.subspan(at, n), parent));
    }
    const auto results = co_await gatherWindowed(
        net_.simulator(), kTransferWindow, std::move(pieces));
    // A piece that comes back short ends the object: return the
    // contiguous prefix, whatever the pieces after it found.
    std::uint64_t total = 0;
    for (const auto &r : results) {
        if (!r.ok())
            co_return util::Err{r.error()};
        total += r.value();
        if (r.value() < policy_.max_transfer)
            break;
    }
    co_return total;
}

sim::Task<StoreResult<std::vector<std::uint8_t>>>
NasdClient::read(CredentialFactory &cred, std::uint64_t offset,
                 std::uint64_t length, util::TraceContext parent)
{
    std::vector<std::uint8_t> out(length);
    auto n = co_await read(cred, offset, std::span(out), parent);
    if (!n.ok())
        co_return util::Err{n.error()};
    out.resize(n.value());
    co_return out;
}

sim::Task<StoreResult<void>>
NasdClient::write(CredentialFactory &cred, std::uint64_t offset,
                  std::span<const std::uint8_t> data,
                  util::TraceContext parent)
{
    if (data.size() > policy_.max_transfer)
        co_return co_await writePieces(cred, offset, data, parent);
    RequestParams params{OpCode::kWriteData,
                         cred.capability().pub.partition,
                         cred.capability().pub.object_id, offset,
                         data.size()};
    params.trace = util::flightRecorder().mintChild(parent);
    util::ScopedSpan span("nasd/write", node_.name(),
                          static_cast<std::uint64_t>(net_.simulator().now()),
                          params.trace, parent.span_id);
    NasdDrive *drive = &drive_;

    // Every attempt reads the caller's bytes through one shared source.
    // Only this frame holds it, and only its handlers copy it, so once
    // the attempts are over a count above one means some attempt's
    // delivery is still running.
    const auto source = std::make_shared<WriteSource>(WriteSource{data, {}});
    const MakeFn<StatusResponse> make = [&cred, params, drive, &source] {
        const RequestCredential credential = cred.forRequest(params);
        return std::function<sim::Task<net::RpcReply<StatusResponse>>()>(
            [drive, credential, params,
             source]() -> sim::Task<net::RpcReply<StatusResponse>> {
                auto r = co_await drive->serveWrite(credential, params,
                                                    source);
                co_return net::RpcReply<StatusResponse>{r, 0};
            });
    };
    StatusResponse resp = co_await attemptLoop<StatusResponse>(
        net_, node_, drive_, policy_, retry_rng_, true, policy_.timeout,
        kControlPayload + data.size(), "write", params.trace.trace_id,
        make);
    span.endAt(static_cast<std::uint64_t>(net_.simulator().now()));

    // An attempt still in flight (timed out, delayed or duplicated) may
    // reach the store after the caller's buffer is gone: it lands a
    // copy of the same bytes instead. This is a statement, not a
    // destructor, on purpose: a frame destroyed while suspended is torn
    // down with its simulator, no attempt runs again, and the caller's
    // buffer may already be gone.
    if (source.use_count() > 1) {
        source->keep();
        ++kept_writes_;
    }

    if (resp.status != NasdStatus::kOk)
        co_return util::Err{resp.status};
    co_return StoreResult<void>{};
}

sim::Task<StoreResult<void>>
NasdClient::writePieces(CredentialFactory &cred, std::uint64_t offset,
                        std::span<const std::uint8_t> data,
                        util::TraceContext parent)
{
    std::vector<sim::Task<StoreResult<void>>> pieces;
    for (std::uint64_t at = 0; at < data.size(); at += policy_.max_transfer) {
        const std::uint64_t n =
            std::min<std::uint64_t>(policy_.max_transfer, data.size() - at);
        pieces.push_back(write(cred, offset + at, data.subspan(at, n), parent));
    }
    const auto results = co_await gatherWindowed(
        net_.simulator(), kTransferWindow, std::move(pieces));
    for (const auto &r : results) {
        if (!r.ok())
            co_return util::Err{r.error()};
    }
    co_return StoreResult<void>{};
}

sim::Task<StoreResult<ObjectAttributes>>
NasdClient::getAttr(CredentialFactory &cred)
{
    RequestParams params{OpCode::kGetAttr, cred.capability().pub.partition,
                         cred.capability().pub.object_id, 0, 0};
    NasdDrive *drive = &drive_;

    const MakeFn<AttrResponse> make = [&cred, params, drive] {
        const RequestCredential credential = cred.forRequest(params);
        return std::function<sim::Task<net::RpcReply<AttrResponse>>()>(
            [drive, credential,
             params]() -> sim::Task<net::RpcReply<AttrResponse>> {
                auto r = co_await drive->serveGetAttr(credential, params);
                co_return net::RpcReply<AttrResponse>{r, kAttrPayload};
            });
    };
    AttrResponse resp = co_await attemptLoop<AttrResponse>(
        net_, node_, drive_, policy_, retry_rng_, true, policy_.timeout,
        kControlPayload, "getattr", params.trace.trace_id, make);

    if (resp.status != NasdStatus::kOk)
        co_return util::Err{resp.status};
    co_return resp.attrs;
}

sim::Task<StoreResult<ObjectAttributes>>
NasdClient::setAttr(CredentialFactory &cred, const SetAttrRequest &changes)
{
    RequestParams params{OpCode::kSetAttr, cred.capability().pub.partition,
                         cred.capability().pub.object_id, 0, 0};
    NasdDrive *drive = &drive_;

    const MakeFn<AttrResponse> make = [&cred, params, drive, changes] {
        const RequestCredential credential = cred.forRequest(params);
        return std::function<sim::Task<net::RpcReply<AttrResponse>>()>(
            [drive, credential, params,
             changes]() -> sim::Task<net::RpcReply<AttrResponse>> {
                auto r = co_await drive->serveSetAttr(credential, params,
                                                      changes);
                co_return net::RpcReply<AttrResponse>{r, kAttrPayload};
            });
    };
    AttrResponse resp = co_await attemptLoop<AttrResponse>(
        net_, node_, drive_, policy_, retry_rng_, false, policy_.timeout,
        kControlPayload + kAttrPayload, "setattr", params.trace.trace_id,
        make);

    if (resp.status != NasdStatus::kOk)
        co_return util::Err{resp.status};
    co_return resp.attrs;
}

sim::Task<StoreResult<ObjectId>>
NasdClient::create(CredentialFactory &cred, std::uint64_t capacity_hint)
{
    RequestParams params{OpCode::kCreateObject,
                         cred.capability().pub.partition,
                         cred.capability().pub.object_id, 0, capacity_hint};
    NasdDrive *drive = &drive_;

    const MakeFn<CreateResponse> make = [&cred, params, drive] {
        const RequestCredential credential = cred.forRequest(params);
        return std::function<sim::Task<net::RpcReply<CreateResponse>>()>(
            [drive, credential,
             params]() -> sim::Task<net::RpcReply<CreateResponse>> {
                auto r = co_await drive->serveCreate(credential, params);
                co_return net::RpcReply<CreateResponse>{r, 16};
            });
    };
    CreateResponse resp = co_await attemptLoop<CreateResponse>(
        net_, node_, drive_, policy_, retry_rng_, false, policy_.timeout,
        kControlPayload, "create", params.trace.trace_id, make);

    if (resp.status != NasdStatus::kOk)
        co_return util::Err{resp.status};
    co_return resp.object_id;
}

sim::Task<StoreResult<void>>
NasdClient::remove(CredentialFactory &cred)
{
    RequestParams params{OpCode::kRemoveObject,
                         cred.capability().pub.partition,
                         cred.capability().pub.object_id, 0, 0};
    NasdDrive *drive = &drive_;

    const MakeFn<StatusResponse> make = [&cred, params, drive] {
        const RequestCredential credential = cred.forRequest(params);
        return std::function<sim::Task<net::RpcReply<StatusResponse>>()>(
            [drive, credential,
             params]() -> sim::Task<net::RpcReply<StatusResponse>> {
                auto r = co_await drive->serveRemove(credential, params);
                co_return net::RpcReply<StatusResponse>{r, 0};
            });
    };
    StatusResponse resp = co_await attemptLoop<StatusResponse>(
        net_, node_, drive_, policy_, retry_rng_, false, policy_.timeout,
        kControlPayload, "remove", params.trace.trace_id, make);

    if (resp.status != NasdStatus::kOk)
        co_return util::Err{resp.status};
    co_return StoreResult<void>{};
}

sim::Task<StoreResult<ObjectId>>
NasdClient::cloneVersion(CredentialFactory &cred)
{
    RequestParams params{OpCode::kCloneVersion,
                         cred.capability().pub.partition,
                         cred.capability().pub.object_id, 0, 0};
    NasdDrive *drive = &drive_;

    const MakeFn<CreateResponse> make = [&cred, params, drive] {
        const RequestCredential credential = cred.forRequest(params);
        return std::function<sim::Task<net::RpcReply<CreateResponse>>()>(
            [drive, credential,
             params]() -> sim::Task<net::RpcReply<CreateResponse>> {
                auto r = co_await drive->serveClone(credential, params);
                co_return net::RpcReply<CreateResponse>{r, 16};
            });
    };
    CreateResponse resp = co_await attemptLoop<CreateResponse>(
        net_, node_, drive_, policy_, retry_rng_, false, policy_.timeout,
        kControlPayload, "clone", params.trace.trace_id, make);

    if (resp.status != NasdStatus::kOk)
        co_return util::Err{resp.status};
    co_return resp.object_id;
}

sim::Task<StoreResult<std::vector<ObjectId>>>
NasdClient::listObjects(CredentialFactory &cred)
{
    RequestParams params{OpCode::kListObjects,
                         cred.capability().pub.partition,
                         cred.capability().pub.object_id, 0, 0};
    NasdDrive *drive = &drive_;

    const MakeFn<ListResponse> make = [&cred, params, drive] {
        const RequestCredential credential = cred.forRequest(params);
        return std::function<sim::Task<net::RpcReply<ListResponse>>()>(
            [drive, credential,
             params]() -> sim::Task<net::RpcReply<ListResponse>> {
                auto r = co_await drive->serveList(credential, params);
                const std::uint64_t payload =
                    r.ids.size() * sizeof(ObjectId);
                co_return net::RpcReply<ListResponse>{std::move(r), payload};
            });
    };
    ListResponse resp = co_await attemptLoop<ListResponse>(
        net_, node_, drive_, policy_, retry_rng_, true, policy_.timeout,
        kControlPayload, "list", params.trace.trace_id, make);

    if (resp.status != NasdStatus::kOk)
        co_return util::Err{resp.status};
    co_return std::move(resp.ids);
}

sim::Task<StoreResult<void>>
NasdClient::setKey(CredentialFactory &cred)
{
    RequestParams params{OpCode::kSetKey, cred.capability().pub.partition,
                         cred.capability().pub.object_id, 0, 0};
    NasdDrive *drive = &drive_;

    const MakeFn<StatusResponse> make = [&cred, params, drive] {
        const RequestCredential credential = cred.forRequest(params);
        return std::function<sim::Task<net::RpcReply<StatusResponse>>()>(
            [drive, credential,
             params]() -> sim::Task<net::RpcReply<StatusResponse>> {
                auto r = co_await drive->serveSetKey(credential, params);
                co_return net::RpcReply<StatusResponse>{r, 0};
            });
    };
    StatusResponse resp = co_await attemptLoop<StatusResponse>(
        net_, node_, drive_, policy_, retry_rng_, false, policy_.timeout,
        kControlPayload, "setkey", params.trace.trace_id, make);

    if (resp.status != NasdStatus::kOk)
        co_return util::Err{resp.status};
    co_return StoreResult<void>{};
}

namespace {

/** Shared plumbing for the three partition-admin calls. */
sim::Task<StoreResult<void>>
partitionAdmin(net::Network &net, net::NetNode &node, NasdDrive &drive,
               const DriveRetryPolicy &policy, util::Rng &rng,
               CredentialFactory &cred, OpCode op, PartitionId target,
               std::uint64_t quota_bytes)
{
    RequestParams params{op, cred.capability().pub.partition,
                         cred.capability().pub.object_id, target,
                         quota_bytes};
    NasdDrive *drive_ptr = &drive;

    const MakeFn<StatusResponse> make = [&cred, params, drive_ptr, op,
                                         target] {
        const RequestCredential credential = cred.forRequest(params);
        return std::function<sim::Task<net::RpcReply<StatusResponse>>()>(
            [drive_ptr, credential, params, op,
             target]() -> sim::Task<net::RpcReply<StatusResponse>> {
                StatusResponse r;
                switch (op) {
                  case OpCode::kCreatePartition:
                    r = co_await drive_ptr->serveCreatePartition(
                        credential, params, target);
                    break;
                  case OpCode::kResizePartition:
                    r = co_await drive_ptr->serveResizePartition(
                        credential, params, target);
                    break;
                  default:
                    r = co_await drive_ptr->serveRemovePartition(
                        credential, params, target);
                    break;
                }
                co_return net::RpcReply<StatusResponse>{r, 16};
            });
    };
    StatusResponse resp = co_await attemptLoop<StatusResponse>(
        net, node, drive, policy, rng, false, policy.timeout,
        kControlPayload, "partition_admin", params.trace.trace_id, make);

    if (resp.status != NasdStatus::kOk)
        co_return util::Err{resp.status};
    co_return StoreResult<void>{};
}

} // namespace

sim::Task<StoreResult<void>>
NasdClient::createPartition(CredentialFactory &cred, PartitionId target,
                            std::uint64_t quota_bytes)
{
    co_return co_await partitionAdmin(net_, node_, drive_, policy_,
                                      retry_rng_, cred,
                                      OpCode::kCreatePartition, target,
                                      quota_bytes);
}

sim::Task<StoreResult<void>>
NasdClient::resizePartition(CredentialFactory &cred, PartitionId target,
                            std::uint64_t quota_bytes)
{
    co_return co_await partitionAdmin(net_, node_, drive_, policy_,
                                      retry_rng_, cred,
                                      OpCode::kResizePartition, target,
                                      quota_bytes);
}

sim::Task<StoreResult<void>>
NasdClient::removePartition(CredentialFactory &cred, PartitionId target)
{
    co_return co_await partitionAdmin(net_, node_, drive_, policy_,
                                      retry_rng_, cred,
                                      OpCode::kRemovePartition, target, 0);
}

sim::Task<void>
NasdClient::flush()
{
    NasdDrive *drive = &drive_;
    const MakeFn<StatusResponse> make = [drive] {
        return std::function<sim::Task<net::RpcReply<StatusResponse>>()>(
            [drive]() -> sim::Task<net::RpcReply<StatusResponse>> {
                auto r = co_await drive->serveFlush();
                co_return net::RpcReply<StatusResponse>{r, 0};
            });
    };
    (void)co_await attemptLoop<StatusResponse>(
        net_, node_, drive_, policy_, retry_rng_, true,
        policy_.flush_timeout, kControlPayload, "flush", 0, make);
}

sim::Task<StoreResult<ProbeResponse>>
NasdClient::probe(PartitionId target)
{
    NasdDrive *drive = &drive_;
    const MakeFn<ProbeResponse> make = [drive, target] {
        return std::function<sim::Task<net::RpcReply<ProbeResponse>>()>(
            [drive, target]() -> sim::Task<net::RpcReply<ProbeResponse>> {
                auto r = co_await drive->serveProbe(target);
                co_return net::RpcReply<ProbeResponse>{r, 32};
            });
    };
    ProbeResponse resp = co_await attemptLoop<ProbeResponse>(
        net_, node_, drive_, policy_, retry_rng_, true, policy_.timeout,
        kControlPayload, "probe", 0, make);

    if (resp.status != NasdStatus::kOk)
        co_return util::Err{resp.status};
    co_return resp;
}

} // namespace nasd
