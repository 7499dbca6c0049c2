#include "nasd/client.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>

#include "sim/sync.h"
#include "util/flight_recorder.h"
#include "util/logging.h"

namespace nasd {

namespace {

/// Pieces of one request cut at max_transfer that are in flight at
/// once: the drive reads piece k+1 while piece k crosses the wire.
constexpr std::uint32_t kTransferWindow = 2;

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

/** What one attempt of a drive request carries to the drive. */
struct Attempt
{
    RequestCredential credential;
    RequestParams params;
    std::uint64_t number; ///< 1, 2, ... when the call counts attempts
};

/** A request on the capability's own object (or partition control
 *  object). */
RequestParams
onObject(OpCode op, const CredentialFactory &cred, std::uint64_t offset = 0,
         std::uint64_t length = 0)
{
    const CapabilityPublic &pub = cred.capability().pub;
    return RequestParams{op, pub.partition, pub.object_id, offset, length};
}

/** call()'s result for ops that return no value. */
constexpr auto kNoValue = [](auto &&) {};

/** call()'s serve for a drive handler that takes the credential and the
 *  params alone. */
template <auto Handler>
constexpr auto kServe = [](NasdDrive &d, const Attempt &a) {
    return (d.*Handler)(a.credential, a.params);
};

/** call()'s serve for a partition admin handler: params.offset names the
 *  target partition. */
template <auto Handler>
constexpr auto kServeAdmin = [](NasdDrive &d, const Attempt &a) {
    return (d.*Handler)(a.credential, a.params,
                        static_cast<PartitionId>(a.params.offset));
};

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

template <typename Resp, typename Serve, typename Get>
sim::Task<StoreResult<std::remove_cvref_t<std::invoke_result_t<Get, Resp &&>>>>
NasdClient::call(CredentialFactory *cred, RequestParams params, Serve serve,
                 Get get, util::TraceContext parent, std::uint64_t *live)
{
    const OpSpec &spec = opSpec(params.op);
    std::optional<util::ScopedSpan> span;
    if (spec.client_span != nullptr) {
        params.trace = util::flightRecorder().mintChild(parent);
        span.emplace(spec.client_span, node_.name(),
                     static_cast<std::uint64_t>(net_.simulator().now()),
                     params.trace, parent.span_id);
    }

    NasdDrive *drive = &drive_;
    const std::uint64_t reply_bytes = spec.reply_bytes;
    const int attempts =
        spec.idempotent ? std::max(policy_.max_attempts, 1) : 1;
    // Flush drains the whole write-behind queue.
    const sim::Tick timeout = params.op == OpCode::kFlush
                                  ? policy_.flush_timeout
                                  : policy_.timeout;
    const std::uint64_t request_bytes =
        spec.request_bytes + (spec.data == OpData::kIn ? params.length : 0);
    Resp resp{};
    resp.status = NasdStatus::kTimeout; // if every attempt's deadline expires
    for (int attempt = 0; attempt < attempts; ++attempt) {
        if (attempt > 0) {
            node_.flightJournal().record(
                net_.simulator().now(), util::FrEvent::kRpcRetry,
                params.trace.trace_id, static_cast<std::uint64_t>(attempt),
                drive_.id(), spec.name);
            const sim::Tick base =
                std::min(policy_.backoff_base << (attempt - 1),
                         policy_.backoff_cap);
            const auto jitter = static_cast<sim::Tick>(retry_rng_.below(
                static_cast<std::uint64_t>(base / 2) + 1));
            co_await net_.simulator().delay(base + jitter);
        }
        // Each attempt gets a fresh credential, so a retry carries a new
        // nonce: a kReplayedRequest reply means a duplicate copy of an
        // earlier attempt reached the drive first, and a fresh nonce
        // resolves it. The handler runs on the drive and may outlive
        // this frame (a timed-out attempt keeps running in the
        // background), so it holds copies of everything it touches.
        // GCC 12 miscompiles a prvalue std::function temporary passed as
        // a by-value coroutine parameter (the temporary is destroyed
        // twice, over-releasing any owning captures), so the handler is
        // a named lvalue before it crosses a coroutine boundary.
        const Attempt request{cred != nullptr ? cred->forRequest(params)
                                              : RequestCredential{},
                              params, live != nullptr ? ++*live : 0};
        const std::function<sim::Task<net::RpcReply<Resp>>()> handler =
            [drive, serve, request,
             reply_bytes]() -> sim::Task<net::RpcReply<Resp>> {
            Resp r = co_await serve(*drive, request);
            const std::uint64_t payload = reply_bytes + replyDataBytes(r);
            co_return net::RpcReply<Resp>{std::move(r), payload};
        };
        net::RpcOutcome<Resp> outcome = co_await net::callWithDeadline<Resp>(
            net_, node_, drive_.node(), request_bytes, handler, timeout);
        if (!outcome.ok())
            continue; // deadline expired; retry if attempts remain
        if (spec.idempotent &&
            outcome.value.status == NasdStatus::kReplayedRequest &&
            attempt + 1 < attempts)
            continue;
        resp = std::move(outcome.value);
        break;
    }
    if (span)
        span->endAt(static_cast<std::uint64_t>(net_.simulator().now()));

    if (resp.status != NasdStatus::kOk)
        co_return util::Err{resp.status};
    if constexpr (std::is_void_v<std::invoke_result_t<Get, Resp &&>>)
        co_return StoreResult<void>{};
    else
        co_return std::invoke(get, std::move(resp));
}

sim::Task<StoreResult<std::uint64_t>>
NasdClient::read(CredentialFactory &cred, std::uint64_t offset,
                 std::span<std::uint8_t> out, util::TraceContext parent)
{
    if (out.size() > policy_.max_transfer)
        co_return co_await readPieces(cred, offset, out, parent);

    // Every attempt lands its bytes in `out` through one shared record;
    // each new attempt takes the live id, and the id is cleared before
    // this frame ends, so a timed-out attempt or a duplicate that is
    // still running never writes into `out` afterwards.
    const auto landing = std::make_shared<ReadLanding>(ReadLanding{out});
    const LandingClose close{*landing};
    const auto serve = [landing](NasdDrive &d, const Attempt &a) {
        return d.serveRead(a.credential, a.params, landing, a.number);
    };
    auto n = co_await call<ReadResponse>(
        &cred, onObject(OpCode::kReadData, cred, offset, out.size()), serve,
        &ReadResponse::length, parent, &landing->live);
    NASD_ASSERT(!n.ok() || n.value() <= out.size(), "read reply overruns");
    co_return n;
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

    // Every attempt reads the caller's bytes through one shared source.
    // Only this frame holds it once `serve` is gone, and only handlers
    // copy it, so a count above one means some attempt's delivery is
    // still running.
    const auto source = std::make_shared<WriteSource>(WriteSource{data, {}});
    StoreResult<void> done{};
    {
        const auto serve = [source](NasdDrive &d, const Attempt &a) {
            return d.serveWrite(a.credential, a.params, source);
        };
        done = co_await call<StatusResponse>(
            &cred, onObject(OpCode::kWriteData, cred, offset, data.size()),
            serve, kNoValue, parent);
    }

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
    co_return done;
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
    return call<AttrResponse>(&cred, onObject(OpCode::kGetAttr, cred),
                              kServe<&NasdDrive::serveGetAttr>,
                              &AttrResponse::attrs);
}

sim::Task<StoreResult<ObjectAttributes>>
NasdClient::setAttr(CredentialFactory &cred, const SetAttrRequest &changes)
{
    return call<AttrResponse>(
        &cred, onObject(OpCode::kSetAttr, cred),
        [changes](NasdDrive &d, const Attempt &a) {
            return d.serveSetAttr(a.credential, a.params, changes);
        },
        &AttrResponse::attrs);
}

sim::Task<StoreResult<ObjectId>>
NasdClient::create(CredentialFactory &cred, std::uint64_t capacity_hint)
{
    return call<CreateResponse>(
        &cred, onObject(OpCode::kCreateObject, cred, 0, capacity_hint),
        kServe<&NasdDrive::serveCreate>, &CreateResponse::object_id);
}

sim::Task<StoreResult<void>>
NasdClient::remove(CredentialFactory &cred)
{
    return call<StatusResponse>(&cred, onObject(OpCode::kRemoveObject, cred),
                                kServe<&NasdDrive::serveRemove>, kNoValue);
}

sim::Task<StoreResult<ObjectId>>
NasdClient::cloneVersion(CredentialFactory &cred)
{
    return call<CreateResponse>(&cred, onObject(OpCode::kCloneVersion, cred),
                                kServe<&NasdDrive::serveClone>,
                                &CreateResponse::object_id);
}

sim::Task<StoreResult<std::vector<ObjectId>>>
NasdClient::listObjects(CredentialFactory &cred)
{
    return call<ListResponse>(&cred, onObject(OpCode::kListObjects, cred),
                              kServe<&NasdDrive::serveList>,
                              &ListResponse::ids);
}

sim::Task<StoreResult<void>>
NasdClient::setKey(CredentialFactory &cred)
{
    return call<StatusResponse>(&cred, onObject(OpCode::kSetKey, cred),
                                kServe<&NasdDrive::serveSetKey>, kNoValue);
}

sim::Task<StoreResult<void>>
NasdClient::createPartition(CredentialFactory &cred, PartitionId target,
                            std::uint64_t quota_bytes)
{
    return call<StatusResponse>(
        &cred, onObject(OpCode::kCreatePartition, cred, target, quota_bytes),
        kServeAdmin<&NasdDrive::serveCreatePartition>, kNoValue);
}

sim::Task<StoreResult<void>>
NasdClient::resizePartition(CredentialFactory &cred, PartitionId target,
                            std::uint64_t quota_bytes)
{
    return call<StatusResponse>(
        &cred, onObject(OpCode::kResizePartition, cred, target, quota_bytes),
        kServeAdmin<&NasdDrive::serveResizePartition>, kNoValue);
}

sim::Task<StoreResult<void>>
NasdClient::removePartition(CredentialFactory &cred, PartitionId target)
{
    return call<StatusResponse>(
        &cred, onObject(OpCode::kRemovePartition, cred, target, 0),
        kServeAdmin<&NasdDrive::serveRemovePartition>, kNoValue);
}

sim::Task<void>
NasdClient::flush()
{
    (void)co_await call<StatusResponse>(
        nullptr, RequestParams{OpCode::kFlush},
        [](NasdDrive &d, const Attempt &) { return d.serveFlush(); },
        kNoValue);
}

sim::Task<StoreResult<ProbeResponse>>
NasdClient::probe(PartitionId target)
{
    return call<ProbeResponse>(
        nullptr, RequestParams{OpCode::kProbe},
        [target](NasdDrive &d, const Attempt &) {
            return d.serveProbe(target);
        },
        std::identity{});
}

} // namespace nasd
