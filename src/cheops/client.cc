#include "cheops/cheops.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <span>

#include "net/rpc.h"
#include "sim/sync.h"
#include "util/flight_recorder.h"
#include "util/logging.h"

namespace nasd::cheops {

namespace {

constexpr std::uint64_t kControlPayload = 96;

/**
 * The failure tally of one row fan-out (@p results in @p plan's slot
 * order): no failure sets @p result ok; one failed component is named
 * in @p dead so the row is redone degraded; two or more fail the row
 * with kDriveError. Returns whether every op succeeded.
 */
template <typename R>
bool
tallyRow(const std::vector<R> &results, const layout::RowPlan &plan,
         std::int64_t &dead, util::Result<void, CheopsStatus> &result)
{
    std::int64_t failed = -1;
    int failures = 0;
    for (std::size_t i = 0; i < results.size(); ++i) {
        if (!results[i].ok()) {
            ++failures;
            failed = plan.slot(i);
        }
    }
    if (failures == 0)
        result = util::Result<void, CheopsStatus>{};
    else if (failures == 1)
        dead = failed;
    else
        result = util::Err{CheopsStatus::kDriveError};
    return failures == 0;
}

/** Wire size of each manager reply; an open carries the capability set. */
std::uint64_t
replyBytes(const OpenReply &r)
{
    return 64 + 160 * r.map.components.size();
}
std::uint64_t replyBytes(const CheopsStatusReply &) { return 16; }
std::uint64_t replyBytes(const CreateReply &) { return 24; }
std::uint64_t replyBytes(const SizeReply &) { return 24; }
std::uint64_t replyBytes(const RebuildLockReply &) { return 24; }

util::Result<void, CheopsStatus>
statusResult(CheopsStatus status)
{
    if (status != CheopsStatus::kOk)
        return util::Err{status};
    return {};
}

layout::Geometry
geometry(const CheopsMap &map)
{
    return {map.stripe_unit_bytes,
            static_cast<std::uint32_t>(map.components.size()),
            map.redundancy == Redundancy::kParity};
}

} // namespace

// ----------------------------------------------------------------- client

CheopsClient::CheopsClient(net::Network &net, net::NetNode &node,
                           CheopsManager &mgr,
                           std::vector<NasdDrive *> drives)
    : net_(net), node_(node), mgr_(mgr),
      metrics_prefix_(util::metrics().uniquePrefix(node.name() + "/cheops")),
      manager_calls_(
          util::metrics().counter(metrics_prefix_ + "/manager_calls")),
      reconstructed_units_(
          util::metrics().counter(metrics_prefix_ + "/reconstructed_units")),
      read_latency_ns_(
          util::metrics().latency(metrics_prefix_ + "/ops/read/latency_ns")),
      write_latency_ns_(
          util::metrics().latency(metrics_prefix_ + "/ops/write/latency_ns"))
{
    for (auto *drive : drives) {
        drive_clients_.push_back(
            std::make_unique<NasdClient>(net, node_, *drive));
    }
}

template <typename Reply, typename Serve>
sim::Task<Reply>
CheopsClient::callManager(Serve serve)
{
    manager_calls_.add(1);
    // A named handler: a prvalue std::function must not cross a
    // coroutine boundary (see nasd/client.cc).
    const std::function<sim::Task<net::RpcReply<Reply>>()> handler =
        [&serve]() -> sim::Task<net::RpcReply<Reply>> {
        Reply r = co_await serve();
        const std::uint64_t bytes = replyBytes(r);
        co_return net::RpcReply<Reply>{std::move(r), bytes};
    };
    co_return co_await net::call<Reply>(net_, node_, mgr_.node(),
                                        kControlPayload, handler);
}

sim::Task<util::Result<std::shared_ptr<CheopsClient::OpenState>, CheopsStatus>>
CheopsClient::ensureOpen(LogicalObjectId id, bool want_write)
{
    auto it = open_objects_.find(id);
    if (it != open_objects_.end() &&
        (!want_write || it->second->writable)) {
        co_return it->second;
    }

    auto reply = co_await callManager<OpenReply>(
        [&] { return mgr_.serveOpen(id, want_write); });
    if (reply.status != CheopsStatus::kOk)
        co_return util::Err{reply.status};

    // An upgrade, or an open that raced this one: the existing state
    // may be in use by suspended transfers, so it is rebound in place.
    it = open_objects_.find(id);
    if (it != open_objects_.end()) {
        OpenState &state = *it->second;
        if (state.writable && !want_write)
            co_return it->second; // never trade write rights for read
        if (!bindOpen(state, reply.map))
            co_return util::Err{CheopsStatus::kStaleMap};
        state.writable = want_write;
        co_return it->second;
    }

    OpenState state;
    state.map = std::move(reply.map);
    state.writable = want_write;
    for (const auto &comp : state.map.components) {
        state.creds.push_back(
            std::make_unique<CredentialFactory>(comp.capability));
    }
    if (state.map.redundancy == Redundancy::kParity) {
        // Holds a usable capability while the map says rebuilding.
        state.rebuild_cred = std::make_unique<CredentialFactory>(
            state.map.rebuild_target.capability);
        for (std::size_t i = 0; i < kRowLockPool; ++i) {
            state.row_locks.push_back(
                std::make_unique<sim::Semaphore>(net_.simulator(), 1));
        }
    }
    co_return open_objects_
        .emplace(id, std::make_shared<OpenState>(std::move(state)))
        .first->second;
}

bool
CheopsClient::bindOpen(OpenState &state, const CheopsMap &map)
{
    if (map.components.size() != state.creds.size())
        return false;
    // The whole ComponentRef is assigned (not just the capability): a
    // completed rebuild moves a component to the spare drive, and the
    // suspended runs must see the new (drive, oid) binding.
    for (std::size_t i = 0; i < state.creds.size(); ++i) {
        state.creds[i]->rebind(map.components[i].capability);
        state.map.components[i] = map.components[i];
    }
    state.map.map_version = map.map_version;
    state.map.dead_component = map.dead_component;
    state.map.rebuilding = map.rebuilding;
    state.map.rebuild_target = map.rebuild_target;
    if (map.rebuilding) // only parity maps rebuild
        state.rebuild_cred->rebind(map.rebuild_target.capability);
    return true;
}

sim::Task<bool>
CheopsClient::refreshCaps(LogicalObjectId id)
{
    auto it = open_objects_.find(id);
    if (it == open_objects_.end())
        co_return false;
    const std::shared_ptr<OpenState> hold = it->second; // outlives remove()
    OpenState &state = *hold;
    const bool writable = state.writable;

    auto reply = co_await callManager<OpenReply>(
        [&] { return mgr_.serveOpen(id, writable); });
    if (reply.status != CheopsStatus::kOk)
        co_return false;
    const std::uint32_t old_version = state.map.map_version;
    if (!bindOpen(state, reply.map))
        co_return false; // layout changed under us; caller re-opens
    node_.flightJournal().record(net_.simulator().now(),
                                 util::FrEvent::kCapRefresh, 0, id,
                                 reply.map.map_version);
    if (reply.map.map_version != old_version) {
        node_.flightJournal().record(net_.simulator().now(),
                                     util::FrEvent::kMapRefresh, 0, id,
                                     reply.map.map_version);
    }
    co_return true;
}

sim::Task<util::Result<const CheopsMap *, CheopsStatus>>
CheopsClient::open(LogicalObjectId id, bool want_write)
{
    auto state = co_await ensureOpen(id, want_write);
    if (!state.ok())
        co_return util::Err{state.error()};
    co_return &state.value()->map;
}

sim::Task<util::Result<LogicalObjectId, CheopsStatus>>
CheopsClient::create(std::uint64_t stripe_unit_bytes,
                     std::uint32_t stripe_count,
                     std::uint64_t capacity_hint, Redundancy redundancy)
{
    auto reply = co_await callManager<CreateReply>([&] {
        return mgr_.serveCreate(stripe_unit_bytes, stripe_count,
                                capacity_hint, redundancy);
    });
    if (reply.status != CheopsStatus::kOk)
        co_return util::Err{reply.status};
    co_return reply.id;
}

sim::Task<util::Result<void, CheopsStatus>>
CheopsClient::remove(LogicalObjectId id)
{
    open_objects_.erase(id);
    auto reply = co_await callManager<CheopsStatusReply>(
        [&] { return mgr_.serveRemove(id); });
    co_return statusResult(reply.status);
}

sim::Task<util::Result<std::uint64_t, CheopsStatus>>
CheopsClient::size(LogicalObjectId id)
{
    auto reply = co_await callManager<SizeReply>(
        [&] { return mgr_.serveGetSize(id); });
    if (reply.status != CheopsStatus::kOk)
        co_return util::Err{reply.status};
    co_return reply.size;
}

sim::Task<util::Result<void, CheopsStatus>>
CheopsClient::startRebuild(LogicalObjectId id, std::uint32_t dead_component,
                           std::uint32_t spare_drive,
                           RebuildThrottle throttle)
{
    auto reply = co_await callManager<CheopsStatusReply>([&] {
        return mgr_.serveStartRebuild(id, dead_component, spare_drive,
                                      throttle);
    });
    co_return statusResult(reply.status);
}

template <typename Op>
auto
CheopsClient::withRefresh(OpenState *open, LogicalObjectId id,
                          std::uint32_t comp, Op op) -> decltype(op())
{
    if (comp == open->map.dead_component)
        co_return util::Err{NasdStatus::kDriveFailed};
    auto r = co_await op();
    if (!r.ok() && (r.error() == NasdStatus::kExpiredCapability ||
                    (open->map.redundancy == Redundancy::kParity &&
                     r.error() == NasdStatus::kVersionMismatch)) &&
        co_await refreshCaps(id)) {
        // The refresh may have named this component dead (the mark's
        // fence): then it is sent nothing.
        if (comp == open->map.dead_component)
            co_return util::Err{NasdStatus::kDriveFailed};
        r = co_await op();
    }
    co_return r;
}

sim::Task<StoreResult<std::uint64_t>>
CheopsClient::readComponent(OpenState *open, LogicalObjectId id,
                            std::uint32_t comp, std::uint64_t offset,
                            std::span<std::uint8_t> out,
                            util::TraceContext ctx)
{
    // refreshCaps rebinds these in place, so a retry sees a moved
    // component's new drive.
    auto &ref = open->map.components[comp];
    auto &cred = *open->creds[comp];
    co_return co_await withRefresh(open, id, comp, [&] {
        return drive_clients_[ref.drive]->read(cred, offset, out, ctx);
    });
}

sim::Task<StoreResult<std::vector<std::uint8_t>>>
CheopsClient::readComponent(OpenState *open, LogicalObjectId id,
                            std::uint32_t comp, std::uint64_t offset,
                            std::uint64_t length, util::TraceContext ctx)
{
    std::vector<std::uint8_t> out(length);
    auto n = co_await readComponent(open, id, comp, offset, std::span(out),
                                    ctx);
    if (!n.ok())
        co_return util::Err{n.error()};
    out.resize(n.value());
    co_return out;
}

sim::Task<StoreResult<void>>
CheopsClient::writeComponent(OpenState *open, LogicalObjectId id,
                             std::uint32_t comp, std::uint64_t offset,
                             std::span<const std::uint8_t> data,
                             util::TraceContext ctx)
{
    auto &ref = open->map.components[comp];
    auto &cred = *open->creds[comp];
    co_return co_await withRefresh(open, id, comp, [&] {
        return drive_clients_[ref.drive]->write(cred, offset, data, ctx);
    });
}

sim::Task<std::vector<StoreResult<std::vector<std::uint8_t>>>>
CheopsClient::readSurvivors(OpenState *open, LogicalObjectId id,
                            std::uint32_t dead, std::uint64_t offset,
                            std::uint64_t length, util::TraceContext ctx)
{
    std::vector<sim::Task<StoreResult<std::vector<std::uint8_t>>>> reads;
    for (std::uint32_t c = 0;
         c < static_cast<std::uint32_t>(open->map.components.size()); ++c) {
        if (c != dead)
            reads.push_back(readComponent(open, id, c, offset, length, ctx));
    }
    co_return co_await sim::parallelGather(net_.simulator(),
                                           std::move(reads));
}

sim::Task<StoreResult<std::vector<std::uint8_t>>>
CheopsClient::reconstructRange(OpenState *open, LogicalObjectId id,
                               std::uint32_t dead, std::uint64_t offset,
                               std::uint64_t length, util::TraceContext ctx)
{
    const std::uint64_t su = open->map.stripe_unit_bytes;
    std::vector<std::uint8_t> out(length, 0);

    // Unit-aligned chunks keep each XOR within one row.
    const auto spans = layout::unitChunks(su, offset, length);
    auto rebuildChunk = [this, open, id, dead, ctx, &out,
                         offset](std::uint64_t o, std::uint64_t len)
        -> sim::Task<StoreResult<std::uint64_t>> {
        auto got = co_await readSurvivors(open, id, dead, o, len, ctx);
        auto n = layout::xorSurvivors(
            std::span<std::uint8_t>(out).subspan(o - offset, len), got);
        if (n.ok())
            reconstructed_units_.add(1);
        co_return n;
    };
    std::vector<sim::Task<StoreResult<std::uint64_t>>> chunks;
    for (const auto &[o, len] : spans)
        chunks.push_back(rebuildChunk(o, len));
    auto lens =
        co_await sim::parallelGather(net_.simulator(), std::move(chunks));

    // Mimic a contiguous short read: stop at the first chunk that came
    // back short (survivors zero-fill holes, so shortness means EOF).
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < lens.size(); ++i) {
        if (!lens[i].ok())
            co_return util::Err{lens[i].error()};
        total = spans[i].first - offset + lens[i].value();
        if (lens[i].value() < spans[i].second)
            break;
    }
    out.resize(total);
    co_return out;
}

template <typename R, typename Body>
sim::Task<R>
CheopsClient::tracedOp(const char *name, util::LogHistogram &latency,
                       util::TraceContext parent, Body body)
{
    const util::TraceContext ctx = util::flightRecorder().mintChild(parent);
    const sim::Tick op_start = net_.simulator().now();
    util::ScopedSpan span(name, node_.name(),
                          static_cast<std::uint64_t>(op_start), ctx,
                          parent.span_id);
    R result = co_await body(ctx);
    // The op's one exit: every outcome, a failed open included, closes
    // the span and records the latency.
    const sim::Tick now = net_.simulator().now();
    span.endAt(static_cast<std::uint64_t>(now));
    latency.record(static_cast<std::uint64_t>(now - op_start));
    co_return result;
}

sim::Task<util::Result<ReadOutcome, CheopsStatus>>
CheopsClient::read(LogicalObjectId id, std::uint64_t offset,
                   std::span<std::uint8_t> out, util::TraceContext parent)
{
    co_return co_await tracedOp<util::Result<ReadOutcome, CheopsStatus>>(
        "cheops/read", read_latency_ns_, parent,
        [&](util::TraceContext ctx) { return readRuns(id, offset, out, ctx); });
}

sim::Task<util::Result<ReadOutcome, CheopsStatus>>
CheopsClient::readRuns(LogicalObjectId id, std::uint64_t offset,
                       std::span<std::uint8_t> out, util::TraceContext ctx)
{
    auto state = co_await ensureOpen(id, false);
    if (!state.ok())
        co_return util::Err{state.error()};
    OpenState *open = state.value().get();
    const auto runs = layout::mapRange(geometry(open->map), offset,
                                       out.size());
    bool degraded = false;

    // One parallel component read per run; reassemble into `out`.
    // Each component RPC is a child span of this read, so the trace
    // timeline shows the per-drive fan-out.
    auto fetchRun = [this, open, id, ctx, &out,
                     &degraded](const layout::ComponentRun &run)
        -> sim::Task<util::Result<std::uint64_t, CheopsStatus>> {
        // A single-piece run is one contiguous range of `out`, so the
        // reply lands there directly; several pieces are fetched into
        // a scratch buffer and scattered.
        const bool direct = run.pieces.size() == 1;
        std::unique_ptr<std::uint8_t[]> scratch;
        std::span<std::uint8_t> dst;
        if (direct) {
            dst = out.subspan(
                static_cast<std::size_t>(run.pieces.front().first),
                static_cast<std::size_t>(run.length));
        } else {
            scratch = std::make_unique_for_overwrite<std::uint8_t[]>(
                static_cast<std::size_t>(run.length));
            dst = std::span(scratch.get(),
                            static_cast<std::size_t>(run.length));
        }
        auto n = co_await readComponent(open, id, run.component,
                                        run.component_offset, dst, ctx);
        bool reconstructed = false;
        if (!n.ok() && open->map.redundancy == Redundancy::kParity) {
            // The component may have moved (a completed rebuild swaps
            // the spare into the map) or been named dead; re-ask the
            // manager at most once per reprobe interval, then retry
            // the new binding. A component already named dead is
            // reconstructed at once.
            const auto now = net_.simulator().now();
            if (run.component != open->map.dead_component &&
                (open->last_reprobe == 0 ||
                 now - open->last_reprobe >= kReprobeIntervalNs)) {
                open->last_reprobe = now;
                if (co_await refreshCaps(id)) {
                    n = co_await readComponent(open, id, run.component,
                                               run.component_offset, dst,
                                               ctx);
                }
            }
            if (!n.ok()) {
                // Degraded read: XOR the surviving components.
                auto rebuilt = co_await reconstructRange(
                    open, id, run.component, run.component_offset,
                    run.length, ctx);
                if (rebuilt.ok()) {
                    std::copy(rebuilt.value().begin(),
                              rebuilt.value().end(), dst.begin());
                    n = static_cast<std::uint64_t>(rebuilt.value().size());
                    reconstructed = true;
                }
            }
        }
        if (!n.ok())
            co_return util::Err{CheopsStatus::kDriveError};
        if (reconstructed) {
            degraded = true;
            node_.flightJournal().record(net_.simulator().now(),
                                         util::FrEvent::kDegradedRead,
                                         ctx.trace_id, id, run.component);
        }
        if (direct)
            co_return n.value();
        // Scatter into the host buffer; track the contiguous prefix.
        std::uint64_t copied = 0;
        for (const auto &[host_offset, bytes] : run.pieces) {
            if (copied >= n.value())
                break;
            const std::uint64_t take = std::min(bytes, n.value() - copied);
            std::copy_n(dst.begin() + static_cast<std::ptrdiff_t>(copied),
                        take,
                        out.begin() + static_cast<std::ptrdiff_t>(host_offset));
            copied += take;
        }
        co_return copied;
    };

    std::vector<sim::Task<util::Result<std::uint64_t, CheopsStatus>>> tasks;
    tasks.reserve(runs.size());
    for (const auto &run : runs)
        tasks.push_back(fetchRun(run));
    auto results =
        co_await sim::parallelGather(net_.simulator(), std::move(tasks));

    std::uint64_t total = 0;
    for (auto &r : results) {
        if (!r.ok())
            co_return util::Err{r.error()};
        total += r.value();
    }
    ReadOutcome outcome;
    outcome.bytes = total;
    outcome.status = degraded ? CheopsStatus::kDegraded : CheopsStatus::kOk;
    co_return outcome;
}

sim::Task<util::Result<void, CheopsStatus>>
CheopsClient::write(LogicalObjectId id, std::uint64_t offset,
                    std::span<const std::uint8_t> data,
                    util::TraceContext parent)
{
    co_return co_await tracedOp<util::Result<void, CheopsStatus>>(
        "cheops/write", write_latency_ns_, parent,
        [&](util::TraceContext ctx) {
            return writeRuns(id, offset, data, ctx);
        });
}

sim::Task<util::Result<void, CheopsStatus>>
CheopsClient::writeRuns(LogicalObjectId id, std::uint64_t offset,
                        std::span<const std::uint8_t> data,
                        util::TraceContext ctx)
{
    auto state = co_await ensureOpen(id, true);
    if (!state.ok())
        co_return util::Err{state.error()};
    OpenState *open = state.value().get();

    auto pushRun = [this, open, id, ctx,
                    &data](const layout::ComponentRun &run)
        -> sim::Task<util::Result<void, CheopsStatus>> {
        // A single-piece run is already one contiguous component write;
        // several pieces are gathered into one.
        std::span<const std::uint8_t> buf;
        std::vector<std::uint8_t> gathered;
        if (run.pieces.size() == 1) {
            buf = data.subspan(
                static_cast<std::size_t>(run.pieces.front().first),
                static_cast<std::size_t>(run.length));
        } else {
            gathered.resize(static_cast<std::size_t>(run.length));
            std::uint64_t copied = 0;
            for (const auto &[host_offset, bytes] : run.pieces) {
                std::copy_n(data.begin() +
                                static_cast<std::ptrdiff_t>(host_offset),
                            bytes,
                            gathered.begin() +
                                static_cast<std::ptrdiff_t>(copied));
                copied += bytes;
            }
            buf = gathered;
        }
        auto wrote = co_await writeComponent(open, id, run.component,
                                             run.component_offset, buf, ctx);
        if (!wrote.ok())
            co_return util::Err{CheopsStatus::kDriveError};
        co_return util::Result<void, CheopsStatus>{};
    };

    // One parallel update per component run — per stripe row for
    // kParity, whose planner updates a row and its parity together.
    std::vector<sim::Task<util::Result<void, CheopsStatus>>> tasks;
    std::vector<layout::ComponentRun> runs; // outlives the tasks using it
    const layout::Geometry g = geometry(open->map);
    if (!g.parity) {
        runs = layout::mapRange(g, offset, data.size());
        for (const auto &run : runs)
            tasks.push_back(pushRun(run));
    } else if (!data.empty()) {
        const std::uint64_t row_bytes = g.rowBytes();
        const std::uint64_t last = (offset + data.size() - 1) / row_bytes;
        for (std::uint64_t row = offset / row_bytes; row <= last; ++row)
            tasks.push_back(writeParityRow(open, id, row, offset, data, ctx));
    }
    auto results =
        co_await sim::parallelGather(net_.simulator(), std::move(tasks));
    for (auto &r : results) {
        if (!r.ok())
            co_return util::Err{r.error()};
    }
    co_return util::Result<void, CheopsStatus>{};
}

sim::Task<util::Result<void, CheopsStatus>>
CheopsClient::writeParityRow(OpenState *open, LogicalObjectId id,
                             std::uint64_t row, std::uint64_t offset,
                             std::span<const std::uint8_t> data,
                             util::TraceContext ctx)
{
    const std::uint64_t su = open->map.stripe_unit_bytes;
    const layout::RowPlan plan =
        layout::planRow(geometry(open->map), row, offset, data.size());
    if (plan.units.empty())
        co_return util::Result<void, CheopsStatus>{};
    const std::uint64_t base = row * su; // every unit's component offset
    const std::size_t slots = plan.units.size() + 1;

    // Serialize this client's updates of the same row: an RMW that
    // interleaves with another RMW of the same row would base its
    // parity delta on bytes the other is replacing.
    auto local = co_await sim::scopedAcquire(
        net_.simulator(), *open->row_locks[row % kRowLockPool]);

    util::Result<void, CheopsStatus> result{};
    for (int attempt = 0; attempt < 3; ++attempt) {
        // During a rebuild every row update serializes against the
        // rebuild engine through the manager's rebuild lock, and the
        // dead component's unit is written through to the spare.
        const std::uint32_t attempt_map_version = open->map.map_version;
        std::uint64_t ticket = 0;
        bool locked = false;
        if (open->map.rebuilding) {
            auto lk = co_await callManager<RebuildLockReply>(
                [&] { return mgr_.serveRebuildLock(id); });
            if (lk.status == CheopsStatus::kStaleMap) {
                // The rebuild ended (aborted or completed): redo the row
                // under the map that replaced this one (it names no
                // spare).
                result = util::Err{CheopsStatus::kStaleMap};
                if (co_await refreshCaps(id))
                    continue;
                break;
            }
            locked = lk.status == CheopsStatus::kOk;
            ticket = lk.ticket;
        }

        // The component to treat as unreachable: the map names the
        // object's dead one (always, while a rebuild runs); otherwise
        // start healthy and fall back when a component fails.
        std::int64_t dead = open->map.dead_component;
        const bool degraded = dead >= 0;

        // The old bytes under each fan-out slot of the plan: the
        // written range of each data unit, then the parity window.
        // Healthy, they are read there, unless the plan skips the read
        // phase (they then count as zeros). Degraded, every survivor's
        // whole unit is read and the dead one is reconstructed from
        // them, whatever role it plays in the row.
        std::vector<std::vector<std::uint8_t>> old(slots);
        bool read_ok = true;
        if (degraded) {
            node_.flightJournal().record(net_.simulator().now(),
                                         util::FrEvent::kDegradedWrite,
                                         ctx.trace_id, id, row);
            auto got = co_await readSurvivors(
                open, id, static_cast<std::uint32_t>(dead), base, su, ctx);
            std::vector<std::uint8_t> lost(su, 0);
            read_ok = layout::xorSurvivors(lost, got).ok();
            for (std::size_t i = 0; read_ok && i < slots; ++i) {
                const auto c = static_cast<std::int64_t>(plan.slot(i));
                const auto &unit =
                    c == dead ? lost : got[c < dead ? c : c - 1].value();
                const auto [a, b] = plan.range(i);
                const auto end = unit.begin() + static_cast<std::ptrdiff_t>(
                                                    std::min(b, unit.size()));
                old[i].assign(
                    unit.begin() + static_cast<std::ptrdiff_t>(
                                       std::min(a, unit.size())),
                    end);
            }
            if (!read_ok)
                result = util::Err{CheopsStatus::kDriveError};
        } else if (!plan.skip_read) {
            std::vector<sim::Task<StoreResult<std::vector<std::uint8_t>>>>
                reads;
            for (const auto &uw : plan.units) {
                reads.push_back(readComponent(open, id, uw.comp, base + uw.a,
                                              uw.b - uw.a, ctx));
            }
            reads.push_back(readComponent(open, id, plan.parity,
                                          base + plan.plo,
                                          plan.phi - plan.plo, ctx));
            auto got = co_await sim::parallelGather(net_.simulator(),
                                                    std::move(reads));
            read_ok = tallyRow(got, plan, dead, result);
            for (std::size_t i = 0; i < got.size(); ++i) {
                if (got[i].ok())
                    old[i] = std::move(got[i].value());
            }
        }
        if (read_ok) {
            // parity' = parity ^ old ^ new over each written range
            // (short old reads are holes: zeros). Every slot but the
            // dead one is written; during a rebuild the dead one's
            // bytes go to the spare instead, so it never misses
            // foreground bytes for rows the engine already passed.
            std::vector<std::uint8_t> pbuf(plan.phi - plan.plo, 0);
            std::copy(old.back().begin(), old.back().end(), pbuf.begin());
            std::vector<sim::Task<StoreResult<void>>> wops;
            std::span<const std::uint8_t> through;
            std::uint64_t through_at = 0;
            for (std::size_t i = 0; i < slots; ++i) {
                const auto [a, b] = plan.range(i);
                std::span<const std::uint8_t> bytes = pbuf;
                if (i < plan.units.size()) {
                    bytes = data.subspan(plan.units[i].host, b - a);
                    const auto dst = std::span<std::uint8_t>(pbuf).subspan(
                        a - plan.plo, b - a);
                    layout::xorInto(dst, bytes);
                    layout::xorInto(dst, old[i]);
                }
                if (plan.slot(i) == dead) {
                    through = bytes;
                    through_at = base + a;
                } else {
                    wops.push_back(writeComponent(open, id, plan.slot(i),
                                                  base + a, bytes, ctx));
                }
            }
            if (locked && !through.empty()) {
                node_.flightJournal().record(net_.simulator().now(),
                                             util::FrEvent::kWriteThrough,
                                             ctx.trace_id, id, row);
                wops.push_back(
                    drive_clients_[open->map.rebuild_target.drive]->write(
                        *open->rebuild_cred, through_at, through, ctx));
            }
            auto wres = co_await sim::parallelGather(net_.simulator(),
                                                     std::move(wops));
            if (!degraded) {
                (void)tallyRow(wres, plan, dead, result);
            } else {
                result = util::Result<void, CheopsStatus>{};
                for (const auto &r : wres) {
                    if (!r.ok())
                        result = util::Err{CheopsStatus::kDriveError};
                }
            }
        }
        if (!degraded && dead >= 0) {
            // The failed component misses what the degraded write puts
            // in parity. Report it, under the map the row was planned
            // with, so no reader is served its stale units once the
            // drive is back; an unrecorded divergence must not claim
            // success. A report the manager finds stale means the
            // layout moved under the row. Either way the row is redone
            // under the current map.
            result = util::Err{CheopsStatus::kDriveError};
            if (dead != open->map.dead_component) {
                auto marked = co_await callManager<CheopsStatusReply>([&] {
                    return mgr_.serveMarkDegraded(
                        id, static_cast<std::uint32_t>(dead),
                        attempt_map_version);
                });
                if ((marked.status != CheopsStatus::kOk &&
                     marked.status != CheopsStatus::kStaleMap) ||
                    !co_await refreshCaps(id))
                    break;
            }
            continue;
        }

        if (locked) {
            // The permit is released or the rebuild is gone.
            (void)co_await callManager<CheopsStatusReply>(
                [&] { return mgr_.serveRebuildUnlock(id, ticket); });
        }

        // If the layout changed while this row update ran — a fence
        // failed a component op, withRefresh refreshed, and the map now
        // names a dead component, a rebuild's spare, or none once a
        // rebuild finished — redo the row against the current map. The
        // redo is idempotent.
        if (open->map.map_version == attempt_map_version)
            break;
    }
    local.release();
    co_return result;
}

} // namespace nasd::cheops
