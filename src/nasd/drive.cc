#include "nasd/drive.h"

#include <algorithm>
#include <cstring>
#include <type_traits>

#include "net/presets.h"
#include "util/flight_recorder.h"
#include "util/logging.h"

namespace nasd {

namespace {

/** Compact a digest into the 64-bit nonce-window key. */
std::uint64_t
digestPrefix(const crypto::Digest &d)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(d[i]) << (i * 8);
    return v;
}

constexpr std::size_t kNonceWindowCap = 8192;
constexpr std::size_t kVerifiedCapsCap = 1024;
constexpr std::uint64_t kRequestArgBytes = 64; // MAC'd argument frame

} // namespace

std::size_t
NasdDrive::EncodedHash::operator()(const CapabilityPublic::Encoded &e) const
{
    // FNV-1a over the whole encoding: drive id and partition are the
    // same in most entries, so every byte has to count.
    std::uint64_t h = 14695981039346656037ull;
    for (const std::uint8_t b : e)
        h = (h ^ b) * 1099511628211ull;
    return static_cast<std::size_t>(h);
}

DriveConfig
prototypeDriveConfig(std::string name, DriveId id)
{
    DriveConfig cfg;
    cfg.name = std::move(name);
    cfg.drive_id = id;
    cfg.disk_params = disk::medallistParams();
    cfg.num_disks = 2;
    cfg.stripe_unit_bytes = 32 * 1024;
    cfg.cpu = net::alpha3000_400();
    cfg.link = net::oc3Link();
    cfg.rpc = net::dceRpcCosts();
    // A deterministic, drive-unique master secret.
    for (std::size_t i = 0; i < cfg.master_key.size(); ++i)
        cfg.master_key[i] = static_cast<std::uint8_t>(0x5a ^ (id * 31 + i));
    return cfg;
}

NasdDrive::NasdDrive(sim::Simulator &sim, net::Network &net,
                     DriveConfig config)
    : sim_(sim), config_(std::move(config)),
      metric_prefix_(util::metrics().uniquePrefix(config_.name + "/ops")),
      keychain_(config_.master_key),
      ops_served_(util::metrics().counter(metric_prefix_ + "/served")),
      replays_rejected_(
          util::metrics().counter(metric_prefix_ + "/replays_rejected"))
{
    NASD_ASSERT(config_.num_disks >= 1);
    node_ = &net.addNode(config_.name, config_.cpu, config_.link,
                         config_.rpc);
    std::vector<disk::BlockDevice *> members;
    for (int i = 0; i < config_.num_disks; ++i) {
        disks_.push_back(
            std::make_unique<disk::DiskModel>(sim, config_.disk_params));
        members.push_back(disks_.back().get());
    }
    striped_ = std::make_unique<disk::StripingDriver>(
        sim, std::move(members), config_.stripe_unit_bytes);
    store_ = std::make_unique<ObjectStore>(sim, *striped_, config_.store);
}

sim::Task<void>
NasdDrive::format()
{
    co_await store_->format();
}

sim::Task<void>
NasdDrive::restart()
{
    // The old store's in-RAM state (caches, write-behind queues) died
    // with the crash; its frame must outlive us only because suspended
    // coroutines may still reference it.
    retired_stores_.push_back(std::move(store_));
    store_ = std::make_unique<ObjectStore>(sim_, *striped_, config_.store);
    co_await store_->mount();
    nonce_window_.clear(); // replay window was RAM-resident
    verified_caps_.clear();
    crashed_ = false;
    node_->flightJournal().record(sim_.now(), util::FrEvent::kDriveRestart);
}

double
NasdDrive::rawMediaBytesPerSec() const
{
    return config_.disk_params.mediaBytesPerSec() * config_.num_disks;
}

sim::Task<NasdStatus>
NasdDrive::verify(const RequestCredential &cred, const RequestParams &params,
                  std::uint8_t required_rights, std::uint64_t data_bytes,
                  util::OpAttribution *attr)
{
    if (crashed_)
        co_return NasdStatus::kDriveUnavailable;
    if (failed_)
        co_return NasdStatus::kDriveFailed;

    const CapabilityPublic &pub = cred.pub;

    // Fixed capability-parse cost is part of every request.
    co_await node_->cpu().execute(config_.costs.capability_check_instr,
                                  attr);

    if (pub.drive_id != config_.drive_id)
        co_return NasdStatus::kBadCapability;
    auto part = store_->partitionInfo(pub.partition);
    if (!part.ok())
        co_return NasdStatus::kNoSuchPartition;

    // Expiration (file managers bound capability lifetime).
    if (sim_.now() >= pub.expiry_ns) {
        node_->flightJournal().record(sim_.now(),
                                      util::FrEvent::kCapExpired,
                                      params.trace.trace_id,
                                      params.object_id);
        co_return NasdStatus::kExpiredCapability;
    }

    // A set-key request invalidates all capabilities of older epochs.
    if (pub.key_epoch != part.value().key_epoch)
        co_return NasdStatus::kBadCapability;

    // Recompute the private portion from our keys and check the
    // request digest. This is what makes capabilities unforgeable: the
    // client can only produce the digest if it holds the private key,
    // and only the file manager (sharing our secret) can mint that.
    // A capability whose digest verified before is remembered, so only
    // the digest is recomputed for it.
    const CapabilityPublic::Encoded encoded = pub.encode();
    const auto known = verified_caps_.find(encoded);
    const bool remembered = known != verified_caps_.end();
    const VerifiedCapability derived =
        remembered ? known->second : deriveCapability(pub);
    const crypto::Digest expected =
        requestMac(derived.request_key, params, cred.nonce);
    if (!crypto::constantTimeEqual(expected, cred.request_digest))
        co_return NasdStatus::kBadCapability;
    if (!remembered) {
        if (verified_caps_.size() >= kVerifiedCapsCap)
            verified_caps_.erase(verified_caps_.begin());
        verified_caps_.emplace(encoded, derived);
    }
    const crypto::Digest &private_key = derived.private_key;

    // Charge for the digest over the argument frame and the request's
    // data, per the security level.
    if (config_.security != SecurityLevel::kNone)
        co_await chargeSecurityBytes(kRequestArgBytes + data_bytes, attr);

    // Replay protection: the nonce must advance per capability.
    const std::uint64_t key = digestPrefix(private_key);
    auto it = nonce_window_.find(key);
    if (it != nonce_window_.end() && cred.nonce <= it->second) {
        replays_rejected_.add(1);
        co_return NasdStatus::kReplayedRequest;
    }
    if (nonce_window_.size() >= kNonceWindowCap)
        nonce_window_.erase(nonce_window_.begin());
    nonce_window_[key] = cred.nonce;

    // Rights.
    if ((pub.rights & required_rights) != required_rights)
        co_return NasdStatus::kRightsViolation;

    // Object identity: the capability names one object (or the
    // partition control object for create/list/set-key).
    if (params.object_id != pub.object_id)
        co_return NasdStatus::kBadCapability;

    // Byte-range restriction (quota escrow in AFS builds on this).
    if (params.length > 0 || params.offset > 0) {
        const std::uint64_t end = params.offset + params.length;
        if (params.offset < pub.region_start || end > pub.region_end)
            co_return NasdStatus::kRangeViolation;
    }

    // Logical version: a version bump revokes outstanding capabilities.
    if (params.object_id != kPartitionControlObject) {
        auto version = store_->peekVersion(pub.partition, params.object_id);
        if (version.ok() && version.value() != pub.approved_version)
            co_return NasdStatus::kVersionMismatch;
    }

    co_return NasdStatus::kOk;
}

NasdDrive::VerifiedCapability
NasdDrive::deriveCapability(const CapabilityPublic &pub) const
{
    const crypto::Key working = keychain_.workingKey(
        config_.drive_id, pub.partition, pub.key_kind, pub.key_epoch);
    const crypto::Digest private_key = capabilityMac(working, pub);
    return {private_key,
            crypto::HmacSha256(crypto::digestToKey(private_key))};
}

void
NasdDrive::slowDown(double factor)
{
    NASD_ASSERT(factor >= 1.0, "slowDown factor must be >= 1.0, got ",
                factor);
    for (auto &disk : disks_)
        disk->setMechScale(factor);
    node_->flightJournal().record(
        sim_.now(), util::FrEvent::kDriveSlowdown, 0,
        static_cast<std::uint64_t>(factor * 1000.0));
}

NasdDrive::OpInstruments &
NasdDrive::opInstruments(OpCode op)
{
    auto &slot = op_instruments_[static_cast<std::size_t>(op) - 1];
    if (!slot) {
        auto &reg = util::metrics();
        const std::string base = metric_prefix_ + "/" + opSpec(op).name;
        std::array<util::Counter *, util::kResourceClassCount> wait{};
        std::array<util::Counter *, util::kResourceClassCount> service{};
        for (std::size_t c = 0; c < util::kResourceClassCount; ++c) {
            const std::string cls = util::resourceClassName(
                static_cast<util::ResourceClass>(c));
            wait[c] = &reg.counter(base + "/attr/" + cls + "_wait_ns");
            service[c] =
                &reg.counter(base + "/attr/" + cls + "_service_ns");
        }
        slot.emplace(OpInstruments{reg.counter(base + "/count"),
                                   reg.latency(base + "/latency_ns"), wait,
                                   service,
                                   reg.counter(base + "/attr/other_ns")});
    }
    return *slot;
}

util::ScopedSpan
NasdDrive::beginOp(OpCode op, const RequestParams &params)
{
    auto *t = util::tracer();
    if (t == nullptr)
        return {};
    return util::ScopedSpan(std::string("drive/") + opSpec(op).name,
                            config_.name,
                            static_cast<std::uint64_t>(sim_.now()),
                            t->childOf(params.trace), params.trace.span_id);
}

void
NasdDrive::finishOp(OpCode op, sim::Tick start, util::ScopedSpan &span,
                    const util::OpAttribution *attr,
                    std::uint64_t trace_id)
{
    ops_served_.add(1);
    OpInstruments &m = opInstruments(op);
    m.count.add(1);
    const std::uint64_t elapsed = sim_.now() - start;
    m.latency_ns.record(elapsed);
    // Tail exemplars: remember the trace + journal cursor of the
    // slowest ops per class so --breakdown can show the actual p99+
    // requests and the journal window around them.
    util::flightRecorder().recordLatency(opSpec(op).name,
                                         static_cast<double>(elapsed),
                                         trace_id);
    if (attr != nullptr) {
        for (std::size_t c = 0; c < util::kResourceClassCount; ++c) {
            m.wait_ns[c]->add(attr->wait_ns[c]);
            m.service_ns[c]->add(attr->service_ns[c]);
            if (!span.open())
                continue;
            const std::string cls = util::resourceClassName(
                static_cast<util::ResourceClass>(c));
            if (attr->wait_ns[c] > 0)
                span.annotate(cls + "_wait_ns", attr->wait_ns[c]);
            if (attr->service_ns[c] > 0)
                span.annotate(cls + "_service_ns", attr->service_ns[c]);
        }
        const std::uint64_t attributed = attr->totalNs();
        m.other_ns.add(elapsed > attributed ? elapsed - attributed : 0);
    }
    span.endAt(static_cast<std::uint64_t>(sim_.now()));
}

sim::Task<void>
NasdDrive::chargeOpCost(const OpSpec &spec, std::uint64_t bytes,
                        const OpTrace &trace, util::OpAttribution *attr)
{
    const DriveCostModel &costs = config_.costs;
    std::uint64_t instr = costs.*spec.base_instr;
    double per_byte =
        spec.per_byte_instr != nullptr ? spec.per_byte_instr(costs) : 0.0;
    if (trace.meta_miss) {
        if (spec.cold_extra_instr != nullptr)
            instr += costs.*spec.cold_extra_instr;
        per_byte += costs.cold_extra_per_byte_instr;
    }
    co_await node_->cpu().execute(instr, attr);
    const auto data_instr = static_cast<std::uint64_t>(
        per_byte * static_cast<double>(bytes));
    if (data_instr > 0)
        co_await node_->cpu().executeAt(data_instr,
                                        node_->costs().data_cpi, attr);
}

sim::Task<void>
NasdDrive::chargeSecurityBytes(std::uint64_t bytes,
                               util::OpAttribution *attr)
{
    if (config_.security == SecurityLevel::kNone || bytes == 0)
        co_return;
    const double per_byte =
        config_.security == SecurityLevel::kIntegritySw
            ? config_.costs.hmac_software_per_byte_instr
            : config_.costs.hmac_hardware_per_byte_instr;
    const auto instr = static_cast<std::uint64_t>(
        per_byte * static_cast<double>(bytes));
    if (instr > 0)
        co_await node_->cpu().executeAt(instr, node_->costs().data_cpi,
                                        attr);
}

template <typename Resp, typename Step, typename Field>
sim::Task<Resp>
NasdDrive::serveOp(OpCode op, RequestCredential cred, RequestParams params,
                   Step step, Field field)
{
    const OpSpec &spec = opSpec(op);
    const sim::Tick op_start = sim_.now();
    auto op_span = beginOp(op, params);
    Resp resp;
    util::OpAttribution op_attr;
    const std::uint64_t data_in = spec.data == OpData::kIn ? params.length : 0;
    resp.status =
        co_await verify(cred, params, spec.rights, data_in, &op_attr);
    if (resp.status == NasdStatus::kOk) {
        OpTrace trace;
        trace.attr = &op_attr;
        auto result = co_await step(params, trace);
        if (!result.ok()) {
            resp.status = result.error();
        } else if (crashed_) {
            // The drive died while the op was inside the store: in-flight
            // requests are rejected too, and what the store did for
            // them (bytes landed, attributes read) counts for nothing.
            resp.status = NasdStatus::kDriveUnavailable;
        } else {
            if constexpr (!std::is_same_v<Field, std::nullptr_t>)
                resp.*field = std::move(result.value());
            const std::uint64_t bytes = data_in + replyDataBytes(resp);
            co_await chargeOpCost(spec, bytes, trace, &op_attr);
            // A read's outgoing data is covered by the keyed digest too.
            if (spec.data == OpData::kOut &&
                config_.security != SecurityLevel::kNone)
                co_await chargeSecurityBytes(bytes, &op_attr);
            finishOp(op, op_start, op_span, &op_attr,
                     params.trace.trace_id);
            co_return resp;
        }
    }
    // A rejected op is neither counted nor timed, but its span covers
    // the checks it was charged for.
    op_span.endAt(static_cast<std::uint64_t>(sim_.now()));
    co_return resp;
}

sim::Task<ReadResponse>
NasdDrive::serveRead(RequestCredential cred, RequestParams params,
                     std::shared_ptr<const ReadLanding> landing,
                     std::uint64_t attempt)
{
    return serveOp<ReadResponse>(
        OpCode::kReadData, cred, params,
        [this, landing = std::move(landing),
         attempt](const RequestParams &p, OpTrace &trace) {
            NASD_ASSERT(p.length <= landing->out.size(),
                        "read landing smaller than the request");
            trace.landing = landing.get();
            trace.attempt = attempt;
            return store_->read(
                p.partition, p.object_id, p.offset,
                landing->out.first(static_cast<std::size_t>(p.length)),
                &trace);
        },
        &ReadResponse::length);
}

sim::Task<StatusResponse>
NasdDrive::serveWrite(RequestCredential cred, RequestParams params,
                      std::shared_ptr<const WriteSource> source)
{
    params.length = source->bytes.size();
    return serveOp<StatusResponse>(
        OpCode::kWriteData, cred, params,
        [this, source = std::move(source)](const RequestParams &p,
                                           OpTrace &trace) {
            trace.source = source.get();
            return store_->write(p.partition, p.object_id, p.offset,
                                 source->bytes, &trace);
        });
}

sim::Task<AttrResponse>
NasdDrive::serveGetAttr(RequestCredential cred, RequestParams params)
{
    return serveOp<AttrResponse>(
        OpCode::kGetAttr, cred, params,
        [this](const RequestParams &p, OpTrace &trace) {
            return store_->getAttributes(p.partition, p.object_id, &trace);
        },
        &AttrResponse::attrs);
}

sim::Task<AttrResponse>
NasdDrive::serveSetAttr(RequestCredential cred, RequestParams params,
                        SetAttrRequest changes)
{
    return serveOp<AttrResponse>(
        OpCode::kSetAttr, cred, params,
        [this, changes](const RequestParams &p, OpTrace &trace) {
            return store_->setAttributes(p.partition, p.object_id, changes,
                                         &trace);
        },
        &AttrResponse::attrs);
}

sim::Task<CreateResponse>
NasdDrive::serveCreate(RequestCredential cred, RequestParams params)
{
    return serveOp<CreateResponse>(
        OpCode::kCreateObject, cred, params,
        [this](const RequestParams &p, OpTrace &trace) {
            return store_->createObject(p.partition, p.length, &trace);
        },
        &CreateResponse::object_id);
}

sim::Task<StatusResponse>
NasdDrive::serveRemove(RequestCredential cred, RequestParams params)
{
    return serveOp<StatusResponse>(
        OpCode::kRemoveObject, cred, params,
        [this](const RequestParams &p, OpTrace &trace) {
            return store_->removeObject(p.partition, p.object_id, &trace);
        });
}

sim::Task<CreateResponse>
NasdDrive::serveClone(RequestCredential cred, RequestParams params)
{
    return serveOp<CreateResponse>(
        OpCode::kCloneVersion, cred, params,
        [this](const RequestParams &p, OpTrace &trace) {
            return store_->cloneVersion(p.partition, p.object_id, &trace);
        },
        &CreateResponse::object_id);
}

sim::Task<ListResponse>
NasdDrive::serveList(RequestCredential cred, RequestParams params)
{
    return serveOp<ListResponse>(
        OpCode::kListObjects, cred, params,
        [this](const RequestParams &p, OpTrace &trace) {
            return store_->listObjects(p.partition, &trace);
        },
        &ListResponse::ids);
}

// Set-key and the partition admin ops change only in-memory allocator
// state, so their store steps never suspend. Set-key and partition
// create/remove also empty the verified-capability cache.

sim::Task<StatusResponse>
NasdDrive::serveSetKey(RequestCredential cred, RequestParams params)
{
    return serveOp<StatusResponse>(
        OpCode::kSetKey, cred, params,
        [this](const RequestParams &p,
               OpTrace &) -> sim::Task<StoreResult<void>> {
            auto rotated = store_->rotateKeyEpoch(p.partition);
            if (rotated.ok())
                verified_caps_.clear();
            co_return rotated;
        });
}

sim::Task<StatusResponse>
NasdDrive::serveCreatePartition(RequestCredential cred,
                                RequestParams params, PartitionId target)
{
    return serveOp<StatusResponse>(
        OpCode::kCreatePartition, cred, params,
        [this, target](const RequestParams &p,
                       OpTrace &) -> sim::Task<StoreResult<void>> {
            auto made = store_->createPartition(target, p.length);
            if (made.ok())
                verified_caps_.clear();
            co_return made;
        });
}

sim::Task<StatusResponse>
NasdDrive::serveResizePartition(RequestCredential cred,
                                RequestParams params, PartitionId target)
{
    return serveOp<StatusResponse>(
        OpCode::kResizePartition, cred, params,
        [this, target](const RequestParams &p,
                       OpTrace &) -> sim::Task<StoreResult<void>> {
            co_return store_->resizePartition(target, p.length);
        });
}

sim::Task<StatusResponse>
NasdDrive::serveRemovePartition(RequestCredential cred,
                                RequestParams params, PartitionId target)
{
    return serveOp<StatusResponse>(
        OpCode::kRemovePartition, cred, params,
        [this, target](const RequestParams &,
                       OpTrace &) -> sim::Task<StoreResult<void>> {
            auto removed = store_->removePartition(target);
            if (removed.ok())
                verified_caps_.clear();
            co_return removed;
        });
}

sim::Task<StatusResponse>
NasdDrive::serveFlush()
{
    if (crashed_)
        co_return StatusResponse{NasdStatus::kDriveUnavailable};
    if (failed_)
        co_return StatusResponse{NasdStatus::kDriveFailed};
    const sim::Tick op_start = sim_.now();
    const RequestParams flush_params{OpCode::kFlush};
    auto op_span = beginOp(OpCode::kFlush, flush_params);
    co_await store_->flushAll();
    finishOp(OpCode::kFlush, op_start, op_span);
    co_return StatusResponse{};
}

sim::Task<ProbeResponse>
NasdDrive::serveProbe(PartitionId target)
{
    ProbeResponse resp;
    resp.drive_id = config_.drive_id;
    if (crashed_) {
        resp.status = NasdStatus::kDriveUnavailable;
        co_return resp;
    }
    if (failed_) {
        resp.status = NasdStatus::kDriveFailed;
        co_return resp;
    }
    const OpSpec &spec = opSpec(OpCode::kProbe);
    const sim::Tick op_start = sim_.now();
    const RequestParams probe_params{OpCode::kProbe};
    auto op_span = beginOp(OpCode::kProbe, probe_params);
    co_await node_->cpu().execute(config_.costs.*spec.base_instr);
    const auto info = store_->partitionInfo(target);
    if (!info.ok()) {
        resp.status = info.error();
    } else {
        const auto &pi = info.value();
        resp.free_bytes = pi.quota_bytes > pi.used_bytes
                              ? pi.quota_bytes - pi.used_bytes
                              : 0;
    }
    node_->flightJournal().record(
        sim_.now(), util::FrEvent::kDriveProbe, 0,
        static_cast<std::uint64_t>(resp.status), target);
    finishOp(OpCode::kProbe, op_start, op_span);
    co_return resp;
}

} // namespace nasd
