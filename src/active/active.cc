#include "active/active.h"

#include <algorithm>
#include <memory>
#include <span>

#include "sim/sync.h"
#include "util/codec.h"
#include "util/logging.h"

namespace nasd::active {

namespace {

constexpr std::uint64_t kControlPayload = 128; // args + method name

/** The scan's second stage: charge @p cycles of the method to the
 *  drive CPU, then open @p done for the scan to join on. */
sim::Task<void>
runKernel(sim::CpuResource &cpu, std::uint64_t cycles,
          std::shared_ptr<sim::Gate> done)
{
    co_await cpu.executeAt(cycles, 1.0);
    done->open();
}

} // namespace

void
ActiveDiskRuntime::installMethod(const std::string &name,
                                 MethodFactory factory)
{
    methods_[name] = std::move(factory);
}

bool
ActiveDiskRuntime::hasMethod(const std::string &name) const
{
    return methods_.count(name) > 0;
}

sim::Task<ScanResponse>
ActiveDiskRuntime::serveScan(RequestCredential cred, RequestParams params,
                             std::string name)
{
    ScanResponse resp;
    const auto factory_it = methods_.find(name);
    if (factory_it == methods_.end()) {
        resp.status = NasdStatus::kBadRequest;
        co_return resp;
    }
    // A copy: installMethod may replace the entry while this scan waits.
    const MethodFactory factory = factory_it->second;

    // Same admission control as a read of the whole object.
    const auto status =
        co_await drive_.verify(cred, params, kRightRead, 0);
    if (status != NasdStatus::kOk) {
        resp.status = status;
        co_return resp;
    }

    auto attrs = co_await drive_.store().getAttributes(
        cred.pub.partition, params.object_id);
    if (!attrs.ok()) {
        resp.status = attrs.error();
        co_return resp;
    }
    const std::uint64_t size = attrs.value().size;

    // Two-stage pipeline: while the drive CPU runs the method over
    // chunk k (stage two, spawned), the object store reads chunk k+1
    // (stage one, inline). The method takes each piece of a chunk the
    // moment the store delivers it, host work at zero simulated time,
    // and a chunk the default consumeInPlace() gathers goes to
    // consume() when its read completes; so one buffer is enough: the
    // next read may refill it while stage two is still charging the
    // kernel's cycles for the bytes it held. Stage two is joined before
    // the next chunk is consumed and before every exit.
    auto method = factory();
    std::vector<std::uint8_t> chunk;
    const auto take = [&](std::span<const std::uint8_t> piece) {
        method->consumeInPlace(piece, chunk);
    };
    const auto read = [&](std::uint64_t offset) {
        return drive_.store().read(cred.pub.partition, params.object_id,
                                   offset,
                                   std::min(kScanChunkBytes, size - offset),
                                   take);
    };
    std::uint64_t offset = 0;
    StoreResult<std::uint64_t> got = std::uint64_t{0};
    if (size > 0)
        got = co_await read(0);
    while (got.ok() && got.value() > 0 && !drive_.crashed()) {
        const std::uint64_t n = got.value();
        if (!chunk.empty()) {
            method->consume(chunk);
            chunk.clear();
        }
        offset += n;
        bytes_scanned_ += n;
        resp.bytes_scanned += n;

        const auto cycles = static_cast<std::uint64_t>(
            method->cyclesPerByte() * static_cast<double>(n));
        std::shared_ptr<sim::Gate> kernel;
        if (cycles > 0) {
            kernel = std::make_shared<sim::Gate>(drive_.simulator());
            drive_.simulator().spawn(
                runKernel(drive_.node().cpu(), cycles, kernel));
        }
        got = std::uint64_t{0};
        if (offset < size)
            got = co_await read(offset);
        if (kernel)
            co_await kernel->wait();
    }
    // As for a read, a crash while the scan was inside the store
    // rejects it: no result leaves the drive.
    if (got.ok() && drive_.crashed())
        got = util::Err{NasdStatus::kDriveUnavailable};
    if (!got.ok()) {
        resp.status = got.error();
        co_return resp;
    }
    resp.result = method->result();
    co_return resp;
}

sim::Task<StoreResult<std::vector<std::uint8_t>>>
ActiveDiskClient::scan(CredentialFactory &cred, const std::string &method)
{
    RequestParams params{OpCode::kReadData,
                         cred.capability().pub.partition,
                         cred.capability().pub.object_id, 0, 0};
    const RequestCredential credential = cred.forRequest(params);

    ScanResponse resp = co_await net::call<ScanResponse>(
        net_, node_, runtime_.drive().node(),
        kControlPayload + method.size(),
        [&]() -> sim::Task<net::RpcReply<ScanResponse>> {
            auto r = co_await runtime_.serveScan(credential, params,
                                                 method);
            const std::uint64_t payload = r.result.size();
            co_return net::RpcReply<ScanResponse>{std::move(r), payload};
        });

    if (resp.status != NasdStatus::kOk)
        co_return util::Err{resp.status};
    co_return std::move(resp.result);
}

void
ActiveMethod::consumeInPlace(std::span<const std::uint8_t> piece,
                             std::vector<std::uint8_t> &chunk)
{
    if (chunk.empty())
        chunk.reserve(ActiveDiskRuntime::kScanChunkBytes);
    chunk.insert(chunk.end(), piece.begin(), piece.end());
}

void
FrequentSetsMethod::consume(std::span<const std::uint8_t> chunk)
{
    counter_.add(chunk);
}

void
FrequentSetsMethod::consumeInPlace(std::span<const std::uint8_t> piece,
                                   std::vector<std::uint8_t> &)
{
    counter_.add(piece);
}

std::vector<std::uint8_t>
FrequentSetsMethod::result() const
{
    const apps::ItemCounts counts = counter_.counts();
    std::vector<std::uint8_t> out;
    util::Encoder enc(out);
    enc.put<std::uint32_t>(static_cast<std::uint32_t>(counts.size()));
    for (const auto count : counts)
        enc.put<std::uint64_t>(count);
    return out;
}

apps::ItemCounts
FrequentSetsMethod::decodeResult(std::span<const std::uint8_t> raw)
{
    util::Decoder dec(raw);
    const auto n = dec.get<std::uint32_t>();
    apps::ItemCounts counts(n);
    for (auto &count : counts)
        count = dec.get<std::uint64_t>();
    return counts;
}

} // namespace nasd::active
