/**
 * @file
 * Writing a custom Active Disks method (Section 6).
 *
 * Installs a user-defined "method" on a drive — here a filter that
 * counts transactions from one store and tracks the largest basket —
 * and scans 8 MB of records on-drive. Only a 24-byte result crosses
 * the network; the same scan shipped to the client would move all
 * 8 MB.
 *
 * Build & run:  ./build/examples/active_disk_filter
 */
#include <cstdio>
#include <memory>

#include "active/active.h"
#include "apps/transactions.h"
#include "net/presets.h"
#include "sim/simulator.h"
#include "util/codec.h"
#include "util/units.h"

using namespace nasd;
using util::kMB;

namespace {

/** A user-written drive-resident method: per-store sales statistics. */
class StoreFilterMethod : public active::ActiveMethod
{
  public:
    explicit StoreFilterMethod(std::uint32_t store_id)
        : store_id_(store_id)
    {}

    void
    consume(std::span<const std::uint8_t> chunk) override
    {
        const std::size_t n =
            chunk.size() / apps::TransactionRecord::kBytes;
        for (std::size_t r = 0; r < n; ++r) {
            const auto rec = apps::decodeRecord(chunk.subspan(
                r * apps::TransactionRecord::kBytes,
                apps::TransactionRecord::kBytes));
            ++records_;
            if (rec.store_id == store_id_) {
                ++matches_;
                largest_basket_ = std::max<std::uint64_t>(largest_basket_,
                                                          rec.item_count);
            }
        }
    }

    std::vector<std::uint8_t>
    result() const override
    {
        std::vector<std::uint8_t> out;
        util::Encoder enc(out);
        enc.put<std::uint64_t>(records_);
        enc.put<std::uint64_t>(matches_);
        enc.put<std::uint64_t>(largest_basket_);
        return out;
    }

    double cyclesPerByte() const override { return 2.0; }

  private:
    std::uint32_t store_id_;
    std::uint64_t records_ = 0;
    std::uint64_t matches_ = 0;
    std::uint64_t largest_basket_ = 0;
};

} // namespace

int
main()
{
    sim::Simulator sim;
    net::Network net(sim);
    auto cfg = prototypeDriveConfig("nasd0", 1);
    cfg.link = net::tenMbitEthernetLink(); // slow network on purpose
    NasdDrive drive(sim, net, std::move(cfg));
    CapabilityIssuer issuer(drive.config().master_key, 1);
    auto &client_node = net.addNode("client", net::alphaStation255(),
                                    net::tenMbitEthernetLink(),
                                    net::dceRpcCosts());
    NasdClient client(net, client_node, drive);
    sim.spawn(drive.format());
    sim.run();
    if (!drive.store().createPartition(0, 256 * kMB).ok())
        return 1;

    // Load 8 MB of transactions.
    CapabilityPublic pc;
    pc.partition = 0;
    pc.object_id = kPartitionControlObject;
    pc.rights = kRightCreate;
    CredentialFactory pcred(issuer.mint(pc));
    const ObjectId oid = runFor(sim, client.create(pcred, 0)).value();

    CapabilityPublic po;
    po.partition = 0;
    po.object_id = oid;
    po.rights = kRightRead | kRightWrite;
    CredentialFactory cred(issuer.mint(po));

    apps::TransactionGenerator gen(apps::DatasetParams{});
    for (std::uint64_t c = 0; c < 4; ++c) {
        const auto w = runFor(
            sim, client.write(cred, c * apps::kChunkBytes, gen.chunk(c)));
        if (!w.ok()) {
            std::printf("load of chunk %llu failed: %s\n",
                        static_cast<unsigned long long>(c),
                        toString(w.error()));
            return 1;
        }
    }
    std::printf("loaded 8MB of transactions on %s (10 Mb/s network)\n",
                drive.name().c_str());

    // Install the custom method and scan on-drive.
    active::ActiveDiskRuntime runtime(drive);
    static constexpr std::uint32_t kStore = 17;
    runtime.installMethod("store-filter",
                          []() -> std::unique_ptr<active::ActiveMethod> {
                              return std::make_unique<StoreFilterMethod>(
                                  kStore);
                          });
    active::ActiveDiskClient scanner(net, client_node, runtime);

    const auto wire_before = client_node.bytes_received.value();
    const sim::Tick start = sim.now();
    auto result = runFor(sim, scanner.scan(cred, "store-filter"));
    const double secs = sim::toSeconds(sim.now() - start);
    if (!result.ok())
        return 1;

    util::Decoder dec(result.value());
    const auto records = dec.get<std::uint64_t>();
    const auto matches = dec.get<std::uint64_t>();
    const auto largest = dec.get<std::uint64_t>();
    std::printf("on-drive scan of %llu records in %.2f s "
                "(%.1f MB/s effective)\n",
                static_cast<unsigned long long>(records), secs,
                util::bytesPerSecToMBs(8.0 * kMB / secs));
    std::printf("store %u: %llu transactions, largest basket %llu "
                "items\n",
                kStore, static_cast<unsigned long long>(matches),
                static_cast<unsigned long long>(largest));
    std::printf("bytes shipped to the client: %llu (vs 8MB if the data "
                "had to cross the wire)\n",
                static_cast<unsigned long long>(
                    client_node.bytes_received.value() - wire_before));
    return 0;
}
