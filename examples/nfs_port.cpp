/**
 * @file
 * A conventional distributed filesystem on NASD: the NFS port
 * (Section 5.1), shared by two client machines.
 *
 * Shows the division of labour the paper prescribes: lookups, creates
 * and policy changes go to the file manager; reads, writes and
 * attribute reads go straight to the drives with capabilities
 * piggybacked on lookup replies; revocation pushes a client back to
 * the file manager exactly once. Every step's status is checked and
 * bob's reads must return alice's bytes; any failure exits 1.
 *
 * Build & run:  ./build/examples/nfs_port
 */
#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "fs/nfs/nasd_nfs.h"
#include "net/presets.h"
#include "sim/simulator.h"
#include "util/units.h"

using namespace nasd;
using util::kKB;
using util::kMB;

int
main()
{
    sim::Simulator sim;
    net::Network net(sim);

    // Two NASD drives, a file manager, two client workstations.
    std::vector<std::unique_ptr<NasdDrive>> drives;
    std::vector<NasdDrive *> raw;
    for (int i = 0; i < 2; ++i) {
        drives.push_back(std::make_unique<NasdDrive>(
            sim, net,
            prototypeDriveConfig("nasd" + std::to_string(i), i + 1)));
        raw.push_back(drives.back().get());
    }
    auto &fm_node = net.addNode("file-manager", net::alphaStation500(),
                                net::oc3Link(), net::dceRpcCosts());
    fs::NasdNfsFileManager fm(sim, net, fm_node, raw, 0);
    sim.spawn(fm.initialize(512 * kMB));
    sim.run();

    auto &alice_node = net.addNode("alice", net::alphaStation255(),
                                   net::oc3Link(), net::dceRpcCosts());
    auto &bob_node = net.addNode("bob", net::alphaStation255(),
                                 net::oc3Link(), net::dceRpcCosts());
    fs::NasdNfsClient alice(net, alice_node, fm, raw);
    fs::NasdNfsClient bob(net, bob_node, fm, raw);

    const auto root = fm.rootHandle();

    // Alice builds a small tree and writes a report.
    const auto docs = runFor(sim, alice.mkdir(root, "docs")).value();
    const auto report = runFor(sim, alice.create(docs, "report.txt")).value();
    const std::string text =
        "NASD: eliminate the server from the data path.";
    std::vector<std::uint8_t> data(text.begin(), text.end());
    const auto wrote = runFor(sim, alice.write(report, 0, data));
    if (!wrote.ok()) {
        std::printf("alice's write failed: %s\n", toString(wrote.error()));
        return 1;
    }
    std::printf("alice wrote docs/report.txt (%zu bytes) on drive %u\n",
                data.size(), report.drive);

    // Bob looks it up (one FM call: the capability rides the reply),
    // then reads directly from the drive with no further FM traffic.
    const auto found = runFor(sim, bob.lookup(docs, "report.txt")).value();
    const auto fm_calls_after_lookup = bob.fmCalls();
    std::vector<std::uint8_t> buf(data.size());
    // A read must succeed, fill the buffer and return alice's bytes.
    const auto read_back = [&](const char *which) {
        std::fill(buf.begin(), buf.end(), 0);
        const auto got = runFor(sim, bob.read(found, 0, buf));
        if (!got.ok()) {
            std::printf("bob's %s read failed: %s\n", which,
                        toString(got.error()));
            return false;
        }
        if (got.value() != data.size() || buf != data) {
            std::printf("bob's %s read returned %llu bytes that differ "
                        "from alice's\n",
                        which, static_cast<unsigned long long>(got.value()));
            return false;
        }
        return true;
    };
    if (!read_back("first"))
        return 1;
    std::printf("bob read: \"%.*s\"\n", static_cast<int>(buf.size()),
                reinterpret_cast<const char *>(buf.data()));
    std::printf("bob's file-manager calls during the read: %llu "
                "(capability was piggybacked)\n",
                static_cast<unsigned long long>(bob.fmCalls() -
                                                fm_calls_after_lookup));

    // Attributes come straight from NASD object attributes.
    const auto attrs = runFor(sim, bob.getattr(found)).value();
    std::printf("attributes from the drive: size=%llu mode=%o\n",
                static_cast<unsigned long long>(attrs.size), attrs.mode);

    // The FM revokes (e.g. permissions changed): bob's next read pays
    // exactly one refresh round trip, then proceeds.
    const auto revoked = runFor(
        sim, [](fs::NasdNfsFileManager &m,
                fs::NasdNfsFh fh) -> sim::Task<fs::NfsStatus> {
            auto r = co_await m.serveRevoke(fh);
            co_return r.status;
        }(fm, found));
    if (revoked != fs::NfsStatus::kOk) {
        std::printf("revoke failed: %s\n", toString(revoked));
        return 1;
    }
    const auto fm_calls_before = bob.fmCalls();
    if (!read_back("second"))
        return 1;
    std::printf("after revocation, bob re-fetched %llu capability and "
                "read again: \"%.*s\"\n",
                static_cast<unsigned long long>(bob.fmCalls() -
                                                fm_calls_before),
                static_cast<int>(buf.size()),
                reinterpret_cast<const char *>(buf.data()));

    // Directory listing through the FM.
    const auto listing = runFor(sim, bob.readdir(root)).value();
    std::printf("root directory:");
    for (const auto &e : listing)
        std::printf(" %s%s", e.name.c_str(), e.is_directory ? "/" : "");
    std::printf("\n");
    return 0;
}
