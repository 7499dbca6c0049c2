/**
 * @file
 * Quickstart: one NASD drive, one client, the core of the interface.
 *
 *   1. Build a simulated network and a prototype NASD drive.
 *   2. A "file manager" (holder of the drive secret) mints
 *      capabilities.
 *   3. The client creates an object, writes and reads it directly at
 *      the drive — no server in the data path.
 *   4. Tampered and revoked capabilities are rejected by the drive.
 *
 * Build & run:  ./build/examples/quickstart
 */
#include <cstdio>

#include "nasd/client.h"
#include "nasd/drive.h"
#include "net/presets.h"
#include "sim/simulator.h"
#include "util/units.h"

using namespace nasd;

int
main()
{
    // --- 1. A network with one drive and one client machine ----------
    sim::Simulator sim;
    net::Network net(sim);
    NasdDrive drive(sim, net, prototypeDriveConfig("nasd0", /*id=*/1));
    auto &client_node = net.addNode("workstation", net::alphaStation255(),
                                    net::oc3Link(), net::dceRpcCosts());
    NasdClient client(net, client_node, drive);

    sim.spawn(drive.format());
    sim.run();
    auto part = drive.store().createPartition(0, 256 * util::kMB);
    if (!part.ok())
        return 1;
    std::printf("drive %s ready: %d disks, %.1f MB/s raw media\n",
                drive.name().c_str(), drive.config().num_disks,
                util::bytesPerSecToMBs(drive.rawMediaBytesPerSec()));

    // --- 2. The file manager mints capabilities ----------------------
    // (It shares the drive's master secret; clients never see it.)
    CapabilityIssuer file_manager(drive.config().master_key, drive.id());

    CapabilityPublic create_rights;
    create_rights.partition = 0;
    create_rights.object_id = kPartitionControlObject;
    create_rights.rights = kRightCreate;
    CredentialFactory create_cred(file_manager.mint(create_rights));

    // --- 3. Create, write, read — directly at the drive --------------
    auto created = runFor(sim, client.create(create_cred, 0));
    if (!created.ok()) {
        std::printf("create: %s\n", toString(created.error()));
        return 1;
    }
    const ObjectId oid = created.value();
    std::printf("created object %llu\n",
                static_cast<unsigned long long>(oid));

    CapabilityPublic rw;
    rw.partition = 0;
    rw.object_id = oid;
    rw.rights = kRightRead | kRightWrite | kRightGetAttr | kRightSetAttr;
    CredentialFactory cred(file_manager.mint(rw));

    const std::string text = "network-attached secure disks, 1998";
    std::vector<std::uint8_t> data(text.begin(), text.end());
    auto wrote = runFor(sim, client.write(cred, 0, data));
    std::printf("write: %s\n", wrote.ok() ? "ok" : toString(wrote.error()));

    auto read = runFor(sim, client.read(cred, 0, data.size()));
    if (!read.ok()) {
        std::printf("read: %s\n", toString(read.error()));
        return 1;
    }
    std::printf("read back: \"%.*s\"\n",
                static_cast<int>(read.value().size()),
                reinterpret_cast<const char *>(read.value().data()));

    auto attrs = runFor(sim, client.getAttr(cred));
    if (!attrs.ok()) {
        std::printf("getattr: %s\n", toString(attrs.error()));
        return 1;
    }
    std::printf("object attributes: size=%llu version=%u\n",
                static_cast<unsigned long long>(attrs.value().size),
                attrs.value().version);

    // --- 4. The drive defends itself ---------------------------------
    Capability forged = file_manager.mint(rw);
    forged.private_key[3] ^= 0xff; // attacker guesses at the key
    CredentialFactory forged_cred(forged);
    auto attack = runFor(sim, client.read(forged_cred, 0, 16));
    std::printf("forged capability: %s\n",
                attack.ok() ? "ACCEPTED (bug!)" : toString(attack.error()));

    // Revoke by bumping the object's logical version.
    SetAttrRequest bump;
    bump.bump_version = true;
    auto revoked = runFor(sim, client.setAttr(cred, bump));
    if (!revoked.ok()) {
        std::printf("revoke: %s\n", toString(revoked.error()));
        return 1;
    }
    auto stale = runFor(sim, client.read(cred, 0, 16));
    std::printf("capability after revocation: %s\n",
                stale.ok() ? "ACCEPTED (bug!)" : toString(stale.error()));

    std::printf("simulated time elapsed: %.2f ms\n",
                sim::toMillis(sim.now()));
    // A drive that accepts either capability has lost its defence.
    return attack.ok() || stale.ok() ? 1 : 0;
}
