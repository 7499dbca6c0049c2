/**
 * @file
 * Active Disks (Section 6): application-level programmability of NASD
 * drives.
 *
 * The object-based interface gives the drive enough knowledge of the
 * data to run application "methods" next to it: code executes at the
 * drive, consumes object data before it ever touches the interconnect,
 * and only the (small) result crosses the network. The paper's
 * demonstration runs the frequent-sets counting kernel inside the
 * drives, reaching the same 45 MB/s of effective scan bandwidth with
 * 10 Mb/s Ethernet and a third of the hardware.
 *
 * Security is unchanged: a method scan presents a normal capability
 * and goes through the same verification as a read.
 */
#ifndef NASD_ACTIVE_ACTIVE_H_
#define NASD_ACTIVE_ACTIVE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "apps/frequent_sets.h"
#include "nasd/client.h"
#include "nasd/drive.h"
#include "net/network.h"
#include "net/rpc.h"
#include "sim/simulator.h"

namespace nasd::active {

/**
 * A drive-resident method: folds over an object's data and produces a
 * small result to ship back. Implementations are stateful; one
 * instance per scan.
 */
class ActiveMethod
{
  public:
    virtual ~ActiveMethod() = default;

    /** Consume one chunk of object data (in object offset order). */
    virtual void consume(std::span<const std::uint8_t> chunk) = 0;

    /**
     * Take @p piece of the chunk being scanned where it lies in the
     * drive's image, the instant the store delivers it. Pieces come in
     * object offset order and are valid only during the call. The
     * default copies the piece into @p chunk, which the runtime hands
     * to consume() when the chunk's read completes; a method that
     * works on the pieces in place leaves @p chunk empty.
     */
    virtual void consumeInPlace(std::span<const std::uint8_t> piece,
                                std::vector<std::uint8_t> &chunk);

    /** Serialized result shipped to the client when the scan ends. */
    virtual std::vector<std::uint8_t> result() const = 0;

    /** Drive-CPU cost of the method, in cycles per byte scanned. */
    virtual double cyclesPerByte() const = 0;
};

/** Factory so each scan gets a fresh method instance. */
using MethodFactory = std::function<std::unique_ptr<ActiveMethod>()>;

struct [[nodiscard]] ScanResponse
{
    NasdStatus status = NasdStatus::kOk;
    std::vector<std::uint8_t> result;
    std::uint64_t bytes_scanned = 0;
};

/**
 * The on-drive execution environment: installed methods by name,
 * executed against objects under capability control.
 */
class ActiveDiskRuntime
{
  public:
    explicit ActiveDiskRuntime(NasdDrive &drive) : drive_(drive) {}

    NasdDrive &drive() { return drive_; }

    /** Install (or replace) a method under @p name. */
    void installMethod(const std::string &name, MethodFactory factory);

    bool hasMethod(const std::string &name) const;

    /**
     * Server-side handler: run method @p name over the capability's
     * object. The drive pays its normal media/cache time to read the
     * data plus the method's per-byte execution cost, pipelined so
     * the read of each chunk overlaps the kernel over the one before;
     * the method takes each piece where the store delivers it
     * (ActiveMethod::consumeInPlace), and only the result is returned.
     */
    sim::Task<ScanResponse> serveScan(RequestCredential cred,
                                      RequestParams params,
                                      std::string name);

    /** Total bytes all scans have consumed at this drive. */
    std::uint64_t bytesScanned() const { return bytes_scanned_; }

    /// Data is read and consumed at the drive in these units.
    static constexpr std::uint64_t kScanChunkBytes = 512 * 1024;

  private:
    NasdDrive &drive_;
    std::map<std::string, MethodFactory> methods_;
    std::uint64_t bytes_scanned_ = 0;
};

/** Client stub: request a remote scan, receive only the result. */
class ActiveDiskClient
{
  public:
    ActiveDiskClient(net::Network &net, net::NetNode &node,
                     ActiveDiskRuntime &runtime)
        : net_(net), node_(node), runtime_(runtime)
    {}

    /**
     * Execute the named method over the capability's object and
     * return its serialized result.
     */
    sim::Task<StoreResult<std::vector<std::uint8_t>>>
    scan(CredentialFactory &cred, const std::string &method);

  private:
    net::Network &net_;
    net::NetNode &node_;
    ActiveDiskRuntime &runtime_;
};

/** The paper's demonstration method: frequent 1-itemset counting. */
class FrequentSetsMethod : public ActiveMethod
{
  public:
    explicit FrequentSetsMethod(std::uint32_t catalog_items)
        : counter_(catalog_items)
    {}

    void consume(std::span<const std::uint8_t> chunk) override;
    /** Counts each piece where the drive holds it. */
    void consumeInPlace(std::span<const std::uint8_t> piece,
                        std::vector<std::uint8_t> &chunk) override;
    std::vector<std::uint8_t> result() const override;

    double
    cyclesPerByte() const override
    {
        return apps::kCountingCyclesPerByte;
    }

    /** Decode a serialized result back into counts. */
    static apps::ItemCounts decodeResult(
        std::span<const std::uint8_t> raw);

  private:
    apps::OneItemsetCounter counter_;
};

} // namespace nasd::active

#endif // NASD_ACTIVE_ACTIVE_H_
