/**
 * @file
 * The drive's request set (Section 4.1), one row per OpCode.
 *
 * Each row states once what NasdClient and NasdDrive both need to know
 * about an operation: its name, the capability right it needs, whether
 * the client retries it, its fixed request and reply frames, and which
 * DriveCostModel fields the drive charges for it (Table 1).
 */
#ifndef NASD_NASD_OPS_H_
#define NASD_NASD_OPS_H_

#include <array>
#include <cstddef>
#include <cstdint>

#include "nasd/capability.h"
#include "nasd/costs.h"
#include "nasd/types.h"

namespace nasd {

/// Wire size of the fixed request frame: arguments + capability public
/// portion + nonce + request digest (Figure 5), beyond the transport
/// headers already counted by the RPC layer.
inline constexpr std::uint64_t kControlFrameBytes = 128;

/// Wire size of an attribute frame (setattr requests, attr replies).
inline constexpr std::uint64_t kAttrFrameBytes = 128;

/// Per-byte drive work of a list, per byte of object ids returned. A
/// fixed rate that no configuration varies, so not a DriveCostModel
/// field.
inline constexpr double kListPerByteInstr = 0.01;

/** Which of an op's bytes are data the keyed digest covers. */
enum class OpData : std::uint8_t {
    kNone, ///< control frames only (a list's ids are not digested)
    kIn,   ///< the request carries params.length bytes (a write's)
    kOut,  ///< the reply carries the bytes read
};

/** One drive operation's fixed properties. */
struct OpSpec
{
    OpCode op; ///< the row's own OpCode; rows follow OpCode's order
    const char *name; ///< drive span "drive/<name>", "<drive>/ops/<name>"
    /// Client span of the op, or nullptr: only reads and writes carry a
    /// trace context to the drive.
    const char *client_span;
    std::uint8_t rights; ///< Rights the capability must grant
    /// Retried under DriveRetryPolicy (with a fresh nonce per attempt);
    /// otherwise one deadline-protected attempt.
    bool idempotent;
    OpData data; ///< the data on the wire, covered by the keyed digest
    std::uint64_t request_bytes; ///< request frame (+ a write's data)
    /// Reply payload (+ a read's data or a list's ids: replyDataBytes).
    std::uint64_t reply_bytes;
    /// Drive instructions: the control path; the extra when metadata
    /// was cold; per byte moved. A null entry charges nothing.
    std::uint64_t DriveCostModel::*base_instr;
    std::uint64_t DriveCostModel::*cold_extra_instr;
    double (*per_byte_instr)(const DriveCostModel &);
};

/// Indexed by OpCode - 1. Each row: op, name, client span, rights,
/// idempotent, data, request_bytes, reply_bytes; then the drive's base,
/// cold-extra and per-byte costs.
inline constexpr std::array<OpSpec, 14> kOpSpecs = {{
    {OpCode::kReadData, "read", "nasd/read", kRightRead, true,
     OpData::kOut, kControlFrameBytes, 0,
     &DriveCostModel::read_base_instr,
     &DriveCostModel::cold_extra_read_instr,
     [](const DriveCostModel &c) { return c.read_per_byte_instr; }},
    {OpCode::kWriteData, "write", "nasd/write", kRightWrite, true,
     OpData::kIn, kControlFrameBytes, 0,
     &DriveCostModel::write_base_instr,
     &DriveCostModel::cold_extra_write_instr,
     [](const DriveCostModel &c) { return c.write_per_byte_instr; }},
    // Authority is a capability on the partition control object;
    // params.length carries the capacity hint.
    {OpCode::kCreateObject, "create", nullptr, kRightCreate, false,
     OpData::kNone, kControlFrameBytes, 16,
     &DriveCostModel::create_base_instr,
     &DriveCostModel::cold_extra_write_instr, nullptr},
    {OpCode::kRemoveObject, "remove", nullptr, kRightRemove, false,
     OpData::kNone, kControlFrameBytes, 0,
     &DriveCostModel::remove_base_instr,
     &DriveCostModel::cold_extra_write_instr, nullptr},
    {OpCode::kGetAttr, "getattr", nullptr, kRightGetAttr, true,
     OpData::kNone, kControlFrameBytes, kAttrFrameBytes,
     &DriveCostModel::attr_base_instr,
     &DriveCostModel::cold_extra_read_instr, nullptr},
    {OpCode::kSetAttr, "setattr", nullptr, kRightSetAttr, false,
     OpData::kNone, kControlFrameBytes + kAttrFrameBytes,
     kAttrFrameBytes, &DriveCostModel::attr_base_instr,
     &DriveCostModel::cold_extra_write_instr, nullptr},
    {OpCode::kCloneVersion, "clone", nullptr, kRightVersion, false,
     OpData::kNone, kControlFrameBytes, 16,
     &DriveCostModel::create_base_instr,
     &DriveCostModel::cold_extra_write_instr, nullptr},
    // Partition administration: a drive-owner capability on partition
    // 0's control object; params.offset names the target partition and
    // params.length carries the quota in bytes.
    {OpCode::kCreatePartition, "create_partition", nullptr,
     kRightCreate, false, OpData::kNone, kControlFrameBytes, 16,
     &DriveCostModel::create_base_instr, nullptr, nullptr},
    {OpCode::kResizePartition, "resize_partition", nullptr,
     kRightSetAttr, false, OpData::kNone, kControlFrameBytes, 16,
     &DriveCostModel::attr_base_instr, nullptr, nullptr},
    {OpCode::kRemovePartition, "remove_partition", nullptr,
     kRightRemove, false, OpData::kNone, kControlFrameBytes, 16,
     &DriveCostModel::remove_base_instr, nullptr, nullptr},
    {OpCode::kSetKey, "setkey", nullptr, kRightSetAttr, false,
     OpData::kNone, kControlFrameBytes, 0,
     &DriveCostModel::attr_base_instr, nullptr, nullptr},
    {OpCode::kListObjects, "list", nullptr, kRightGetAttr, true,
     OpData::kNone, kControlFrameBytes, 0,
     &DriveCostModel::attr_base_instr, nullptr,
     [](const DriveCostModel &) { return kListPerByteInstr; }},
    // Flush and probe carry no capability. A probe's cost is the
    // request parse alone: its reply comes from allocator totals.
    {OpCode::kFlush, "flush", nullptr, 0, true, OpData::kNone,
     kControlFrameBytes, 0, nullptr, nullptr, nullptr},
    {OpCode::kProbe, "probe", nullptr, 0, true, OpData::kNone,
     kControlFrameBytes, 32, &DriveCostModel::capability_check_instr,
     nullptr, nullptr},
}};

/// True when every row sits at its OpCode's index, as opSpec() assumes:
/// a reordered row would hand an op another op's right and costs.
constexpr bool
opSpecsFollowOpCodes()
{
    for (std::size_t i = 0; i < kOpSpecs.size(); ++i)
        if (kOpSpecs[i].op != static_cast<OpCode>(i + 1))
            return false;
    return true;
}
static_assert(opSpecsFollowOpCodes(),
              "kOpSpecs rows must follow OpCode's order");

/** The row of @p op. */
constexpr const OpSpec &
opSpec(OpCode op)
{
    return kOpSpecs[static_cast<std::size_t>(op) - 1];
}

} // namespace nasd

#endif // NASD_NASD_OPS_H_
