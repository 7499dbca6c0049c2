#include "crypto/keychain.h"

namespace nasd::crypto {

namespace {

/// Working keys memoized per KeyChain. Real key chains hold a few (one
/// drive, a partition or two, two kinds, the current epoch).
constexpr std::size_t kWorkingKeyMemoCap = 256;

} // namespace

Key
KeyChain::derive(const Key &parent, std::uint8_t level_tag,
                 std::uint64_t id_a, std::uint64_t id_b)
{
    HmacSha256 ctx(parent);
    ctx.updateValue<std::uint8_t>(level_tag);
    ctx.updateValue<std::uint64_t>(id_a);
    ctx.updateValue<std::uint64_t>(id_b);
    return digestToKey(ctx.finish());
}

Key
KeyChain::driveKey(std::uint64_t drive_id) const
{
    return derive(master_, 1, drive_id, 0);
}

Key
KeyChain::partitionKey(std::uint64_t drive_id,
                       std::uint16_t partition_id) const
{
    return derive(driveKey(drive_id), 2, partition_id, 0);
}

Key
KeyChain::workingKey(std::uint64_t drive_id, std::uint16_t partition_id,
                     WorkingKeyKind kind, std::uint32_t epoch) const
{
    const WorkingKeyId id{drive_id, partition_id, kind, epoch};
    if (auto known = working_keys_.find(id); known != working_keys_.end())
        return known->second;
    const auto kind_and_epoch =
        (static_cast<std::uint64_t>(kind) << 32) | epoch;
    const Key key = derive(partitionKey(drive_id, partition_id), 3,
                           kind_and_epoch, 0);
    if (working_keys_.size() >= kWorkingKeyMemoCap)
        working_keys_.clear();
    working_keys_.emplace(id, key);
    return key;
}

} // namespace nasd::crypto
