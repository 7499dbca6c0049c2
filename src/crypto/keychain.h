/**
 * @file
 * NASD key hierarchy [Gobioff97].
 *
 * Capabilities are protected by a small number of keys organized into a
 * four-level hierarchy:
 *
 *   master key            - held by the drive owner; never used online
 *   drive key             - per drive; manages partition keys
 *   partition key         - per partition; manages working keys
 *   working keys          - two per partition ("gold" and "black"),
 *                           used to mint capabilities; rotated by epoch
 *
 * Higher keys only manage the level below; only working keys touch the
 * request path, so compromising one bounds the damage and rotation is
 * cheap. Derivation is HMAC of a level tag and identifier under the
 * parent key, so the file manager and drive derive identical keys from
 * the shared master secret without exchanging per-capability state.
 *
 * Working keys are memoized per (drive, partition, kind, epoch). A
 * working key is a pure function of that tuple and the master secret,
 * and a set-key only moves the partition to a new epoch, so the memo
 * can never hand out a key the derivation would not.
 */
#ifndef NASD_CRYPTO_KEYCHAIN_H_
#define NASD_CRYPTO_KEYCHAIN_H_

#include <cstdint>
#include <map>
#include <tuple>

#include "crypto/hmac.h"

namespace nasd::crypto {

/** Which of the two per-partition working keys to use. */
enum class WorkingKeyKind : std::uint8_t {
    kGold = 0,  ///< long-lived; for capabilities minted by the owner
    kBlack = 1, ///< short-lived; for routinely rotated capabilities
};

/** Derives the NASD four-level key hierarchy from a master secret. */
class KeyChain
{
  public:
    explicit KeyChain(const Key &master) : master_(master) {}

    /** Level 2: per-drive key. */
    Key driveKey(std::uint64_t drive_id) const;

    /** Level 3: per-partition key. */
    Key partitionKey(std::uint64_t drive_id,
                     std::uint16_t partition_id) const;

    /** Level 4: working key used to mint/verify capabilities
     *  (memoized; see the file comment). */
    Key workingKey(std::uint64_t drive_id, std::uint16_t partition_id,
                   WorkingKeyKind kind, std::uint32_t epoch) const;

  private:
    using WorkingKeyId = std::tuple<std::uint64_t, std::uint16_t,
                                    WorkingKeyKind, std::uint32_t>;

    static Key derive(const Key &parent, std::uint8_t level_tag,
                      std::uint64_t id_a, std::uint64_t id_b);

    Key master_;
    /// Derived working keys; emptied when it reaches its cap, so it
    /// stays small however many epochs a long run rotates through.
    mutable std::map<WorkingKeyId, Key> working_keys_;
};

} // namespace nasd::crypto

#endif // NASD_CRYPTO_KEYCHAIN_H_
