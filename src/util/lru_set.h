/**
 * @file
 * Least-recently-used residency set.
 *
 * The timing-only caches of the simulated stores (a NASD drive's data
 * units and inodes, FFS's buffer cache) track which ids are resident
 * and which to evict; the bytes themselves live in the device image.
 */
#ifndef NASD_UTIL_LRU_SET_H_
#define NASD_UTIL_LRU_SET_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <unordered_map>

namespace nasd::util {

/** A set of at most capacity ids that evicts the least recently used. */
class LruSet
{
  public:
    explicit LruSet(std::size_t capacity) : capacity_(capacity) {}

    /** Hit test; a hit becomes the most recently used. */
    bool
    touch(std::uint32_t id)
    {
        auto it = map_.find(id);
        if (it == map_.end())
            return false;
        lru_.splice(lru_.begin(), lru_, it->second);
        return true;
    }

    /** Make @p id resident and most recent, evicting the least recent
     *  id when full. */
    void
    insert(std::uint32_t id)
    {
        if (touch(id))
            return;
        if (map_.size() >= capacity_ && !lru_.empty()) {
            map_.erase(lru_.back());
            lru_.pop_back();
        }
        lru_.push_front(id);
        map_[id] = lru_.begin();
    }

    void
    erase(std::uint32_t id)
    {
        auto it = map_.find(id);
        if (it == map_.end())
            return;
        lru_.erase(it->second);
        map_.erase(it);
    }

  private:
    std::size_t capacity_;
    std::list<std::uint32_t> lru_; ///< front = most recent
    std::unordered_map<std::uint32_t, std::list<std::uint32_t>::iterator>
        map_;
};

} // namespace nasd::util

#endif // NASD_UTIL_LRU_SET_H_
