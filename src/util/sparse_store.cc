#include "util/sparse_store.h"

#include <algorithm>
#include <cstring>

#include "util/logging.h"

namespace nasd::util {

SparseStore::SparseStore(std::size_t chunk_size) : chunk_size_(chunk_size)
{
    NASD_ASSERT(chunk_size > 0 && (chunk_size & (chunk_size - 1)) == 0,
                "chunk size must be a power of two");
}

void
SparseStore::write(std::uint64_t offset, std::span<const std::uint8_t> data)
{
    std::size_t done = 0;
    while (done < data.size()) {
        const std::uint64_t pos = offset + done;
        const std::uint64_t chunk_index = pos / chunk_size_;
        const std::size_t within = pos % chunk_size_;
        const std::size_t take =
            std::min(data.size() - done, chunk_size_ - within);

        auto &chunk = chunks_[chunk_index];
        if (!chunk) {
            // A fresh chunk reads as zeros except where this write lands.
            chunk = std::make_unique_for_overwrite<std::uint8_t[]>(
                chunk_size_);
            std::memset(chunk.get(), 0, within);
            std::memset(chunk.get() + within + take, 0,
                        chunk_size_ - within - take);
        }
        std::memcpy(chunk.get() + within, data.data() + done, take);
        done += take;
    }
}

void
SparseStore::read(std::uint64_t offset, std::uint64_t length,
                  ByteSink sink) const
{
    std::uint64_t done = 0;
    while (done < length) {
        const std::uint64_t pos = offset + done;
        const std::uint64_t chunk_index = pos / chunk_size_;
        const std::size_t within = pos % chunk_size_;
        const std::size_t take = static_cast<std::size_t>(
            std::min<std::uint64_t>(length - done, chunk_size_ - within));

        const auto it = chunks_.find(chunk_index);
        if (it == chunks_.end())
            sinkZeros(take, sink);
        else
            sink(std::span<const std::uint8_t>(it->second.get() + within,
                                               take));
        done += take;
    }
}

void
SparseStore::trim(std::uint64_t offset, std::uint64_t length)
{
    std::uint64_t done = 0;
    while (done < length) {
        const std::uint64_t pos = offset + done;
        const std::uint64_t chunk_index = pos / chunk_size_;
        const std::size_t within = pos % chunk_size_;
        const std::size_t take = static_cast<std::size_t>(
            std::min<std::uint64_t>(length - done, chunk_size_ - within));

        const auto it = chunks_.find(chunk_index);
        if (it != chunks_.end()) {
            if (within == 0 && take == chunk_size_) {
                chunks_.erase(it);
            } else {
                std::memset(it->second.get() + within, 0, take);
            }
        }
        done += take;
    }
}

std::size_t
SparseStore::allocatedBytes() const
{
    return chunks_.size() * chunk_size_;
}

} // namespace nasd::util
