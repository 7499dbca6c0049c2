/**
 * @file
 * Sparse byte store.
 *
 * Backing storage for simulated disks and objects: reads of never-
 * written ranges return zeros, and memory is allocated lazily in fixed
 * chunks, so a simulated multi-gigabyte disk costs only as much RAM as
 * the data actually written to it.
 */
#ifndef NASD_UTIL_SPARSE_STORE_H_
#define NASD_UTIL_SPARSE_STORE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "util/byte_sink.h"

namespace nasd::util {

/** Lazily-allocated, zero-default byte store addressed by offset. */
class SparseStore
{
  public:
    /** @param chunk_size Allocation granule; must be a power of two. */
    explicit SparseStore(std::size_t chunk_size = 64 * 1024);

    /** Copy @p data into the store at @p offset. */
    void write(std::uint64_t offset, std::span<const std::uint8_t> data);

    /** Hand bytes [offset, offset + length) to @p sink where they lie,
     *  one piece per chunk; an unallocated chunk's piece is zeros. */
    void read(std::uint64_t offset, std::uint64_t length,
              ByteSink sink) const;

    /** Copy bytes [offset, offset + out.size()) into @p out. */
    void
    read(std::uint64_t offset, std::span<std::uint8_t> out) const
    {
        CopySink copy(out);
        read(offset, out.size(), copy);
    }

    /** Fill [offset, offset+length) with zeros, freeing whole chunks. */
    void trim(std::uint64_t offset, std::uint64_t length);

    /** Bytes of backing memory currently allocated. */
    std::size_t allocatedBytes() const;

  private:
    std::size_t chunk_size_;
    std::unordered_map<std::uint64_t, std::unique_ptr<std::uint8_t[]>>
        chunks_;
};

} // namespace nasd::util

#endif // NASD_UTIL_SPARSE_STORE_H_
