/**
 * @file
 * Chunked copy-on-write storage.
 *
 * A CowArray<T> is a flat array split into fixed-size chunks, each held
 * by a shared_ptr.  Copying the array copies only the chunk pointer
 * table (O(#chunks)); the first write into a shared chunk detaches a
 * private copy of that chunk only.  CowBytes is the byte-addressed
 * specialisation under the simulated machine's SegmentedMemory and the
 * cache data arrays; the cache tag/LRU tables and the BTB are typed
 * CowArrays.  Core snapshots become pointer copies, restored cores pay
 * only for the chunks they actually dirty, and state comparison
 * short-circuits on chunk identity.
 *
 * Thread-safety: a COW value is confined to one thread, but two values
 * sharing chunks may live on different threads (a snapshot and the
 * cores restored from it).  Shared chunk contents are never mutated —
 * writers detach first — and a racy use_count() can only over-count,
 * which costs an unnecessary copy, never an aliased write.
 */

#ifndef MERLIN_BASE_COW_HH
#define MERLIN_BASE_COW_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "base/logging.hh"

namespace merlin::base
{

/**
 * Chunked copy-on-write array of @p T (trivially copyable values with
 * operator==).  Chunks hold a power-of-two number of elements; the last
 * chunk is padded to full size, and the padding never takes part in
 * comparisons.
 */
template <typename T>
class CowArray
{
  public:
    CowArray() = default;

    /**
     * @p size copies of @p fill in chunks of @p chunk_elems (pow2).
     * One filled chunk is shared by every slot, so construction costs
     * O(#chunks); the first write into a slot detaches it, as for any
     * shared chunk.
     */
    CowArray(std::size_t size, std::size_t chunk_elems, const T &fill = T{})
        : size_(size), chunkElems_(chunk_elems)
    {
        MERLIN_ASSERT(std::has_single_bit(chunk_elems),
                      "CowArray chunk size must be a power of two");
        shift_ = static_cast<std::uint32_t>(std::countr_zero(chunk_elems));
        auto c = std::make_shared_for_overwrite<T[]>(chunk_elems);
        std::fill_n(c.get(), chunk_elems, fill);
        chunks_.assign((size + chunk_elems - 1) >> shift_, c);
    }

    std::size_t size() const { return size_; }
    std::size_t chunkElems() const { return chunkElems_; }
    std::size_t numChunks() const { return chunks_.size(); }

    /** Element bytes (the storage a deep copy would duplicate). */
    std::uint64_t bytes() const { return size_ * sizeof(T); }

    /** Bytes of the chunk pointer table (what a copy duplicates). */
    std::uint64_t
    tableBytes() const
    {
        return chunks_.size() * sizeof(std::shared_ptr<T[]>);
    }

    const T &
    operator[](std::size_t i) const
    {
        return chunks_[i >> shift_][i & (chunkElems_ - 1)];
    }

    /** Writable element @p i; detaches its chunk if it is shared. */
    T &
    mut(std::size_t i)
    {
        return mutChunk(i >> shift_)[i & (chunkElems_ - 1)];
    }

    /** Read-only view of chunk @p c (chunkElems() elements). */
    const T *chunk(std::size_t c) const { return chunks_[c].get(); }

    /** Writable view of chunk @p c; detaches it if it is shared. */
    T *
    mutChunk(std::size_t c)
    {
        std::shared_ptr<T[]> &p = chunks_[c];
        // use_count() can transiently over-count under concurrent
        // release; that only costs a spurious copy (see file comment).
        if (p.use_count() > 1) {
            auto fresh = std::make_shared_for_overwrite<T[]>(chunkElems_);
            std::copy_n(p.get(), chunkElems_, fresh.get());
            p = std::move(fresh);
            bytesDetached_ += chunkElems_ * sizeof(T);
        }
        return p.get();
    }

    /**
     * Element equality with @p o (same size and granularity, else
     * false).  Chunks the two arrays share compare by pointer identity
     * and are never touched.
     */
    bool
    operator==(const CowArray &o) const
    {
        if (size_ != o.size_ || chunkElems_ != o.chunkElems_)
            return false;
        for (std::size_t c = 0; c < chunks_.size(); ++c) {
            if (chunks_[c] == o.chunks_[c])
                continue;
            const std::size_t n =
                std::min(chunkElems_, size_ - (c << shift_));
            if (!std::equal(chunks_[c].get(), chunks_[c].get() + n,
                            o.chunks_[c].get())) {
                return false;
            }
        }
        return true;
    }

    /** Chunks physically shared with @p o (same layout only). */
    std::size_t
    sharedChunksWith(const CowArray &o) const
    {
        if (size_ != o.size_ || chunkElems_ != o.chunkElems_)
            return 0;
        std::size_t n = 0;
        for (std::size_t c = 0; c < chunks_.size(); ++c)
            n += chunks_[c] == o.chunks_[c] ? 1 : 0;
        return n;
    }

    /** Chunks this array does not share with any other array. */
    std::size_t
    exclusiveChunks() const
    {
        std::size_t n = 0;
        for (const auto &c : chunks_)
            n += c.use_count() == 1 ? 1 : 0;
        return n;
    }

    /** Give every chunk a private copy (emulates a deep copy). */
    void
    detachAll()
    {
        for (std::size_t c = 0; c < chunks_.size(); ++c)
            mutChunk(c);
    }

    /**
     * Bytes copied by detaches since this value was constructed or
     * copied (a copy inherits the donor's count; take deltas).
     */
    std::uint64_t bytesDetached() const { return bytesDetached_; }

  private:
    std::vector<std::shared_ptr<T[]>> chunks_;
    std::size_t size_ = 0;
    std::size_t chunkElems_ = 1;
    std::uint32_t shift_ = 0;
    std::uint64_t bytesDetached_ = 0;
};

/** Byte-addressed CowArray with range reads and writes. */
class CowBytes
{
  public:
    /** Default chunk granularity (bytes); a power of two. */
    static constexpr std::uint32_t kDefaultChunkBytes = 4096;

    CowBytes() = default;

    /**
     * Zero-filled array of @p size bytes in chunks of @p chunk_bytes
     * (a power of two >= 8; the last chunk is padded to full size).
     */
    CowBytes(std::size_t size, std::uint32_t chunk_bytes);

    std::size_t size() const { return arr_.size(); }
    std::uint32_t chunkBytes() const { return chunkBytes_; }
    std::size_t numChunks() const { return arr_.numChunks(); }
    std::uint64_t tableBytes() const { return arr_.tableBytes(); }

    /**
     * Read-only pointer to [off, off+len); the range must not cross a
     * chunk boundary.
     */
    const std::uint8_t *readPtr(std::size_t off, std::size_t len) const;

    /**
     * Writable pointer to [off, off+len) within one chunk; detaches
     * the chunk if it is shared.
     */
    std::uint8_t *writePtr(std::size_t off, std::size_t len);

    /** Copy out [off, off+len), chunk-spanning allowed. */
    void read(std::size_t off, void *out, std::size_t len) const;

    /** Copy in [off, off+len), chunk-spanning allowed; detaches. */
    void write(std::size_t off, const void *in, std::size_t len);

    /**
     * Byte equality with @p o (same logical size required).  Chunks
     * shared between the two arrays compare by pointer identity and
     * are never touched; only detached chunks are compared bytewise.
     * Arrays with different chunk granularities fall back to a
     * run-wise byte compare.
     */
    bool contentEquals(const CowBytes &o) const;

    /** One differing 8-byte word: its index (byte offset / 8) and the
     *  XOR of the two words. */
    struct WordDiff
    {
        std::size_t word;
        std::uint64_t mask;
    };

    /**
     * Append every 8-byte word in which this array differs from @p o
     * (same size and granularity; the size a multiple of 8) to @p out,
     * in ascending order.  Shared chunks are skipped by pointer
     * identity, as in contentEquals().
     */
    void diffWords(const CowBytes &o, std::vector<WordDiff> &out) const;

    /** Chunks physically shared with @p o (same granularity only). */
    std::size_t
    sharedChunksWith(const CowBytes &o) const
    {
        return arr_.sharedChunksWith(o.arr_);
    }

    /** Chunks this array does not share with any other CowBytes. */
    std::size_t exclusiveChunks() const { return arr_.exclusiveChunks(); }

    /** Give every chunk a private copy (emulates a deep copy). */
    void detachAll() { arr_.detachAll(); }

    /** Bytes copied by detaches (see CowArray::bytesDetached). */
    std::uint64_t bytesDetached() const { return arr_.bytesDetached(); }

  private:
    CowArray<std::uint8_t> arr_;
    std::uint32_t chunkBytes_ = 0;
    std::uint32_t chunkShift_ = 0;
};

} // namespace merlin::base

#endif // MERLIN_BASE_COW_HH
