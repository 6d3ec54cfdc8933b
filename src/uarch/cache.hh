/**
 * @file
 * Set-associative write-back cache with a real data array.
 *
 * Unlike pure-timing models, every level stores actual bytes so that an
 * injected bit flip lives in the array, is forwarded to loads, travels
 * down on write-backs and comes back on refills — the physical behaviour
 * MeRLiN's L1D campaigns rely on.
 *
 * Timing model: functional-move/timing-charge.  An access moves lines
 * synchronously and returns the accumulated latency; the core schedules
 * the consumer's completion that many cycles later.  This keeps the
 * machine deterministic and fast while preserving miss/hit shapes.
 *
 * Both the data array (base::CowBytes) and the tag/LRU table
 * (base::CowArray) are copy-on-write: a memberwise cache copy (core
 * snapshot) shares them chunk-wise, and a restored core detaches only
 * the chunks of the sets it actually touches, so a restored run that
 * stays in a few sets copies a few chunks of each, not whole tables.
 *
 * Set and tag extraction use a shift and a mask, computed once, when
 * the line size and set count are powers of two; any other geometry
 * (a 48 KB four-way L1D has 192 sets) keeps exact division.
 *
 * The cache reports no events.  An access's result says what moved
 * (a miss refilled line (set, way); wroteBack: its dirty victim was
 * read out first), and the core, which knows the phase and the
 * accessing uop, records that for the golden-run recorder itself.
 */

#ifndef MERLIN_UARCH_CACHE_HH
#define MERLIN_UARCH_CACHE_HH

#include <cstdint>
#include <vector>

#include "base/cow.hh"
#include "base/types.hh"
#include "isa/memory.hh"
#include "uarch/config.hh"

namespace merlin::uarch
{

/** One level of the hierarchy; lowest level backs onto SegmentedMemory. */
class Cache
{
  public:
    /**
     * Exactly one of @p lower / @p mem must be non-null.  The data
     * array is copy-on-write in base::CowBytes::kDefaultChunkBytes
     * chunks, rounded up to at least one line.
     */
    Cache(std::string name, const CacheConfig &cfg, Cache *lower,
          isa::SegmentedMemory *mem);

    struct AccessResult
    {
        std::uint32_t latency = 0;
        std::uint32_t set = 0;
        std::uint32_t way = 0;
        bool hit = false;
        /** A miss evicted a dirty line from (set, way): the whole
         *  victim was read out of the array before the fill. */
        bool wroteBack = false;
    };

    /**
     * Ensure the line containing @p addr is resident; returns where it
     * lives and the accumulated latency.  @p is_write marks the line
     * dirty.  A miss overwrites every word of line (set, way).
     */
    AccessResult access(Addr addr, bool is_write);

    /**
     * A read of the line the caller knows is resident at (@p set,
     * @p way): stamps LRU and counts the hit exactly as access() would,
     * without the tag search.
     */
    void
    touchHit(std::uint32_t set, std::uint32_t way)
    {
        lines_.mut(setBase(set) + way).lruStamp = ++lruCounter_;
        ++hits_;
    }

    /** Read up to 8 bytes from a resident line (no alignment checks). */
    std::uint64_t readBytes(std::uint32_t set, std::uint32_t way,
                            std::uint32_t offset, unsigned size) const;

    /** Write up to 8 bytes into a resident line. */
    void writeBytes(std::uint32_t set, std::uint32_t way,
                    std::uint32_t offset, unsigned size,
                    std::uint64_t value);

    /** XOR @p mask into 8-byte data word @p word (fault injection;
     *  the line's dirty bit is left as it is). */
    void xorWord(EntryIndex word, std::uint64_t mask);

    /** Global 8-byte-word index of (set, way, byte offset). */
    EntryIndex
    wordIndex(std::uint32_t set, std::uint32_t way,
              std::uint32_t offset) const
    {
        return (set * cfg_.ways + way) * cfg_.wordsPerLine() + offset / 8;
    }

    /** Apply every dirty line onto @p mem (architectural memory view). */
    void applyDirtyLines(isa::SegmentedMemory &mem) const;

    /**
     * Re-target the hierarchy pointers after a memberwise copy (core
     * snapshot/restore).  Exactly one of @p lower / @p mem must be
     * non-null.
     */
    void repoint(Cache *lower, isa::SegmentedMemory *mem);

    /**
     * Full state equality with @p o (same geometry assumed): tags,
     * LRU, dirty bits, access counters, and the data array — shared
     * tag and data chunks compare by pointer identity.
     */
    bool stateEquals(const Cache &o) const;

    /** stateEquals() without the data array. */
    bool metaEquals(const Cache &o) const;

    /** Append the data words that differ from @p o's (word index =
     *  wordIndex(), see base::CowBytes::diffWords). */
    void
    diffWords(const Cache &o,
              std::vector<base::CowBytes::WordDiff> &out) const
    {
        data_.diffWords(o.data_, out);
    }

    /** Tag-table and data-array bytes (COW-shared by a copy). */
    std::uint64_t
    cowBytes() const
    {
        return lines_.bytes() + data_.size();
    }

    /** Chunk-pointer-table bytes a memberwise copy duplicates. */
    std::uint64_t
    metaBytes() const
    {
        return lines_.tableBytes() + data_.tableBytes();
    }

    /** Tag-table chunks physically shared with @p o. */
    std::size_t
    sharedTagChunksWith(const Cache &o) const
    {
        return lines_.sharedChunksWith(o.lines_);
    }

    /** Privatize the tag table and data array (a deep copy). */
    void
    detachAll()
    {
        lines_.detachAll();
        data_.detachAll();
    }

    const CacheConfig &config() const { return cfg_; }
    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t writebacks() const { return writebacks_; }

  private:
    struct Line
    {
        bool valid = false;
        bool dirty = false;
        Addr tag = 0;
        std::uint64_t lruStamp = 0;

        bool
        operator==(const Line &o) const
        {
            return valid == o.valid && dirty == o.dirty && tag == o.tag &&
                   lruStamp == o.lruStamp;
        }
    };

    Addr lineAddr(Addr addr) const { return addr & ~Addr(cfg_.lineSize - 1); }

    /** Line number of @p addr split into (set, tag). */
    void
    split(Addr addr, std::uint32_t &set, Addr &tag) const
    {
        if (pow2_) {
            const Addr line = addr >> lineShift_;
            set = static_cast<std::uint32_t>(line & setMask_);
            tag = line >> setShift_;
        } else {
            const Addr line = addr / cfg_.lineSize;
            set = static_cast<std::uint32_t>(line % numSets_);
            tag = line / numSets_;
        }
    }

    /** First tag-table entry of @p set (its ways are contiguous). */
    std::size_t
    setBase(std::uint32_t set) const
    {
        return std::size_t(set) << strideShift_;
    }

    std::size_t
    lineOffset(std::uint32_t set, std::uint32_t way) const
    {
        return (std::size_t(set) * cfg_.ways + way) * cfg_.lineSize;
    }

    /** Read-only view of a whole resident line. */
    const std::uint8_t *lineData(std::uint32_t set, std::uint32_t way) const;
    /** Writable view of a whole resident line (detaches its chunk). */
    std::uint8_t *lineDataMut(std::uint32_t set, std::uint32_t way);

    /** Recursive line read from below; returns latency. */
    std::uint32_t readLineFromBelow(Addr line_addr, std::uint8_t *out);
    /** Recursive line write-back into the level below. */
    void writeLineBelow(Addr line_addr, const std::uint8_t *data);

    std::string name_;
    CacheConfig cfg_;
    Cache *lower_;
    isa::SegmentedMemory *mem_;

    std::uint32_t numSets_;
    bool pow2_;                 ///< line size and set count powers of two
    std::uint32_t lineShift_ = 0;
    std::uint32_t setShift_ = 0;
    Addr setMask_ = 0;
    std::uint32_t strideShift_; ///< log2 of the tag table's set stride

    /** sets x 2^strideShift_ entries (ways, padded to a power of two). */
    base::CowArray<Line> lines_;
    base::CowBytes data_;       ///< sets x ways x lineSize
    std::uint64_t lruCounter_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t writebacks_ = 0;
    unsigned memLatency_ = 80;

  public:
    void setMemLatency(unsigned lat) { memLatency_ = lat; }
};

} // namespace merlin::uarch

#endif // MERLIN_UARCH_CACHE_HH
