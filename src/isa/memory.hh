/**
 * @file
 * Functional backing memory of the simulated machine.
 *
 * A small set of permission-checked segments over a flat address space.
 * Both the functional interpreter and the cache hierarchy (as its
 * lowest level) use this class; block accessors move whole cache lines.
 *
 * Segment contents live in fixed-size copy-on-write chunks
 * (base::CowBytes): copying a SegmentedMemory copies O(#chunks) shared
 * pointers, writes detach only the chunk they touch, and
 * contentEquals() short-circuits on chunks the two images still share.
 * This is what makes full-core snapshots cheap enough to checkpoint
 * densely and state comparison cheap enough to run every checkpoint.
 */

#ifndef MERLIN_ISA_MEMORY_HH
#define MERLIN_ISA_MEMORY_HH

#include <cstdint>
#include <vector>

#include "base/cow.hh"
#include "base/types.hh"
#include "isa/traps.hh"

namespace merlin::isa
{

/** Segment permission bits. */
enum Perm : std::uint8_t
{
    PermRead = 1,
    PermWrite = 2,
    PermExec = 4,
};

/** Flat, segmented, permission-checked, copy-on-write memory. */
class SegmentedMemory
{
  public:
    /** Default COW chunk granularity (bytes). */
    static constexpr std::uint32_t kDefaultChunkBytes =
        base::CowBytes::kDefaultChunkBytes;

    /**
     * @p chunk_bytes is the COW granularity: a power of two >= 64
     * (so a cache line never spans chunks on the scalar fast path).
     */
    explicit SegmentedMemory(
        std::uint32_t chunk_bytes = kDefaultChunkBytes);

    /** Map [base, base+size) with @p perms; contents zero-initialized. */
    void addSegment(Addr base, std::uint64_t size, std::uint8_t perms);

    /**
     * Aligned scalar read of @p size in {1,2,4,8} bytes.
     * @return TrapKind::None on success, else the trap to raise.
     */
    TrapKind read(Addr addr, unsigned size, std::uint64_t &value) const;

    /** Aligned scalar write; see read(). */
    TrapKind write(Addr addr, unsigned size, std::uint64_t value);

    /** Fetch 8 instruction bytes; requires PermExec. */
    TrapKind fetch(Addr addr, std::uint64_t &raw) const;

    /**
     * Copy a block (cache line) out of memory.  No alignment requirement;
     * the block must lie inside one segment with PermRead or PermExec.
     */
    TrapKind readBlock(Addr addr, std::uint8_t *out, unsigned len) const;

    /** Copy a block into memory (cache write-back path). */
    TrapKind writeBlock(Addr addr, const std::uint8_t *in, unsigned len);

    /** Permission check only (no data movement). */
    TrapKind check(Addr addr, unsigned size, bool for_write) const;

    /** Byte-for-byte content equality (same segment layout assumed). */
    bool contentEquals(const SegmentedMemory &other) const;

    /** COW chunk granularity of this image. */
    std::uint32_t chunkBytes() const { return chunkBytes_; }

    /** Total mapped bytes across all segments. */
    std::uint64_t contentBytes() const;

    /** Bytes of the COW chunk-pointer tables (what a copy duplicates). */
    std::uint64_t tableBytes() const;

    /** Chunks physically shared with @p other (same layout assumed). */
    std::size_t sharedChunksWith(const SegmentedMemory &other) const;

    /** Cumulative bytes copied by COW detaches (see CowBytes). */
    std::uint64_t bytesDetached() const;

    /** Privatize every chunk (emulates the old deep-copy snapshot). */
    void detachAll();

  private:
    struct Segment
    {
        Addr base;
        std::uint64_t size;
        std::uint8_t perms;
        base::CowBytes bytes;
    };

    const Segment *find(Addr addr, unsigned len) const;
    Segment *find(Addr addr, unsigned len);

    std::vector<Segment> segments_;
    std::uint32_t chunkBytes_;
};

/** Canonical memory layout of a loaded program. */
namespace layout
{
constexpr Addr TEXT_BASE = 0x1000;
constexpr Addr DATA_BASE = 0x100000;
constexpr Addr HEAP_BASE = 0x400000;
constexpr std::uint64_t HEAP_SIZE = 0x200000;   // 2 MiB
constexpr Addr STACK_TOP = 0x7f0000;
constexpr std::uint64_t STACK_SIZE = 0x40000;   // 256 KiB
} // namespace layout

} // namespace merlin::isa

#endif // MERLIN_ISA_MEMORY_HH
