#include "isa/memory.hh"

#include <bit>
#include <cstring>

#include "base/bits.hh"
#include "base/logging.hh"
#include "isa/isa.hh"

namespace merlin::isa
{

SegmentedMemory::SegmentedMemory(std::uint32_t chunk_bytes)
    : chunkBytes_(chunk_bytes)
{
    // At least 64 bytes, so aligned scalars and cache lines never
    // span chunks.
    MERLIN_ASSERT(chunk_bytes >= 64 && chunk_bytes <= (1u << 30) &&
                      std::has_single_bit(chunk_bytes),
                  "memory chunk size must be a power of two >= 64");
}

void
SegmentedMemory::addSegment(Addr base, std::uint64_t size,
                            std::uint8_t perms)
{
    // Chunked storage indexes by (addr - base); a 64-byte-aligned base
    // keeps aligned scalars and cache lines inside single chunks.
    if (base % 64 != 0)
        fatal("segment base must be 64-byte aligned");
    for (const auto &s : segments_) {
        const bool overlap = base < s.base + s.size && s.base < base + size;
        if (overlap)
            fatal("overlapping memory segments");
    }
    Segment seg;
    seg.base = base;
    seg.size = size;
    seg.perms = perms;
    seg.bytes = base::CowBytes(size, chunkBytes_);
    segments_.push_back(std::move(seg));
}

const SegmentedMemory::Segment *
SegmentedMemory::find(Addr addr, unsigned len) const
{
    for (const auto &s : segments_) {
        if (addr >= s.base && addr + len <= s.base + s.size)
            return &s;
    }
    return nullptr;
}

SegmentedMemory::Segment *
SegmentedMemory::find(Addr addr, unsigned len)
{
    return const_cast<Segment *>(
        static_cast<const SegmentedMemory *>(this)->find(addr, len));
}

TrapKind
SegmentedMemory::read(Addr addr, unsigned size, std::uint64_t &value) const
{
    if (!isAligned(addr, size))
        return TrapKind::Misaligned;
    const Segment *s = find(addr, size);
    if (!s || !(s->perms & PermRead))
        return TrapKind::Segfault;
    // An aligned scalar never crosses a chunk (chunks are >= 64 bytes).
    value = loadLE(s->bytes.readPtr(addr - s->base, size), size);
    return TrapKind::None;
}

TrapKind
SegmentedMemory::write(Addr addr, unsigned size, std::uint64_t value)
{
    if (!isAligned(addr, size))
        return TrapKind::Misaligned;
    Segment *s = find(addr, size);
    if (!s || !(s->perms & PermWrite))
        return TrapKind::Segfault;
    storeLE(s->bytes.writePtr(addr - s->base, size), value, size);
    return TrapKind::None;
}

TrapKind
SegmentedMemory::fetch(Addr addr, std::uint64_t &raw) const
{
    if (!isAligned(addr, INSN_BYTES))
        return TrapKind::PcOutOfText;
    const Segment *s = find(addr, INSN_BYTES);
    if (!s || !(s->perms & PermExec))
        return TrapKind::PcOutOfText;
    raw = loadLE(s->bytes.readPtr(addr - s->base, INSN_BYTES), INSN_BYTES);
    return TrapKind::None;
}

TrapKind
SegmentedMemory::readBlock(Addr addr, std::uint8_t *out, unsigned len) const
{
    const Segment *s = find(addr, len);
    if (!s || !(s->perms & (PermRead | PermExec)))
        return TrapKind::Segfault;
    s->bytes.read(addr - s->base, out, len);
    return TrapKind::None;
}

TrapKind
SegmentedMemory::writeBlock(Addr addr, const std::uint8_t *in, unsigned len)
{
    Segment *s = find(addr, len);
    if (!s)
        return TrapKind::Segfault;
    // Write-backs of text lines are legal: L2 holds both I and D lines.
    s->bytes.write(addr - s->base, in, len);
    return TrapKind::None;
}

TrapKind
SegmentedMemory::check(Addr addr, unsigned size, bool for_write) const
{
    if (!isAligned(addr, size))
        return TrapKind::Misaligned;
    const Segment *s = find(addr, size);
    if (!s || !(s->perms & (for_write ? PermWrite : PermRead)))
        return TrapKind::Segfault;
    return TrapKind::None;
}

bool
SegmentedMemory::contentEquals(const SegmentedMemory &other) const
{
    if (segments_.size() != other.segments_.size())
        return false;
    for (std::size_t i = 0; i < segments_.size(); ++i) {
        if (segments_[i].base != other.segments_[i].base ||
            !segments_[i].bytes.contentEquals(other.segments_[i].bytes)) {
            return false;
        }
    }
    return true;
}

std::uint64_t
SegmentedMemory::contentBytes() const
{
    std::uint64_t n = 0;
    for (const auto &s : segments_)
        n += s.size;
    return n;
}

std::uint64_t
SegmentedMemory::tableBytes() const
{
    std::uint64_t n = segments_.size() * sizeof(Segment);
    for (const auto &s : segments_)
        n += s.bytes.tableBytes();
    return n;
}

std::size_t
SegmentedMemory::sharedChunksWith(const SegmentedMemory &other) const
{
    if (segments_.size() != other.segments_.size())
        return 0;
    std::size_t n = 0;
    for (std::size_t i = 0; i < segments_.size(); ++i)
        n += segments_[i].bytes.sharedChunksWith(other.segments_[i].bytes);
    return n;
}

std::uint64_t
SegmentedMemory::bytesDetached() const
{
    std::uint64_t n = 0;
    for (const auto &s : segments_)
        n += s.bytes.bytesDetached();
    return n;
}

void
SegmentedMemory::detachAll()
{
    for (auto &s : segments_)
        s.bytes.detachAll();
}

const char *
trapKindName(TrapKind k)
{
    switch (k) {
      case TrapKind::None:               return "none";
      case TrapKind::DivZero:            return "div-zero";
      case TrapKind::DetectedError:      return "detected-error";
      case TrapKind::Segfault:           return "segfault";
      case TrapKind::Misaligned:         return "misaligned";
      case TrapKind::IllegalInstruction: return "illegal-instruction";
      case TrapKind::PcOutOfText:        return "pc-out-of-text";
      default:                           return "<bad>";
    }
}

} // namespace merlin::isa
