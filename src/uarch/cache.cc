#include "uarch/cache.hh"

#include <algorithm>
#include <bit>
#include <cstring>

#include "base/bits.hh"
#include "base/logging.hh"

namespace merlin::uarch
{

Cache::Cache(std::string name, const CacheConfig &cfg, Cache *lower,
             isa::SegmentedMemory *mem)
    : name_(std::move(name)), cfg_(cfg), lower_(lower), mem_(mem)
{
    MERLIN_ASSERT((lower_ == nullptr) != (mem_ == nullptr),
                  "cache needs exactly one backing level");
    MERLIN_ASSERT(cfg_.validGeometry(), "bad cache geometry");
    numSets_ = cfg_.numSets();
    pow2_ = std::has_single_bit(cfg_.lineSize) &&
            std::has_single_bit(numSets_);
    if (pow2_) {
        lineShift_ = static_cast<std::uint32_t>(
            std::countr_zero(cfg_.lineSize));
        setShift_ = static_cast<std::uint32_t>(std::countr_zero(numSets_));
        setMask_ = numSets_ - 1;
    }
    // A chunk must hold whole lines so that line views never span
    // chunks; both values are powers of two, so max() suffices.
    const std::uint32_t chunk =
        std::max(base::CowBytes::kDefaultChunkBytes, cfg_.lineSize);
    data_ = base::CowBytes(std::size_t(numSets_) * cfg_.ways * cfg_.lineSize,
                           chunk);
    // The tag table strides sets at a power of two so a set never
    // spans chunks; a tag chunk holds at most as many bytes as a data
    // chunk, and at least one set.
    const std::uint32_t stride = std::bit_ceil(cfg_.ways);
    strideShift_ = static_cast<std::uint32_t>(std::countr_zero(stride));
    lines_ = base::CowArray<Line>(
        std::size_t(numSets_) << strideShift_,
        std::max<std::size_t>(stride, std::bit_floor(chunk / sizeof(Line))));
}

void
Cache::repoint(Cache *lower, isa::SegmentedMemory *mem)
{
    MERLIN_ASSERT((lower == nullptr) != (mem == nullptr),
                  "cache needs exactly one backing level");
    lower_ = lower;
    mem_ = mem;
}

const std::uint8_t *
Cache::lineData(std::uint32_t set, std::uint32_t way) const
{
    return data_.readPtr(lineOffset(set, way), cfg_.lineSize);
}

std::uint8_t *
Cache::lineDataMut(std::uint32_t set, std::uint32_t way)
{
    return data_.writePtr(lineOffset(set, way), cfg_.lineSize);
}

std::uint32_t
Cache::readLineFromBelow(Addr line_addr, std::uint8_t *out)
{
    if (lower_) {
        AccessResult r = lower_->access(line_addr, false);
        std::memcpy(out, lower_->lineData(r.set, r.way), cfg_.lineSize);
        return r.latency;
    }
    isa::TrapKind t = mem_->readBlock(line_addr, out, cfg_.lineSize);
    MERLIN_ASSERT(t == isa::TrapKind::None,
                  "line fill from unmapped memory at 0x", std::hex,
                  line_addr);
    return memLatency_;
}

void
Cache::writeLineBelow(Addr line_addr, const std::uint8_t *data)
{
    if (lower_) {
        AccessResult r = lower_->access(line_addr, true);
        std::memcpy(lower_->lineDataMut(r.set, r.way), data,
                    cfg_.lineSize);
        return;
    }
    isa::TrapKind t = mem_->writeBlock(line_addr, data, cfg_.lineSize);
    MERLIN_ASSERT(t == isa::TrapKind::None,
                  "write-back to unmapped memory at 0x", std::hex,
                  line_addr);
}

Cache::AccessResult
Cache::access(Addr addr, bool is_write)
{
    const Addr laddr = lineAddr(addr);
    std::uint32_t set;
    Addr tag;
    split(addr, set, tag);
    // Every access stamps LRU, so the set is always written.
    Line *set_lines = &lines_.mut(setBase(set));

    AccessResult res;
    res.set = set;

    // Hit path.
    for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
        Line &line = set_lines[w];
        if (line.valid && line.tag == tag) {
            line.lruStamp = ++lruCounter_;
            if (is_write)
                line.dirty = true;
            ++hits_;
            res.way = w;
            res.hit = true;
            res.latency = cfg_.hitLatency;
            return res;
        }
    }

    // Miss: prefer an invalid way, else evict the least recently used.
    ++misses_;
    std::uint32_t victim = 0;
    bool have_invalid = false;
    for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
        if (!set_lines[w].valid) {
            victim = w;
            have_invalid = true;
            break;
        }
    }
    if (!have_invalid) {
        for (std::uint32_t w = 1; w < cfg_.ways; ++w) {
            if (set_lines[w].lruStamp < set_lines[victim].lruStamp)
                victim = w;
        }
    }

    Line &line = set_lines[victim];
    std::uint32_t latency = cfg_.hitLatency;

    if (line.valid && line.dirty) {
        // Write-back: the whole victim line is read out of the array.
        const Addr victim_addr =
            (line.tag * numSets_ + set) * cfg_.lineSize;
        writeLineBelow(victim_addr, lineData(set, victim));
        ++writebacks_;
        res.wroteBack = true;
    }

    // Fill from below (overwrites the whole line's storage).
    latency += readLineFromBelow(laddr, lineDataMut(set, victim));
    line.valid = true;
    line.dirty = is_write;
    line.tag = tag;
    line.lruStamp = ++lruCounter_;

    res.way = victim;
    res.hit = false;
    res.latency = latency;
    return res;
}

std::uint64_t
Cache::readBytes(std::uint32_t set, std::uint32_t way, std::uint32_t offset,
                 unsigned size) const
{
    MERLIN_ASSERT(offset + size <= cfg_.lineSize, "read past line end");
    return loadLE(lineData(set, way) + offset, size);
}

void
Cache::writeBytes(std::uint32_t set, std::uint32_t way, std::uint32_t offset,
                  unsigned size, std::uint64_t value)
{
    MERLIN_ASSERT(offset + size <= cfg_.lineSize, "write past line end");
    storeLE(lineDataMut(set, way) + offset, value, size);
}

void
Cache::xorWord(EntryIndex word, std::uint64_t mask)
{
    MERLIN_ASSERT(word < cfg_.totalWords(), "cache word out of range");
    std::uint8_t *p = data_.writePtr(std::size_t(word) * 8, 8);
    storeLE(p, loadLE(p, 8) ^ mask, 8);
}

void
Cache::applyDirtyLines(isa::SegmentedMemory &mem) const
{
    for (std::uint32_t set = 0; set < numSets_; ++set) {
        for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
            const Line &line = lines_[setBase(set) + w];
            if (!line.valid || !line.dirty)
                continue;
            const Addr addr = (line.tag * numSets_ + set) * cfg_.lineSize;
            mem.writeBlock(addr, lineData(set, w), cfg_.lineSize);
        }
    }
}

bool
Cache::stateEquals(const Cache &o) const
{
    // The COW data array last: pointer identity makes it nearly free
    // when the two cores still share it.
    return metaEquals(o) && data_.contentEquals(o.data_);
}

bool
Cache::metaEquals(const Cache &o) const
{
    // Counters first: cheap, and divergent timing shows up here.
    return lruCounter_ == o.lruCounter_ && hits_ == o.hits_ &&
           misses_ == o.misses_ && writebacks_ == o.writebacks_ &&
           lines_ == o.lines_;
}

} // namespace merlin::uarch
