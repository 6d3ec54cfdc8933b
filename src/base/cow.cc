#include "base/cow.hh"

#include <cstring>

#include "base/bits.hh"

namespace merlin::base
{

CowBytes::CowBytes(std::size_t size, std::uint32_t chunk_bytes)
    : chunkBytes_(chunk_bytes)
{
    MERLIN_ASSERT(std::has_single_bit(chunk_bytes) && chunk_bytes >= 8,
                  "CowBytes chunk size must be a power of two >= 8");
    chunkShift_ = static_cast<std::uint32_t>(std::countr_zero(chunk_bytes));
    arr_ = CowArray<std::uint8_t>(size, chunk_bytes);
}

const std::uint8_t *
CowBytes::readPtr(std::size_t off, std::size_t len) const
{
    MERLIN_ASSERT(off + len <= size() && len > 0, "CowBytes read range");
    MERLIN_ASSERT((off >> chunkShift_) == ((off + len - 1) >> chunkShift_),
                  "CowBytes read spans chunks");
    return arr_.chunk(off >> chunkShift_) + (off & (chunkBytes_ - 1));
}

std::uint8_t *
CowBytes::writePtr(std::size_t off, std::size_t len)
{
    MERLIN_ASSERT(off + len <= size() && len > 0, "CowBytes write range");
    MERLIN_ASSERT((off >> chunkShift_) == ((off + len - 1) >> chunkShift_),
                  "CowBytes write spans chunks");
    return arr_.mutChunk(off >> chunkShift_) + (off & (chunkBytes_ - 1));
}

void
CowBytes::read(std::size_t off, void *out, std::size_t len) const
{
    MERLIN_ASSERT(off + len <= size(), "CowBytes read range");
    auto *dst = static_cast<std::uint8_t *>(out);
    while (len > 0) {
        const std::size_t in_chunk = off & (chunkBytes_ - 1);
        const std::size_t run =
            std::min<std::size_t>(len, chunkBytes_ - in_chunk);
        std::memcpy(dst, arr_.chunk(off >> chunkShift_) + in_chunk, run);
        off += run;
        dst += run;
        len -= run;
    }
}

void
CowBytes::write(std::size_t off, const void *in, std::size_t len)
{
    MERLIN_ASSERT(off + len <= size(), "CowBytes write range");
    const auto *src = static_cast<const std::uint8_t *>(in);
    while (len > 0) {
        const std::size_t in_chunk = off & (chunkBytes_ - 1);
        const std::size_t run =
            std::min<std::size_t>(len, chunkBytes_ - in_chunk);
        std::memcpy(arr_.mutChunk(off >> chunkShift_) + in_chunk, src, run);
        off += run;
        src += run;
        len -= run;
    }
}

bool
CowBytes::contentEquals(const CowBytes &o) const
{
    if (size() != o.size())
        return false;
    if (chunkBytes_ == o.chunkBytes_)
        return arr_ == o.arr_;
    // Mixed granularities: compare the overlap of each chunk pair.
    std::size_t off = 0;
    while (off < size()) {
        const std::size_t a_room = chunkBytes_ - (off & (chunkBytes_ - 1));
        const std::size_t b_room =
            o.chunkBytes_ - (off & (o.chunkBytes_ - 1));
        const std::size_t run = std::min({a_room, b_room, size() - off});
        if (std::memcmp(arr_.chunk(off >> chunkShift_) +
                            (off & (chunkBytes_ - 1)),
                        o.arr_.chunk(off >> o.chunkShift_) +
                            (off & (o.chunkBytes_ - 1)),
                        run) != 0) {
            return false;
        }
        off += run;
    }
    return true;
}

void
CowBytes::diffWords(const CowBytes &o, std::vector<WordDiff> &out) const
{
    MERLIN_ASSERT(size() == o.size() && chunkBytes_ == o.chunkBytes_ &&
                      size() % 8 == 0,
                  "CowBytes word diff needs matching layouts");
    for (std::size_t c = 0; c < numChunks(); ++c) {
        const std::uint8_t *a = arr_.chunk(c);
        const std::uint8_t *b = o.arr_.chunk(c);
        const std::size_t base = c << chunkShift_;
        const std::size_t n = std::min<std::size_t>(chunkBytes_,
                                                    size() - base);
        if (a == b || std::memcmp(a, b, n) == 0)
            continue;
        for (std::size_t i = 0; i < n; i += 8) {
            const std::uint64_t x = loadLE(a + i, 8) ^ loadLE(b + i, 8);
            if (x != 0)
                out.push_back(WordDiff{(base + i) / 8, x});
        }
    }
}

} // namespace merlin::base
