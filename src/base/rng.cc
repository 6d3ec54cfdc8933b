#include "base/rng.hh"

#include "base/logging.hh"

namespace merlin
{

namespace
{

std::uint64_t
splitMix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t s = seed;
    for (auto &w : state_)
        w = splitMix64(s);
}

Rng::Bound::Bound(std::uint64_t bound)
    : value(bound), threshold(0), pow2((bound & (bound - 1)) == 0)
{
    MERLIN_ASSERT(bound != 0, "nextBelow(0)");
    // 2^64 mod bound, which is 0 for a power of two.
    if (!pow2)
        threshold = -bound % bound;
}

std::uint64_t
Rng::nextInRange(std::uint64_t lo, std::uint64_t hi)
{
    MERLIN_ASSERT(lo <= hi, "bad range");
    return lo + nextBelow(hi - lo + 1);
}

double
Rng::nextDouble()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

Rng
Rng::fork()
{
    return Rng(next());
}

} // namespace merlin
