#include "replay/trace.hh"

#include <algorithm>
#include <numeric>
#include <utility>

#include "base/logging.hh"

namespace merlin::replay
{

EffectTrace::EffectTrace(uarch::EffectStreams streams)
    : s_(std::move(streams))
{
}

FirstTouch
EffectTrace::firstTouch(uarch::Structure s, EntryIndex entry,
                        unsigned bit, Cycle from) const
{
    constexpr unsigned kCycleShift = uarch::EffectStreams::kCycleShift;
    const std::vector<std::uint64_t> &v = events(s, entry);
    const std::uint64_t byte_bit = 1ULL << (bit / 8 + 1); // mask field
    auto it = std::lower_bound(
        v.begin(), v.end(), from,
        [](std::uint64_t ev, Cycle c) { return (ev >> kCycleShift) < c; });
    for (; it != v.end(); ++it) {
        if (*it & byte_bit) {
            return FirstTouch{(*it & 1u) ? Touch::Killed : Touch::Diverged,
                              *it >> kCycleShift};
        }
    }
    return FirstTouch{};
}

unsigned
EffectTrace::entries(uarch::Structure s) const
{
    return s_.counts[static_cast<std::size_t>(s)];
}

std::uint64_t
EffectTrace::numEvents() const
{
    return std::accumulate(s_.streams.begin(), s_.streams.end(),
                           std::uint64_t{0},
                           [](std::uint64_t n, const auto &v) {
                               return n + v.size();
                           });
}

std::uint64_t
EffectTrace::memoryBytes() const
{
    std::uint64_t n = s_.streams.size() * sizeof(s_.streams[0]);
    for (const auto &v : s_.streams)
        n += v.capacity() * sizeof(std::uint64_t);
    return n;
}

} // namespace merlin::replay
