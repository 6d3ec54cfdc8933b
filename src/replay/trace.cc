#include "replay/trace.hh"

#include <algorithm>
#include <numeric>

#include "base/logging.hh"

namespace merlin::replay
{

EffectTrace::EffectTrace(unsigned rf_entries, unsigned sq_entries,
                         unsigned l1d_words)
    : counts_{rf_entries, sq_entries, l1d_words}
{
    base_[0] = 0;
    base_[1] = counts_[0];
    base_[2] = base_[1] + counts_[1];
    events_.resize(base_[2] + counts_[2]);
}

std::size_t
EffectTrace::slotOf(uarch::Structure s, EntryIndex entry) const
{
    const auto si = static_cast<std::size_t>(s);
    MERLIN_ASSERT(si < 3 && entry < counts_[si],
                  "effect-trace entry out of range");
    return base_[si] + entry;
}

void
EffectTrace::onEffect(uarch::Structure s, EntryIndex entry, Cycle cycle,
                      std::uint8_t byte_mask, bool is_write)
{
    MERLIN_ASSERT(cycle < (1ULL << (64 - kCycleShift)),
                  "effect-trace cycle overflow");
    std::vector<std::uint64_t> &v = events_[slotOf(s, entry)];
    MERLIN_ASSERT(v.empty() || (v.back() >> kCycleShift) <= cycle,
                  "effect-trace events must arrive in cycle order");
    v.push_back((cycle << kCycleShift) |
                (static_cast<std::uint64_t>(byte_mask) << 1) |
                (is_write ? 1u : 0u));
}

FirstTouch
EffectTrace::firstTouch(uarch::Structure s, EntryIndex entry,
                        unsigned bit, Cycle from) const
{
    const std::vector<std::uint64_t> &v = events_[slotOf(s, entry)];
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
    return counts_[static_cast<std::size_t>(s)];
}

std::uint64_t
EffectTrace::numEvents() const
{
    return std::accumulate(events_.begin(), events_.end(),
                           std::uint64_t{0},
                           [](std::uint64_t n, const auto &v) {
                               return n + v.size();
                           });
}

std::uint64_t
EffectTrace::memoryBytes() const
{
    std::uint64_t n = events_.size() * sizeof(events_[0]);
    for (const auto &v : events_)
        n += v.capacity() * sizeof(std::uint64_t);
    return n;
}

} // namespace merlin::replay
