#include "profile/ace.hh"

#include <algorithm>

#include "base/logging.hh"

namespace merlin::profile
{

using uarch::Structure;

StructureProfile::StructureProfile(unsigned num_entries)
    : perEntry_(num_entries), entryBuckets_(num_entries)
{
}

void
StructureProfile::outOfRange(EntryIndex entry) const
{
    panic("entry ", entry, " out of range (", perEntry_.size(),
          " entries)");
}

void
StructureProfile::index()
{
    std::size_t size = 0;
    for (const auto &iv : perEntry_)
        size += iv.empty() ? 0 : iv.size() + 2;
    MERLIN_ASSERT(size <= UINT32_MAX, "too many intervals to index");
    buckets_.reserve(size);
    for (std::size_t e = 0; e < perEntry_.size(); ++e) {
        const auto &iv = perEntry_[e];
        EntryBuckets &eb = entryBuckets_[e];
        if (iv.empty())
            continue;
        const Cycle last = iv.back().end;
        MERLIN_ASSERT(last < ~Cycle(0), "interval ends at the last cycle");
        while (((last + 1) >> eb.shift) > iv.size())
            ++eb.shift;
        eb.first = static_cast<std::uint32_t>(buckets_.size());
        eb.count = static_cast<std::uint32_t>((last >> eb.shift) + 1);
        std::uint32_t i = 0;
        for (Cycle k = 0; k < eb.count; ++k) {
            // Bucket k starts at or below the last end, so i stays
            // inside the list.
            while (iv[i].end < (k << eb.shift))
                ++i;
            buckets_.push_back(Bucket{iv[i].start, iv[i].end, &iv[i]});
        }
        buckets_.push_back(Bucket{0, 0, iv.data() + iv.size()});
    }
}

double
StructureProfile::aceAvf(Cycle total_cycles) const
{
    if (total_cycles == 0 || perEntry_.empty())
        return 0.0;
    return static_cast<double>(totalVulnerable_) /
           (static_cast<double>(perEntry_.size()) *
            static_cast<double>(total_cycles));
}

AceProfiler::AceProfiler(unsigned rf_entries, unsigned sq_entries,
                         unsigned l1d_words)
    : Probe(rf_entries, sq_entries, l1d_words),
      profiles_{StructureProfile(rf_entries), StructureProfile(sq_entries),
                StructureProfile(l1d_words)}
{
}

const StructureProfile &
AceProfiler::profile(Structure s) const
{
    MERLIN_ASSERT(finalized_, "profile queried before finalize()");
    std::call_once(built_[idx(s)], [this, s] { build(s); });
    return profiles_[idx(s)];
}

void
AceProfiler::finalize()
{
    MERLIN_ASSERT(!finalized_, "finalize() called twice");
    finalized_ = true;
    pending_.swap(events_);
}

namespace
{

/** Physical order of one entry's events: cycle, then stage phase. */
bool
earlier(const uarch::AceEvent &a, const uarch::AceEvent &b)
{
    return a.cycle != b.cycle ? a.cycle < b.cycle : a.phase < b.phase;
}

} // namespace

bool
sortPhysical(std::span<uarch::AceEvent> events)
{
    const std::size_t budget = 8 * events.size();
    std::size_t moves = 0;
    for (std::size_t i = 1; i < events.size(); ++i) {
        if (!earlier(events[i], events[i - 1]))
            continue;
        // Shift the strictly later events up one place: ties keep
        // their arrival order.
        const uarch::AceEvent e = events[i];
        std::size_t j = i;
        do {
            events[j] = events[j - 1];
            --j;
        } while (j > 0 && earlier(e, events[j - 1]));
        events[j] = e;
        moves += i - j;
        if (moves > budget) {
            // The prefix is sorted stably and precedes the rest, so
            // this sorts exactly as it would have from the start.
            std::stable_sort(events.begin(), events.end(), earlier);
            return true;
        }
    }
    return false;
}

void
AceProfiler::build(Structure s) const
{
    std::vector<uarch::AceEvent> &evs = pending_[idx(s)];
    StructureProfile &prof = profiles_[idx(s)];
    const EntryIndex entries = prof.numEntries();

    // A stable counting sort by entry, gathered one range of entries
    // at a time (one pass over the events each) into a scratch buffer
    // of at most half the events, or of the largest entry's.
    std::vector<std::size_t> count(entries);
    for (const uarch::AceEvent &e : evs)
        ++count[e.entry];
    std::size_t cap = (evs.size() + 1) / 2;
    for (std::size_t c : count)
        cap = std::max(cap, c);
    std::vector<uarch::AceEvent> range;
    range.reserve(cap);
    std::vector<std::size_t> next(entries);
    for (EntryIndex lo = 0, hi = 0; lo < entries; lo = hi) {
        std::size_t n = 0;
        for (; hi < entries && n + count[hi] <= cap; ++hi) {
            next[hi] = n;
            n += count[hi];
        }
        range.resize(n);
        for (const uarch::AceEvent &e : evs) {
            if (e.entry >= lo && e.entry < hi)
                range[next[e.entry]++] = e;
        }

        auto first = range.begin();
        for (EntryIndex entry = lo; entry < hi; ++entry) {
            const auto end =
                first + static_cast<std::ptrdiff_t>(count[entry]);
            // Committed reads arrive at commit time, out of physical
            // order; restore it.
            sortPhysical({first, end});
            Cycle last = 0; // implicit initial write at cycle 0
            for (; first != end; ++first) {
                const uarch::AceEvent &e = *first;
                if (e.isRead && e.cycle > last) {
                    prof.perEntry_[entry].push_back(VulnerableInterval{
                        last, e.cycle, e.rip, e.upc, e.seq});
                    prof.totalVulnerable_ += e.cycle - last;
                }
                last = e.cycle;
            }
        }
    }
    evs.clear();
    evs.shrink_to_fit();
    prof.index();
}

std::uint64_t
AceProfiler::pathSignature(SeqNum seq, unsigned depth) const
{
    // First committed branch strictly younger than the reader.
    auto it = std::upper_bound(branches_.begin(), branches_.end(), seq,
                               [](SeqNum v, const BranchRecord &b) {
                                   return v < b.seq;
                               });
    // FNV-1a over the next `depth` (rip, taken) pairs.
    std::uint64_t h = 1469598103934665603ULL;
    auto mix = [&h](std::uint64_t v) {
        h ^= v;
        h *= 1099511628211ULL;
    };
    for (unsigned i = 0; i < depth && it != branches_.end(); ++i, ++it) {
        mix(it->rip);
        mix(it->taken ? 0x9e37u : 0x79b9u);
    }
    return h;
}

} // namespace merlin::profile
