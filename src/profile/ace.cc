#include "profile/ace.hh"

#include <algorithm>

#include "base/logging.hh"

namespace merlin::profile
{

using uarch::Structure;

StructureProfile::StructureProfile(unsigned num_entries)
    : perEntry_(num_entries)
{
}

const VulnerableInterval *
StructureProfile::find(EntryIndex entry, Cycle t) const
{
    MERLIN_ASSERT(entry < perEntry_.size(), "entry out of range");
    const auto &iv = perEntry_[entry];
    // First interval with end >= t; intervals are sorted and disjoint.
    auto it = std::lower_bound(
        iv.begin(), iv.end(), t,
        [](const VulnerableInterval &a, Cycle v) { return a.end < v; });
    if (it != iv.end() && it->start < t && t <= it->end)
        return &*it;
    return nullptr;
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

void
AceProfiler::build(Structure s) const
{
    std::vector<uarch::AceEvent> &evs = pending_[idx(s)];
    StructureProfile &prof = profiles_[idx(s)];

    // Committed reads arrive at commit time, out of physical order;
    // restore it.  stable_sort keeps arrival order for exact ties.
    std::stable_sort(evs.begin(), evs.end(),
                     [](const uarch::AceEvent &a, const uarch::AceEvent &b) {
                         if (a.entry != b.entry)
                             return a.entry < b.entry;
                         if (a.cycle != b.cycle)
                             return a.cycle < b.cycle;
                         return a.phase < b.phase;
                     });

    EntryIndex cur = ~EntryIndex(0);
    Cycle last = 0;
    for (const uarch::AceEvent &e : evs) {
        if (e.entry != cur) {
            cur = e.entry;
            last = 0; // implicit initial write at cycle 0
        }
        if (e.isRead && e.cycle > last) {
            prof.perEntry_[e.entry].push_back(
                VulnerableInterval{last, e.cycle, e.rip, e.upc, e.seq});
            prof.totalVulnerable_ += e.cycle - last;
        }
        last = e.cycle;
    }
    evs.clear();
    evs.shrink_to_fit();
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
