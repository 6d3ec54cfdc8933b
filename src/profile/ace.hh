/**
 * @file
 * ACE-like vulnerable-interval profiler (Section 3.1.1 of the paper).
 *
 * A vulnerable interval of an entry
 *   - starts at a write (or the previous committed read) and
 *   - ends at a committed read of that entry,
 * and is tagged with the RIP and uPC of the micro-op performing the
 * ending read.  Squashed reads never end intervals (Figure 3); physical
 * writes always reset them.  Time after the last read of a value is dead
 * (the next event is a write or nothing), so faults there are masked.
 *
 * A fault flipped at the start of cycle T corrupts interval (start, end]
 * iff start < T <= end.
 */

#ifndef MERLIN_PROFILE_ACE_HH
#define MERLIN_PROFILE_ACE_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <mutex>
#include <span>
#include <vector>

#include "base/types.hh"
#include "uarch/probe.hh"

namespace merlin::profile
{

/** One vulnerable interval of one entry. */
struct VulnerableInterval
{
    Cycle start = 0; ///< exclusive (flip at start is overwritten/read)
    Cycle end = 0;   ///< inclusive (flip at end is consumed by the read)
    Rip rip = 0;     ///< static instruction performing the ending read
    Upc upc = 0;     ///< micro-op within it
    SeqNum endSeq = 0; ///< dynamic instance (commit sequence number)
};

/** All vulnerable intervals of one hardware structure. */
class StructureProfile
{
  public:
    explicit StructureProfile(unsigned num_entries);
    // The index points into the interval lists.
    StructureProfile(const StructureProfile &) = delete;
    StructureProfile &operator=(const StructureProfile &) = delete;

    /**
     * Interval of @p entry containing a flip at cycle @p t, or null.
     * The cycle picks one bucket of the entry's index, which holds a
     * copy of the first interval ending in or after it: that copy
     * decides @p t unless @p t is past its end, and then a binary
     * search runs over the few other intervals ending in the bucket.
     * So a query costs O(1) for evenly spread intervals, and never
     * more than a binary search over the whole list.
     */
    const VulnerableInterval *find(EntryIndex entry, Cycle t) const;

    const std::vector<VulnerableInterval> &
    intervals(EntryIndex entry) const
    {
        return perEntry_[entry];
    }

    unsigned numEntries() const
    {
        return static_cast<unsigned>(perEntry_.size());
    }

    /** Sum of interval lengths over all entries (entry-cycles). */
    std::uint64_t totalVulnerableCycles() const
    {
        return totalVulnerable_;
    }

    /**
     * ACE-like AVF: vulnerable entry-cycles over total entry-cycles.
     * Whole entries are counted vulnerable (no logical-masking credit),
     * which is exactly why this is an upper bound on the injection AVF.
     */
    double aceAvf(Cycle total_cycles) const;

  private:
    friend class AceProfiler;

    /**
     * One entry's cycle buckets: bucket k covers cycles
     * [k << shift, (k + 1) << shift).  shift is the smallest with
     * (last end + 1) >> shift <= the interval count, so an entry has at
     * most one bucket more than it has intervals.
     */
    struct EntryBuckets
    {
        std::uint32_t first = 0; ///< bucket 0's index in buckets_
        std::uint32_t count = 0; ///< 0 for an entry without intervals
        std::uint8_t shift = 0;
    };

    /**
     * A bucket's first interval (the first with end >= k << shift):
     * a copy of its bounds, so most queries read nothing else, and a
     * pointer into the entry's list.
     */
    struct Bucket
    {
        Cycle start;
        Cycle end;
        const VulnerableInterval *first;
    };

    /** Build the bucket index over the finished interval lists. */
    void index();

    /** find()'s range check failing, kept off its inlined path. */
    [[noreturn]] void outOfRange(EntryIndex entry) const;

    std::vector<std::vector<VulnerableInterval>> perEntry_;
    std::vector<EntryBuckets> entryBuckets_;
    /** Every entry's buckets, each run followed by an end marker. */
    std::vector<Bucket> buckets_;
    std::uint64_t totalVulnerable_ = 0;
};

inline const VulnerableInterval *
StructureProfile::find(EntryIndex entry, Cycle t) const
{
    if (entry >= entryBuckets_.size()) [[unlikely]]
        outOfRange(entry);
    const EntryBuckets &eb = entryBuckets_[entry];
    const Cycle k = t >> eb.shift;
    if (k >= eb.count)
        return nullptr; // past the last interval's end
    const Bucket *b = &buckets_[eb.first + k];
    // b[0] is the first interval ending at or after t's bucket; it is
    // the one holding t unless t is past its end.
    if (t <= b[0].end)
        return b[0].start < t ? b[0].first : nullptr;
    // Then the first interval with end >= t lies after it, at or
    // before the next bucket's first (b[1]).  Intervals are sorted
    // and disjoint.
    const VulnerableInterval *it = std::lower_bound(
        b[0].first + 1, b[1].first, t,
        [](const VulnerableInterval &a, Cycle v) { return a.end < v; });
    const auto &iv = perEntry_[entry];
    if (it != iv.data() + iv.size() && it->start < t && t <= it->end)
        return it;
    return nullptr;
}

using uarch::BranchRecord;

/**
 * Sort one entry's events into physical order: by cycle, then stage
 * phase, exact ties in arrival order.  Events arrive nearly in order
 * (a committed read is late by at most its micro-op's time in the
 * ROB), so an insertion sort moves each only a few places.  Once its
 * moves pass eight times the event count it falls back to
 * std::stable_sort, so the worst case stays O(n log n).  Both sorts are
 * stable, so the result is the same either way.
 *
 * @return whether the fallback ran
 */
bool sortPhysical(std::span<uarch::AceEvent> events);

/**
 * The profiler: attach to a Core as its recorder for the golden run,
 * then finalize() once the run ends.  A campaign reads one structure,
 * so each structure's events are sorted into interval lists only on
 * its first profile() query; the events are freed once built.
 */
class AceProfiler : public uarch::Probe
{
  public:
    /** Entry counts: physical registers, SQ slots, L1D 8-byte words. */
    AceProfiler(unsigned rf_entries, unsigned sq_entries,
                unsigned l1d_words);

    /**
     * End recording; call exactly once, after the golden run.  The
     * interval lists are built per structure by profile().
     */
    void finalize();

    /**
     * Intervals of @p s, built on the first query for @p s (safe from
     * any number of threads).
     */
    const StructureProfile &profile(uarch::Structure s) const;

    /** Committed conditional-branch trace, ordered by sequence number. */
    const std::vector<BranchRecord> &branchTrace() const
    {
        return branches_;
    }

    /**
     * Control-flow path signature of depth @p depth following dynamic
     * instance @p seq (Relyzer's control-equivalence key).
     */
    std::uint64_t pathSignature(SeqNum seq, unsigned depth = 5) const;

  private:
    /**
     * Sort @p s's events into its interval lists, then free them and
     * index the lists.  Each entry's events are ordered by (cycle,
     * phase), exact ties in arrival order: a stable counting sort by
     * entry, then sortPhysical() per entry.  Linear in the events when
     * each arrives at most a few places late.  The counting sort
     * gathers one range of entries at a time, so its scratch holds at
     * most half the events (or the largest entry's, if more); an
     * entry sorted by the fallback adds a buffer of half its events.
     */
    void build(uarch::Structure s) const;

    bool finalized_ = false;
    mutable std::array<std::once_flag, 3> built_;
    mutable std::array<std::vector<uarch::AceEvent>, 3> pending_;
    mutable std::array<StructureProfile, 3> profiles_;
};

} // namespace merlin::profile

#endif // MERLIN_PROFILE_ACE_HH
