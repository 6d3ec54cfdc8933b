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

#include <array>
#include <cstdint>
#include <mutex>
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

    /** Interval of @p entry containing a flip at cycle @p t, or null. */
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
    std::vector<std::vector<VulnerableInterval>> perEntry_;
    std::uint64_t totalVulnerable_ = 0;
};

using uarch::BranchRecord;

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
    /** Sort @p s's events into its interval lists, then free them. */
    void build(uarch::Structure s) const;

    bool finalized_ = false;
    mutable std::array<std::once_flag, 3> built_;
    mutable std::array<std::vector<uarch::AceEvent>, 3> pending_;
    mutable std::array<StructureProfile, 3> profiles_;
};

} // namespace merlin::profile

#endif // MERLIN_PROFILE_ACE_HH
