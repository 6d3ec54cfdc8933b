/**
 * @file
 * MeRLiN's fault-list reduction (Section 3.2): the two-step grouping
 * algorithm, representative selection, and the Relyzer-style
 * control-equivalence baseline of Section 4.4.4.
 *
 * Step 0 (ACE-like prune): faults outside any vulnerable interval are
 * classified Masked with no injection.
 * Step 1: surviving faults are grouped by the (RIP, uPC) of the committed
 * read ending their interval.
 * Step 2: each group splits by byte position within the entry; oversized
 * subgroups split further round-robin across dynamic instances so
 * representatives retain time diversity.  One representative per final
 * group is injected; the group inherits its outcome.
 */

#ifndef MERLIN_MERLIN_GROUPING_HH
#define MERLIN_MERLIN_GROUPING_HH

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "base/rng.hh"
#include "faultsim/fault.hh"
#include "profile/ace.hh"

namespace merlin::core
{

/** A fault that survived the ACE-like prune, with its interval tags. */
struct TaggedFault
{
    faultsim::Fault fault;
    Rip rip = 0;       ///< static instruction ending the interval
    Upc upc = 0;       ///< micro-op within it
    SeqNum endSeq = 0; ///< dynamic instance of the ending read
    Cycle intervalStart = 0; ///< identifies the dynamic interval
};

/** One final group (after both steps). */
struct FaultGroup
{
    Rip rip = 0;
    Upc upc = 0;
    std::uint8_t byte = 0;            ///< 255 when byte-split disabled
    std::vector<std::uint32_t> members; ///< indices into tagged list
    /**
     * Injected members (paper: exactly one).  With repsPerGroup > 1 the
     * group outcome is the majority vote over these — an extension that
     * trades injections for robustness to an unlucky pick.
     */
    std::vector<std::uint32_t> representatives;

    std::uint32_t
    representative() const
    {
        return representatives.front();
    }
};

/** Knobs of the reduction (ablation targets). */
struct GroupingOptions
{
    enum class Split : std::uint8_t
    {
        None,   ///< step 2 disabled (ablation)
        Byte,   ///< the paper's choice
        Nibble, ///< finer split the paper deems unnecessary (ablation)
        Bit,    ///< per-bit groups: the no-aliasing extreme (ablation)
    };
    Split split = Split::Byte;
    /** Subgroups larger than this split across dynamic instances. */
    unsigned maxGroupSize = 100;
    /** Representatives injected per group (1 = the paper's choice). */
    unsigned repsPerGroup = 1;

    /** Step 2's sub-key of a fault at bit position @p bit. */
    std::uint8_t
    subKey(std::uint8_t bit) const
    {
        switch (split) {
          case Split::None:
            return 255;
          case Split::Byte:
            return bit / 8;
          case Split::Nibble:
            return bit / 4;
          case Split::Bit:
            return bit;
        }
        return 255;
    }
};

/** Result of the full fault-list reduction. */
struct GroupingResult
{
    std::vector<TaggedFault> survivors; ///< faults in vulnerable intervals
    std::uint64_t aceMasked = 0;        ///< pruned without injection
    std::vector<FaultGroup> groups;     ///< partition of `survivors`

    std::uint64_t
    numInjections() const
    {
        std::uint64_t n = 0;
        for (const auto &g : groups)
            n += g.representatives.size();
        return n;
    }
};

/**
 * The fault-list reduction one fault at a time.  add() looks a fault up
 * once: step 0 counts it ACE-masked, or it survives and is tallied under
 * its group key (step 1's (RIP, uPC) and step 2's split sub-key), and
 * its TaggedFault is kept when the reducer was asked to keep survivors.
 *
 * The tallies alone give the counts groupFaults' groups have: per key
 * of n survivors, ceil(n / maxGroupSize) round-robin chunks, each with
 * min(repsPerGroup, chunk size) representatives.  So a campaign that
 * only counts needs neither the fault list nor the groups; group() and
 * relyzerGroup() build the groups from the kept survivors.
 */
class FaultReducer
{
  public:
    FaultReducer(const profile::StructureProfile &profile,
                 const GroupingOptions &opts, bool keep_survivors);

    /** Prune or tally one fault. */
    void
    add(const faultsim::Fault &f)
    {
        const profile::VulnerableInterval *iv =
            profile_.find(f.entry, f.cycle);
        if (!iv) {
            ++aceMasked_;
            return;
        }
        ++survivors_;
        ++tallies_[Key{iv->rip, iv->upc, opts_.subKey(f.bit)}];
        if (keep_)
            kept_.push_back(
                TaggedFault{f, iv->rip, iv->upc, iv->endSeq, iv->start});
    }

    std::uint64_t aceMasked() const { return aceMasked_; }
    std::uint64_t survivors() const { return survivors_; }
    /** Groups groupFaults would form over the added faults. */
    std::uint64_t numGroups() const;
    /** Representatives those groups would hold. */
    std::uint64_t numInjections() const;

    /**
     * The two-step grouping of the kept survivors (in the order they
     * were added); @p rng only breaks representative-selection ties.
     */
    GroupingResult group(Rng &rng) &&;

    /** Relyzer's grouping of the kept survivors (relyzerGroupFaults). */
    GroupingResult relyzerGroup(const profile::AceProfiler &profiler,
                                unsigned path_depth, Rng &rng) &&;

  private:
    /** A group key at full width: no two keys share a tally. */
    struct Key
    {
        Rip rip;
        Upc upc;
        std::uint8_t sub;

        bool
        operator==(const Key &o) const
        {
            return rip == o.rip && upc == o.upc && sub == o.sub;
        }
    };

    struct KeyHash
    {
        std::size_t operator()(const Key &k) const noexcept;
    };

    /** Survivors kept for group()/relyzerGroup(), with the prune count. */
    GroupingResult taken();

    const profile::StructureProfile &profile_;
    GroupingOptions opts_;
    bool keep_;
    std::uint64_t aceMasked_ = 0;
    std::uint64_t survivors_ = 0;
    /** Survivors per group key. */
    std::unordered_map<Key, std::uint64_t, KeyHash> tallies_;
    std::vector<TaggedFault> kept_;
};

/**
 * Run the ACE-like prune plus the two-step grouping over @p faults.
 * @p rng only breaks representative-selection ties (deterministic
 * given the seed).
 */
GroupingResult groupFaults(const std::vector<faultsim::Fault> &faults,
                           const profile::StructureProfile &profile,
                           const GroupingOptions &opts, Rng &rng);

/**
 * Relyzer's control-equivalence heuristic transplanted to this setting:
 * group survivors by (RIP of the ending read, depth-5 control-flow path
 * of the dynamic instance) and pick ONE random pilot per group,
 * regardless of byte position (Section 4.4.4).
 */
GroupingResult relyzerGroupFaults(
    const std::vector<faultsim::Fault> &faults,
    const profile::StructureProfile &profile,
    const profile::AceProfiler &profiler, unsigned path_depth, Rng &rng);

} // namespace merlin::core

#endif // MERLIN_MERLIN_GROUPING_HH
