/**
 * @file
 * The golden-run recorder: one concrete sink the core writes to.
 *
 * MeRLiN's preprocessing is a single profiled golden run (Section
 * 3.1.1).  The core reports every touch of the three target structures
 * straight into a Probe, one inline call per site; injection runs carry
 * no Probe, so their hot path pays one null check per site.  The Probe
 * keeps two views of the run in plain vectors:
 *
 *  - the ACE view, from which profile::AceProfiler builds vulnerable
 *    intervals (semantics of the paper's Figure 3):
 *     - writes are *physical*: they are recorded whenever storage is
 *       overwritten, including by wrong-path uops and cache fills;
 *     - reads are *committed*: the core buffers each uop's reads and
 *       reports them only if the uop commits, discarding them on
 *       squash.  Cache write-backs and store drains are the exception:
 *       the data leaves the structure then, so they are reported at
 *       once, with the RIP/uPC/seq of the access that caused them;
 *     - the committed conditional branches (Relyzer's path key).
 *  - the effect view, from which replay::EffectTrace answers "what
 *    first touches this flipped byte?"  Recorded only on request
 *    (recordEffects()).  Every *physical* touch lands here the moment
 *    it happens, wrong-path, scheduling and squashed accesses
 *    included.  Reads may be over-reported (a spurious read only costs
 *    a handoff into full simulation), but a write is recorded exactly
 *    when the bytes are overwritten with data independent of their
 *    prior content.  That asymmetry makes the trace a sound divergence
 *    detector.
 *
 * A physical write feeds both views in one call.
 */

#ifndef MERLIN_UARCH_PROBE_HH
#define MERLIN_UARCH_PROBE_HH

#include <array>
#include <cstdint>
#include <vector>

#include "base/logging.hh"
#include "base/types.hh"
#include "uarch/config.hh"

namespace merlin::uarch
{

/** Structures MeRLiN targets (the paper's RF, SQ data field, L1D data). */
enum class Structure : std::uint8_t
{
    RegisterFile, ///< physical integer register file (64-bit entries)
    StoreQueue,   ///< store queue data field (8-byte entries)
    L1DCache,     ///< L1 data cache data array (8-byte word entries)
};

const char *structureName(Structure s);

/** Fault-injection entries of @p s on @p cfg (registers, SQ slots or
 *  L1D words; 64 bits each). */
unsigned structureEntries(Structure s, const CoreConfig &cfg);

/**
 * Intra-cycle ordering of storage events.  An injected flip lands at the
 * very start of a cycle; stages then run drain -> writeback -> issue, so
 * two events in the same cycle are physically ordered by these phase
 * numbers.  The profiler sorts per-entry events by (cycle, phase).
 */
namespace phase
{
constexpr std::uint8_t Init = 0;        ///< initial state (cycle 0)
constexpr std::uint8_t SqDrainRead = 1; ///< drain reads the SQ data field
constexpr std::uint8_t L1dDrainWbRead = 2;
constexpr std::uint8_t L1dDrainWrite = 3;
constexpr std::uint8_t RegWrite = 4;    ///< writeback writes the PRF
constexpr std::uint8_t RegRead = 5;     ///< issue reads operands
constexpr std::uint8_t SqWrite = 6;     ///< store execute fills its slot
constexpr std::uint8_t SqForwardRead = 7;
constexpr std::uint8_t L1dIssueWbRead = 8;
constexpr std::uint8_t L1dIssueWrite = 9; ///< fill during a load miss
constexpr std::uint8_t L1dLoadRead = 10;
} // namespace phase

/** One ACE-view event of one entry: a physical write or committed read. */
struct AceEvent
{
    Cycle cycle;
    Rip rip;   ///< reader's RIP (reads only)
    SeqNum seq; ///< reader's commit sequence number (reads only)
    EntryIndex entry;
    Upc upc;   ///< reader's uPC (reads only)
    std::uint8_t phase;
    bool isRead;
};

/** A committed conditional branch (Relyzer control-path heuristic). */
struct BranchRecord
{
    SeqNum seq = 0;
    Rip rip = 0;
    bool taken = false;
};

/**
 * The effect view: one stream of packed events per (structure, entry).
 *
 * Event packing: cycle << kCycleShift | byte_mask << 1 | is_write,
 * where bit i of byte_mask is byte i of the 8-byte entry.  Events of
 * one entry are appended in nondecreasing cycle order, and within a
 * cycle in physical stage order.
 */
struct EffectStreams
{
    /** Cycle budget of the packing (55 bits of cycle). */
    static constexpr unsigned kCycleShift = 9;

    /** Entry counts per structure, indexed by Structure value. */
    std::array<std::uint32_t, 3> counts{};
    /** streams offset of each structure's first entry. */
    std::array<std::size_t, 3> base{};
    std::vector<std::vector<std::uint64_t>> streams;

    EffectStreams() = default;
    EffectStreams(unsigned rf_entries, unsigned sq_entries,
                  unsigned l1d_words);

    std::size_t
    slot(Structure s, EntryIndex entry) const
    {
        const auto si = static_cast<std::size_t>(s);
        MERLIN_ASSERT(si < 3 && entry < counts[si],
                      "effect-stream entry out of range");
        return base[si] + entry;
    }
};

/** The golden-run recorder (see the file comment). */
class Probe
{
  public:
    /**
     * Entry counts: physical registers, SQ slots, L1D 8-byte words.
     * @p ace records the ACE view; the effect view is off until
     * recordEffects().
     */
    Probe(unsigned rf_entries, unsigned sq_entries, unsigned l1d_words,
          bool ace = true);

    /** Also record the effect view (before the run starts). */
    void
    recordEffects()
    {
        effects_ = EffectStreams(counts_[0], counts_[1], counts_[2]);
        recordingEffects_ = true;
    }

    // ---- written by the core ----

    /** Storage overwritten: both views. */
    void
    write(Structure s, EntryIndex entry, Cycle cycle, std::uint8_t ph,
          std::uint8_t mask)
    {
        if (ace_)
            events_[idx(s)].push_back(
                AceEvent{cycle, 0, 0, entry, 0, ph, false});
        if (recordingEffects_)
            effect(s, entry, cycle, mask, true);
    }

    /** Initial state at cycle 0: the ACE view only (not replayable). */
    void
    initWrite(Structure s, EntryIndex entry)
    {
        if (ace_)
            events_[idx(s)].push_back(
                AceEvent{0, 0, 0, entry, 0, phase::Init, false});
    }

    /** A read that is committed as it happens: both views. */
    void
    read(Structure s, EntryIndex entry, Cycle cycle, std::uint8_t ph,
         Rip rip, Upc upc, SeqNum seq, std::uint8_t mask)
    {
        committedRead(s, entry, cycle, ph, rip, upc, seq);
        physicalRead(s, entry, cycle, mask);
    }

    /**
     * A buffered read whose uop committed: the ACE view only.
     * @p cycle is when the bits were consumed, not the commit time.
     */
    void
    committedRead(Structure s, EntryIndex entry, Cycle cycle,
                  std::uint8_t ph, Rip rip, Upc upc, SeqNum seq)
    {
        if (ace_)
            events_[idx(s)].push_back(
                AceEvent{cycle, rip, seq, entry, upc, ph, true});
    }

    /** A physical read, committed or not: the effect view only. */
    void
    physicalRead(Structure s, EntryIndex entry, Cycle cycle,
                 std::uint8_t mask)
    {
        if (recordingEffects_)
            effect(s, entry, cycle, mask, false);
    }

    /** A committed conditional branch resolved @p taken. */
    void
    branch(Rip rip, bool taken, SeqNum seq)
    {
        if (ace_)
            branches_.push_back(BranchRecord{seq, rip, taken});
    }

    // ---- read by the consumers ----

    unsigned entries(Structure s) const { return counts_[idx(s)]; }

    /** ACE-view events of @p s, in arrival order. */
    const std::vector<AceEvent> &
    events(Structure s) const
    {
        return events_[idx(s)];
    }

    /** Move the effect view out (recording stops). */
    EffectStreams takeEffects();

  protected:
    static std::size_t
    idx(Structure s)
    {
        return static_cast<std::size_t>(s);
    }

    std::array<std::vector<AceEvent>, 3> events_;
    std::vector<BranchRecord> branches_;

  private:
    void
    effect(Structure s, EntryIndex entry, Cycle cycle, std::uint8_t mask,
           bool is_write)
    {
        constexpr unsigned shift = EffectStreams::kCycleShift;
        MERLIN_ASSERT(cycle < (1ULL << (64 - shift)),
                      "effect-stream cycle overflow");
        std::vector<std::uint64_t> &v =
            effects_.streams[effects_.slot(s, entry)];
        MERLIN_ASSERT(v.empty() || (v.back() >> shift) <= cycle,
                      "effect events must arrive in cycle order");
        v.push_back((cycle << shift) |
                    (static_cast<std::uint64_t>(mask) << 1) |
                    (is_write ? 1u : 0u));
    }

    std::array<std::uint32_t, 3> counts_;
    bool ace_;
    bool recordingEffects_ = false;
    EffectStreams effects_;
};

} // namespace merlin::uarch

#endif // MERLIN_UARCH_PROBE_HH
