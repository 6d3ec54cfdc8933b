/**
 * @file
 * Golden-run effect trace: the record that powers the replay fast path.
 *
 * The golden run's recorder (uarch::Probe) keeps an effect view of the
 * run: every physical touch of a target-structure byte (reads at
 * consumption time, writes at overwrite time — wrong-path and
 * scheduling accesses included) as one packed event per (structure,
 * entry).  After the run the trace takes those streams over.
 *
 * An injection then asks one question: starting from the flip cycle,
 * what is the FIRST recorded event that covers the flipped byte?
 *
 *  - none, and the run is not windowed: the byte is never consumed nor
 *    rewritten, so the faulty run's observable behaviour is the golden
 *    run's — Masked without simulating a single cycle;
 *  - a write: the flip is overwritten with data derived only from
 *    un-flipped state before anything reads it — the fault is dead,
 *    Masked (valid even for windowed runs);
 *  - a read at cycle D: the flip's first architectural consequence is
 *    at D, so full simulation can start from any golden checkpoint in
 *    [flip, D] with the flip applied at restore, skipping the whole
 *    pre-divergence head.
 *
 * Soundness rests on an asymmetry in how the core reports events:
 * reads may be over-reported (a spurious read only costs a handoff
 * into full simulation, never a wrong outcome), while writes are
 * reported exactly when bytes are overwritten independently of their
 * prior content.
 */

#ifndef MERLIN_REPLAY_TRACE_HH
#define MERLIN_REPLAY_TRACE_HH

#include <cstdint>
#include <vector>

#include "base/types.hh"
#include "uarch/probe.hh"

namespace merlin::replay
{

/** How (and when) the golden run first touches a flipped byte. */
enum class Touch : std::uint8_t
{
    None,     ///< never touched at or after the flip cycle
    Killed,   ///< first touch overwrites it: the fault cannot propagate
    Diverged, ///< first touch reads it: first architectural consequence
};

struct FirstTouch
{
    Touch kind = Touch::None;
    Cycle cycle = 0; ///< cycle of the deciding event (Killed/Diverged)
};

/**
 * The golden run's effect streams (uarch::EffectStreams for the
 * packing), queried per flip.  Events of one entry are in nondecreasing
 * cycle order, so the divergence query is a binary search to the flip
 * cycle plus a linear scan for the first covering byte mask.
 */
class EffectTrace
{
  public:
    explicit EffectTrace(uarch::EffectStreams streams);

    /**
     * First recorded event at cycle >= @p from that covers the byte
     * holding @p bit of @p entry.
     */
    FirstTouch firstTouch(uarch::Structure s, EntryIndex entry,
                          unsigned bit, Cycle from) const;

    /** Entry count recorded for @p s. */
    unsigned entries(uarch::Structure s) const;

    /** The packed events of one entry, in recording order. */
    const std::vector<std::uint64_t> &
    events(uarch::Structure s, EntryIndex entry) const
    {
        return s_.streams[s_.slot(s, entry)];
    }

    std::uint64_t numEvents() const;

    /** Approximate heap footprint of the recorded events. */
    std::uint64_t memoryBytes() const;

  private:
    uarch::EffectStreams s_;
};

} // namespace merlin::replay

#endif // MERLIN_REPLAY_TRACE_HH
