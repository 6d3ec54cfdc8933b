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
 * An injection asks one question of a set of corrupted bytes — the
 * flipped byte at the flip cycle, or the delta a checkpoint diff found
 * (faultsim/runner.hh, "Reconvergence"): starting from cycle T, what
 * is the FIRST recorded event that covers each byte?
 *
 *  - a write: the byte is overwritten with data derived only from
 *    uncorrupted state before anything reads it — it is dead from that
 *    cycle on (valid even for windowed runs);
 *  - none: the byte is never consumed nor rewritten; it cannot show in
 *    a to-completion run, but at a window end it is still compared;
 *  - a read at cycle D: the byte's first architectural consequence.
 *
 * Let D* be the earliest such read over the whole set.  Until D*, the
 * golden run never reads a corrupted byte, so it does exactly what the
 * faulty run does, and the faulty state at any cycle t <= D* is the
 * golden state at t XOR the set, less the bytes written in [T, t).  So
 * full simulation may start from any golden checkpoint in [T, D*] with
 * the surviving bytes XORed in, skipping everything before it.  The
 * written bytes must be dropped, not kept: the golden checkpoint
 * already holds their clean overwrite, and XORing the old corruption
 * onto it would corrupt a value the faulty run never held.  With no D*
 * and no byte left untouched to a window end, nothing corrupted is
 * ever read again: the run's outcome is the golden run's, up to the
 * output bytes it already emitted.
 *
 * Soundness rests on an asymmetry in how the core reports events:
 * reads may be over-reported (a spurious read only ends a skip early,
 * never a wrong outcome), while writes are reported exactly when bytes
 * are overwritten independently of their prior content.
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
