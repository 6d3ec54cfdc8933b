/**
 * @file
 * Statistical fault sampling (Section 3.1.2, after Leveugle et al. [26]).
 *
 * The exhaustive fault population of a structure is bits x cycles.  A
 * campaign draws a uniform random sample whose size follows from the
 * requested confidence level and error margin; the paper's baselines are
 * 60,000 faults (99.8% confidence, 0.63% margin) and 600,000 faults
 * (99.8%, 0.19%).
 */

#ifndef MERLIN_MERLIN_SAMPLING_HH
#define MERLIN_MERLIN_SAMPLING_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "base/rng.hh"
#include "faultsim/fault.hh"

namespace merlin::core
{

/** How many faults to draw. */
struct SamplingSpec
{
    double confidence = 0.998;
    double errorMargin = 0.0063;
    /** When set, overrides the formula (used for scaled-down benches). */
    std::optional<std::uint64_t> fixedCount;

    /** Sample size for a population of @p population faults. */
    std::uint64_t count(double population) const;

    /** A confidence or error margin: a fraction strictly in (0, 1). */
    static bool
    validFraction(double x)
    {
        return x > 0.0 && x < 1.0;
    }
};

/** The paper's named campaign sizes. */
SamplingSpec spec60k();  ///< 99.8% confidence, 0.63% margin (~60,000)
SamplingSpec spec600k(); ///< 99.8% confidence, 0.19% margin (~600,000)
SamplingSpec specFixed(std::uint64_t n);

/**
 * The initial fault list of @p structure as a generator: count() faults,
 * each drawn by one draw() call, uniform i.i.d. over entries x 64 bits
 * x [0, total_cycles) flip cycles.  A campaign that only counts its
 * faults draws them one at a time instead of storing the list.
 */
class FaultSampler
{
  public:
    FaultSampler(uarch::Structure structure, unsigned num_entries,
                 Cycle total_cycles, const SamplingSpec &spec);

    /** Faults in the list. */
    std::uint64_t count() const { return count_; }

    /**
     * The next fault.  Thresholds are hoisted into the bounds; the
     * draws are exactly those of nextBelow(num_entries),
     * nextBelow(64), nextBelow(total_cycles).
     */
    faultsim::Fault
    draw(Rng &rng) const
    {
        faultsim::Fault f;
        f.structure = structure_;
        f.entry = static_cast<EntryIndex>(rng.nextBelow(entries_));
        f.bit = static_cast<std::uint8_t>(rng.nextBelow(bits_));
        f.cycle = rng.nextBelow(cycles_);
        return f;
    }

  private:
    uarch::Structure structure_;
    Rng::Bound entries_, bits_, cycles_;
    std::uint64_t count_;
};

/** The whole list of a FaultSampler, drawn in order. */
std::vector<faultsim::Fault>
sampleFaults(uarch::Structure structure, unsigned num_entries,
             Cycle total_cycles, const SamplingSpec &spec, Rng &rng);

} // namespace merlin::core

#endif // MERLIN_MERLIN_SAMPLING_HH
