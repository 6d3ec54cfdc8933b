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
 * Draw the initial fault list for @p structure: uniform i.i.d. over
 * entries x 64 bits x [0, total_cycles) flip cycles.
 */
std::vector<faultsim::Fault>
sampleFaults(uarch::Structure structure, unsigned num_entries,
             Cycle total_cycles, const SamplingSpec &spec, Rng &rng);

} // namespace merlin::core

#endif // MERLIN_MERLIN_SAMPLING_HH
