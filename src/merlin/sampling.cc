#include "merlin/sampling.hh"

#include "base/logging.hh"
#include "base/statistics.hh"

namespace merlin::core
{

std::uint64_t
SamplingSpec::count(double population) const
{
    // Compared as doubles: a population past 2^64 has no uint64 value.
    if (fixedCount)
        return population < static_cast<double>(*fixedCount)
                   ? static_cast<std::uint64_t>(population)
                   : *fixedCount;
    return stats::sampleSize(population, errorMargin, confidence);
}

SamplingSpec
spec60k()
{
    return SamplingSpec{0.998, 0.0063, std::nullopt};
}

SamplingSpec
spec600k()
{
    return SamplingSpec{0.998, 0.0019, std::nullopt};
}

SamplingSpec
specFixed(std::uint64_t n)
{
    SamplingSpec s;
    s.fixedCount = n;
    return s;
}

std::vector<faultsim::Fault>
sampleFaults(uarch::Structure structure, unsigned num_entries,
             Cycle total_cycles, const SamplingSpec &spec, Rng &rng)
{
    MERLIN_ASSERT(num_entries > 0 && total_cycles > 0,
                  "empty fault population");
    const double population = static_cast<double>(num_entries) * 64.0 *
                              static_cast<double>(total_cycles);
    const std::uint64_t n = spec.count(population);

    // Thresholds hoisted out of the loop; the draws are exactly those
    // of nextBelow(num_entries), nextBelow(64), nextBelow(total_cycles).
    const Rng::Bound entries(num_entries), bits(64), cycles(total_cycles);
    std::vector<faultsim::Fault> list;
    list.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
        faultsim::Fault f;
        f.structure = structure;
        f.entry = static_cast<EntryIndex>(rng.nextBelow(entries));
        f.bit = static_cast<std::uint8_t>(rng.nextBelow(bits));
        f.cycle = rng.nextBelow(cycles);
        list.push_back(f);
    }
    return list;
}

} // namespace merlin::core
