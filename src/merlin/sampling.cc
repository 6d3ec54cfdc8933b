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

namespace
{

/** @p num_entries, once the fault population is known not empty. */
unsigned
populated(unsigned num_entries, Cycle total_cycles)
{
    MERLIN_ASSERT(num_entries > 0 && total_cycles > 0,
                  "empty fault population");
    return num_entries;
}

} // namespace

FaultSampler::FaultSampler(uarch::Structure structure,
                           unsigned num_entries, Cycle total_cycles,
                           const SamplingSpec &spec)
    : structure_(structure), entries_(populated(num_entries, total_cycles)),
      bits_(64), cycles_(total_cycles),
      count_(spec.count(static_cast<double>(num_entries) * 64.0 *
                        static_cast<double>(total_cycles)))
{
}

std::vector<faultsim::Fault>
sampleFaults(uarch::Structure structure, unsigned num_entries,
             Cycle total_cycles, const SamplingSpec &spec, Rng &rng)
{
    const FaultSampler sampler(structure, num_entries, total_cycles, spec);
    std::vector<faultsim::Fault> list;
    list.reserve(sampler.count());
    for (std::uint64_t i = 0; i < sampler.count(); ++i)
        list.push_back(sampler.draw(rng));
    return list;
}

} // namespace merlin::core
