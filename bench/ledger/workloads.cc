/**
 * @file
 * The four ledger workloads.  Why each exists (see README.md):
 *
 *   paper_estimate   the paper's headline flow, every layer in
 *                    production proportion (injection ~88% serially);
 *   truth_sweep      injection-dominated (~95%): every ACE survivor is
 *                    injected, so an injection change shows here and a
 *                    golden or grouping change must not;
 *   reduction_sweep  zero injections: golden run, sampling and
 *                    grouping only, so an injection change must not
 *                    move it;
 *   service_mixed    the only workload on the wire layer and daemon
 *                    sessions: warm store reads meet cold saves.
 *
 * Every input is a function of the seed: the fault lists are sampled
 * from it, the programs are the bundled workloads.  Each measured unit
 * takes a few seconds, so one run takes the median of several: the
 * host's speed drifts by several percent over tens of seconds.  The
 * repetitions cycle through kInputSets input sets, so that median also
 * averages over inputs instead of riding on one sample of faults.
 */

#include <algorithm>

#include "base/logging.hh"
#include "ledger.hh"
#include "workloads/workloads.hh"

namespace ledger
{

namespace
{

using merlin::uarch::Structure;

constexpr Structure kStructures[] = {Structure::RegisterFile,
                                     Structure::StoreQueue,
                                     Structure::L1DCache};

CampaignSpec
baseSpec(const std::string &workload, Structure s, std::uint64_t faults,
         CampaignSpec::Mode mode, std::uint64_t seed)
{
    CampaignSpec spec;
    spec.workload = workload;
    spec.structure = s;
    spec.sampling = merlin::core::specFixed(faults);
    spec.mode = mode;
    spec.seed = seed;
    return spec;
}

bool
isSpec(const std::string &workload)
{
    const auto &spec = merlin::workloads::specWorkloads();
    return std::find(spec.begin(), spec.end(), workload) != spec.end();
}

/**
 * The paper's estimate grid: MiBench on the default core, SPEC on the
 * Section 4.4.2.3 core (128 registers, 16-entry SQ, 32 KB L1D) at its
 * suggested instruction window.
 */
std::vector<CampaignSpec>
estimateGrid(const std::vector<std::string> &names, std::uint64_t faults,
             std::uint64_t seed)
{
    std::vector<CampaignSpec> specs;
    for (const std::string &w : names) {
        for (Structure s : kStructures) {
            CampaignSpec spec = baseSpec(w, s, faults,
                                         CampaignSpec::Mode::Estimate,
                                         seed);
            if (isSpec(w)) {
                spec.regs = 128;
                spec.sqEntries = 16;
                spec.l1dKb = 32;
            }
            specs.push_back(std::move(spec));
        }
    }
    return specs;
}

/** Every other program of @p names (a measured repetition must stay a
 *  few seconds long, so a run can take the median of several). */
std::vector<std::string>
half(const std::vector<std::string> &names)
{
    std::vector<std::string> out;
    for (std::size_t i = 0; i < names.size(); i += 2)
        out.push_back(names[i]);
    return out;
}

std::vector<std::string>
mibench()
{
    return merlin::workloads::mibenchWorkloads();
}

/** Half of MiBench and half of SPEC. */
std::vector<std::string>
halfSuite()
{
    std::vector<std::string> out = half(mibench());
    for (const std::string &w : half(merlin::workloads::specWorkloads()))
        out.push_back(w);
    return out;
}

// The smoke copies keep every code path of their full workload on two
// programs and small fault lists, for a ctest under 10 s.
std::vector<std::string>
smokeNames()
{
    return {"qsort", "bzip2"};
}

std::vector<std::string>
smokeMibench()
{
    return {"qsort", "sha"};
}

/** The measured campaigns of workload @p name for one campaign seed. */
std::vector<CampaignSpec>
measuredSpecs(const std::string &name, std::uint64_t seed, bool smoke)
{
    std::vector<CampaignSpec> specs;
    if (name == "paper_estimate") {
        specs = estimateGrid(smoke ? smokeNames() : halfSuite(),
                             smoke ? 2'000 : 60'000, seed);
    } else if (name == "truth_sweep") {
        // The MiBench programs whose golden run is under 30,000 cycles.
        // A sweep costs survivors x golden length, so on the long ones a
        // few dozen sampled survivors would set the run time, and their
        // count swings with the seed.
        const std::vector<std::string> shortRuns = {
            "fft", "sha", "caes", "susan_s", "qsort", "stringsearch",
            "susan_e"};
        for (const std::string &wl : smoke ? smokeMibench() : shortRuns) {
            for (Structure s : kStructures)
                specs.push_back(baseSpec(wl, s, smoke ? 300 : 12'000,
                                         CampaignSpec::Mode::Truth, seed));
        }
    } else if (name == "reduction_sweep") {
        // Table 1's nine size variants: three per target structure.
        struct Variant
        {
            Structure s;
            unsigned size;
        };
        const Variant variants[] = {
            {Structure::RegisterFile, 256}, {Structure::RegisterFile, 128},
            {Structure::RegisterFile, 64},  {Structure::StoreQueue, 64},
            {Structure::StoreQueue, 32},    {Structure::StoreQueue, 16},
            {Structure::L1DCache, 64},      {Structure::L1DCache, 32},
            {Structure::L1DCache, 16},
        };
        for (const std::string &wl : smoke ? smokeNames() : halfSuite()) {
            for (const Variant &v : variants) {
                CampaignSpec spec =
                    baseSpec(wl, v.s, smoke ? 20'000 : 600'000,
                             CampaignSpec::Mode::GroupingOnly, seed);
                switch (v.s) {
                  case Structure::RegisterFile: spec.regs = v.size; break;
                  case Structure::StoreQueue: spec.sqEntries = v.size; break;
                  case Structure::L1DCache: spec.l1dKb = v.size; break;
                }
                specs.push_back(std::move(spec));
            }
        }
    } else if (name == "service_mixed") {
        specs = estimateGrid(smoke ? smokeMibench() : half(mibench()),
                             smoke ? 2'000 : 60'000, seed);
    } else {
        merlin::fatal("unknown workload '", name, "' (use paper_estimate |"
                      " truth_sweep | reduction_sweep | service_mixed)");
    }
    return specs;
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "paper_estimate", "truth_sweep", "reduction_sweep",
        "service_mixed"};
    return names;
}

Workload
makeWorkload(const std::string &name, std::uint64_t seed, bool smoke)
{
    Workload w;
    w.name = name;
    w.service = name == "service_mixed";
    w.onDiskStore = name == "paper_estimate";
    if (w.service) {
        w.warm = estimateGrid(
            smoke ? smokeNames() : merlin::workloads::allWorkloadNames(),
            smoke ? 500 : 2'000, seed);
        w.rate = smoke ? 500.0 : 2'000.0;
    }
    for (unsigned j = 0; j < kInputSets; ++j) {
        // The service sweep is offset by one so that it never shares a
        // seed with the warm set.
        const std::uint64_t campaignSeed =
            seed + j * kSetStride + (w.service ? 1 : 0);
        w.sets.push_back(measuredSpecs(name, campaignSeed, smoke));
    }
    return w;
}

} // namespace ledger
