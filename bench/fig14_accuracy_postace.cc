/**
 * @file
 * Figure 14: MeRLiN's class distribution vs injection of the complete
 * post-ACE fault list (ground truth over survivors), for the three
 * structures.  The paper reports near-identical distributions.
 */

#include "bench/common.hh"
#include "faultsim/fault.hh"

using namespace merlin;
using namespace merlin::bench;
using faultsim::Outcome;

int
main(int argc, char **argv)
{
    Options opts = Options::parse(argc, argv);
    const std::uint64_t default_faults = 4'000;
    header("Figure 14 (accuracy vs full post-ACE injection)",
           "class distribution: full survivor injection vs MeRLiN", opts,
           default_faults);

    auto names = opts.workloadsOr({"qsort", "fft", "sha"});
    const uarch::Structure structs[] = {uarch::Structure::RegisterFile,
                                        uarch::Structure::StoreQueue,
                                        uarch::Structure::L1DCache};

    for (auto s : structs) {
        const unsigned v = sizeVariants(s)[1];
        core::ClassCounts truth, est;
        double max_err = 0;
        for (const auto &name : names) {
            auto w = workloads::buildWorkload(name);
            core::CampaignConfig cc;
            cc.target = s;
            cc.core = configFor(s, v);
            cc.sampling = opts.sampling(default_faults);
            cc.seed = opts.seed;
            cc.jobs = opts.jobs;
            core::Campaign camp(w.program, cc);
            auto r = camp.run(core::CampaignMode::Truth);
            truth = truth + *r.survivorTruth;
            est = est + r.merlinSurvivorEstimate;
            max_err = std::max(
                max_err, r.merlinSurvivorEstimate.maxInaccuracyVs(
                             *r.survivorTruth));
        }
        std::printf("\n-- %s (%s), %llu survivor faults --\n",
                    uarch::structureName(s), sizeLabel(s, v).c_str(),
                    static_cast<unsigned long long>(truth.total()));
        std::printf("%-10s %14s %14s\n", "class", "full-injection",
                    "MeRLiN");
        for (unsigned c = 0; c < faultsim::NUM_OUTCOMES; ++c) {
            const Outcome o = static_cast<Outcome>(c);
            if (truth.of(o) == 0 && est.of(o) == 0)
                continue;
            std::printf("%-10s %13.2f%% %13.2f%%\n",
                        faultsim::outcomeName(o),
                        100.0 * truth.fraction(o),
                        100.0 * est.fraction(o));
        }
        std::printf("worst per-workload inaccuracy: %.2f percentile "
                    "units\n", max_err);
    }
    std::printf("\nShape check: MeRLiN tracks the full injection within "
                "a few percentile units\nper class (paper: negligible "
                "differences across Figure 14).\n");
    return 0;
}
