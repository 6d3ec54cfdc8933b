/**
 * @file
 * Figure 15: final class distribution of the comprehensive baseline
 * injection (entire initial fault list) vs MeRLiN's extrapolation, per
 * structure.  ACE-pruned faults count as Masked on both sides, as in
 * the paper.
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
    header("Figure 15 (accuracy vs comprehensive baseline)",
           "final class distribution over the whole initial list", opts,
           default_faults);

    auto names = opts.workloadsOr({"qsort", "fft", "sha"});

    struct Ref
    {
        uarch::Structure s;
        double paper_masked; ///< paper baseline Masked%, middle size
    };
    const Ref refs[] = {
        {uarch::Structure::RegisterFile, 95.19},
        {uarch::Structure::StoreQueue, 97.33},
        {uarch::Structure::L1DCache, 76.58},
    };

    for (const Ref &ref : refs) {
        const unsigned v = sizeVariants(ref.s)[1];
        core::ClassCounts truth, est;
        for (const auto &name : names) {
            auto w = workloads::buildWorkload(name);
            core::CampaignConfig cc;
            cc.target = ref.s;
            cc.core = configFor(ref.s, v);
            cc.sampling = opts.sampling(default_faults);
            cc.seed = opts.seed;
            cc.jobs = opts.jobs;
            core::Campaign camp(w.program, cc);
            auto r = camp.run(core::CampaignMode::Truth);
            truth = truth + r.fullTruth();
            est = est + r.merlinEstimate;
        }
        std::printf("\n-- %s (%s), %llu total faults --\n",
                    uarch::structureName(ref.s),
                    sizeLabel(ref.s, v).c_str(),
                    static_cast<unsigned long long>(truth.total()));
        std::printf("%-10s %14s %14s\n", "class", "baseline", "MeRLiN");
        for (unsigned c = 0; c < faultsim::NUM_OUTCOMES; ++c) {
            const Outcome o = static_cast<Outcome>(c);
            if (truth.of(o) == 0 && est.of(o) == 0)
                continue;
            std::printf("%-10s %13.2f%% %13.2f%%\n",
                        faultsim::outcomeName(o),
                        100.0 * truth.fraction(o),
                        100.0 * est.fraction(o));
        }
        std::printf("inaccuracy (max class delta): %.2f percentile units;"
                    " paper baseline Masked%% at this size: %.2f%%\n",
                    est.maxInaccuracyVs(truth), ref.paper_masked);
    }
    std::printf("\nShape check: the two columns are virtually identical "
                "(paper Figure 15), with\nMasked dominating and "
                "L1D showing the largest SDC share.\n");
    return 0;
}
