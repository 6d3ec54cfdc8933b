/**
 * @file
 * Figure 7: coarse-grained homogeneity (masked vs non-masked collapse)
 * and the fraction of groups with perfect homogeneity, per structure
 * size variant, averaged over MiBench workloads.
 */

#include "bench/common.hh"

using namespace merlin;
using namespace merlin::bench;

int
main(int argc, char **argv)
{
    Options opts = Options::parse(argc, argv);
    const std::uint64_t default_faults = 2'000;
    header("Figure 7 (coarse homogeneity + perfect groups)",
           "masked/non-masked collapse of group outcomes", opts,
           default_faults);

    auto names = opts.workloadsOr({"qsort", "fft"});

    struct Ref
    {
        uarch::Structure s;
        unsigned variant;
        double paper_coarse;
        double paper_perfect;
    };
    // Paper values from Figure 7 (bars: coarse on top, % perfect below).
    const Ref refs[] = {
        {uarch::Structure::RegisterFile, 256, 0.952, 0.908},
        {uarch::Structure::RegisterFile, 128, 0.953, 0.905},
        {uarch::Structure::RegisterFile, 64, 0.961, 0.903},
        {uarch::Structure::StoreQueue, 64, 0.983, 0.920},
        {uarch::Structure::StoreQueue, 32, 0.977, 0.907},
        {uarch::Structure::StoreQueue, 16, 0.973, 0.911},
        {uarch::Structure::L1DCache, 64, 0.944, 0.884},
        {uarch::Structure::L1DCache, 32, 0.942, 0.883},
        {uarch::Structure::L1DCache, 16, 0.931, 0.891},
    };

    std::printf("\n%-10s %-10s %10s %10s %14s %14s\n", "structure",
                "size", "coarse", "paper", "perfect-frac", "paper");
    for (const Ref &ref : refs) {
        double coarse = 0, perfect = 0;
        for (const auto &name : names) {
            auto w = workloads::buildWorkload(name);
            core::CampaignConfig cc;
            cc.target = ref.s;
            cc.core = configFor(ref.s, ref.variant);
            cc.sampling = opts.sampling(default_faults);
            cc.seed = opts.seed;
            cc.jobs = opts.jobs;
            core::Campaign camp(w.program, cc);
            auto r = camp.run(core::CampaignMode::Truth);
            coarse += r.homogeneity->coarse;
            perfect += r.homogeneity->perfectFraction;
        }
        coarse /= names.size();
        perfect /= names.size();
        std::printf("%-10s %-10s %10.3f %10.3f %14.3f %14.3f\n",
                    uarch::structureName(ref.s),
                    sizeLabel(ref.s, ref.variant).c_str(), coarse,
                    ref.paper_coarse, perfect, ref.paper_perfect);
    }
    std::printf("\nShape check: coarse homogeneity above ~0.9 everywhere "
                "and a large majority of\ngroups perfectly homogeneous, "
                "as in the paper.\n");
    return 0;
}
