/**
 * @file
 * Figure 6: fine-grained homogeneity of fault effects (6 Table-2
 * classes) of MeRLiN's groups, for RF / SQ / L1D size variants over
 * MiBench workloads.
 *
 * Requires ground truth (every post-ACE fault injected), so the default
 * scales down the fault list and workload set; use --faults/--workloads
 * /--paper to widen.
 */

#include "bench/common.hh"

using namespace merlin;
using namespace merlin::bench;

int
main(int argc, char **argv)
{
    Options opts = Options::parse(argc, argv);
    const std::uint64_t default_faults = 3'000;
    header("Figure 6 (fine-grained homogeneity)",
           "dominant-class share of every MeRLiN group", opts,
           default_faults);

    auto names = opts.workloadsOr({"qsort", "fft", "sha"});

    struct Ref
    {
        uarch::Structure s;
        double paper_avg; // paper's best per structure (Sec. 4.4.1)
    };
    const Ref refs[] = {
        {uarch::Structure::RegisterFile, 0.940},
        {uarch::Structure::StoreQueue, 0.982},
        {uarch::Structure::L1DCache, 0.920},
    };

    for (const Ref &ref : refs) {
        const unsigned v = sizeVariants(ref.s)[1]; // middle size
        std::printf("\n-- %s (%s) --\n", uarch::structureName(ref.s),
                    sizeLabel(ref.s, v).c_str());
        std::printf("%-14s %10s %8s %12s %12s\n", "workload", "groups",
                    "faults", "homogeneity", "avg grp size");
        double sum = 0;
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
            const auto &h = *r.homogeneity;
            std::printf("%-14s %10llu %8llu %12.3f %12.1f\n",
                        name.c_str(),
                        static_cast<unsigned long long>(h.groups),
                        static_cast<unsigned long long>(h.faults),
                        h.fine, h.avgGroupSize);
            sum += h.fine;
        }
        std::printf("%-14s %10s %8s %12.3f   (paper avg: %.3f)\n",
                    "average", "", "", sum / names.size(),
                    ref.paper_avg);
    }
    std::printf("\nShape check: homogeneity close to 1.0 for all three "
                "structures\n(paper: 0.88-0.99 across Figure 6).\n");
    return 0;
}
