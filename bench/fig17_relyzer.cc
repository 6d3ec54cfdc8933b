/**
 * @file
 * Figure 17: per-class inaccuracy (percentile units) of MeRLiN vs the
 * Relyzer control-equivalence heuristic (depth-5 paths, one random
 * pilot per group), both measured against injection of the complete
 * post-ACE fault list.  Configuration: 128 regs, 16 SQ, 32KB L1D.
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
    header("Figure 17 (MeRLiN vs Relyzer heuristic inaccuracy)",
           "vs full post-ACE injection; path depth 5", opts,
           default_faults);

    auto names = opts.workloadsOr({"qsort", "fft", "sha"});
    const uarch::Structure structs[] = {uarch::Structure::RegisterFile,
                                        uarch::Structure::StoreQueue,
                                        uarch::Structure::L1DCache};
    // Paper's worst classes: Relyzer up to ~4.1 units; MeRLiN ~1.1.
    const double paper_worst_relyzer[] = {4.01, 3.35, 4.12};
    const double paper_worst_merlin[] = {1.10, 0.92, 1.06};

    for (int si = 0; si < 3; ++si) {
        uarch::Structure s = structs[si];
        uarch::CoreConfig base =
            uarch::CoreConfig{}.withRegisterFile(128).withStoreQueue(16)
                .withL1dKb(32);
        double worst_m = 0, worst_r = 0;
        std::uint64_t inj_m = 0, inj_r = 0, surv = 0;
        for (const auto &name : names) {
            auto w = workloads::buildWorkload(name);
            core::CampaignConfig cc;
            cc.target = s;
            cc.core = base;
            cc.sampling = opts.sampling(default_faults);
            cc.seed = opts.seed;
            cc.jobs = opts.jobs;
            {
                core::Campaign camp(w.program, cc);
                auto r = camp.run(core::CampaignMode::Truth);
                worst_m = std::max(
                    worst_m, r.merlinSurvivorEstimate.maxInaccuracyVs(
                                 *r.survivorTruth));
                inj_m += r.injections;
                surv += r.survivors;
            }
            {
                core::Campaign camp(w.program, cc);
                auto r = camp.run(core::CampaignMode::Truth, /*relyzer=*/true);
                worst_r = std::max(
                    worst_r, r.merlinSurvivorEstimate.maxInaccuracyVs(
                                 *r.survivorTruth));
                inj_r += r.injections;
            }
        }
        std::printf("\n-- %s --\n", uarch::structureName(s));
        std::printf("survivors: %llu; injections MeRLiN %llu vs Relyzer "
                    "%llu\n",
                    static_cast<unsigned long long>(surv),
                    static_cast<unsigned long long>(inj_m),
                    static_cast<unsigned long long>(inj_r));
        std::printf("worst-class inaccuracy: MeRLiN %.2f  Relyzer %.2f   "
                    "(paper: %.2f vs %.2f)\n",
                    worst_m, worst_r, paper_worst_merlin[si],
                    paper_worst_relyzer[si]);
    }
    std::printf("\nShape check: comparable injection counts but the "
                "Relyzer heuristic shows the\nlarger worst-class error "
                "(single pilots for big loop groups), as in Figure 17.\n");
    return 0;
}
