/**
 * @file
 * Figure 16: final FIT rates (AVF x 0.01 FIT/bit x structure bits) of
 * the comprehensive baseline injection, MeRLiN, and the ACE-like
 * analysis, per structure size.  ACE-like must land well above the two
 * injection-based bars (its pessimistic upper bound is the paper's
 * motivation).
 */

#include "bench/common.hh"

using namespace merlin;
using namespace merlin::bench;

int
main(int argc, char **argv)
{
    Options opts = Options::parse(argc, argv);
    const std::uint64_t default_faults = 3'000;
    header("Figure 16 (FIT rates: baseline vs MeRLiN vs ACE-like)",
           "0.01 raw FIT/bit", opts, default_faults);

    auto names = opts.workloadsOr({"qsort", "fft"});

    struct Row
    {
        uarch::Structure s;
        unsigned variant;
        double paper_base, paper_merlin, paper_ace;
    };
    const Row rows[] = {
        {uarch::Structure::RegisterFile, 256, 4.196, 4.125, 12.262},
        {uarch::Structure::RegisterFile, 128, 3.941, 3.947, 12.313},
        {uarch::Structure::RegisterFile, 64, 3.653, 3.459, 12.058},
        {uarch::Structure::StoreQueue, 64, 0.892, 0.867, 4.407},
        {uarch::Structure::StoreQueue, 32, 0.549, 0.539, 2.566},
        {uarch::Structure::StoreQueue, 16, 0.272, 0.262, 1.456},
        {uarch::Structure::L1DCache, 64, 997, 937, 2459},
        {uarch::Structure::L1DCache, 32, 614, 622, 1120},
        {uarch::Structure::L1DCache, 16, 290, 303, 636},
    };

    std::printf("\n%-10s %-10s %10s %10s %10s %26s\n", "structure",
                "size", "baseline", "MeRLiN", "ACE-like",
                "paper (base/merlin/ace)");
    for (const Row &row : rows) {
        double base_avf = 0, merlin_avf = 0, ace_avf = 0;
        std::uint64_t bits = 0;
        for (const auto &name : names) {
            auto w = workloads::buildWorkload(name);
            core::CampaignConfig cc;
            cc.target = row.s;
            cc.core = configFor(row.s, row.variant);
            cc.sampling = opts.sampling(default_faults);
            cc.seed = opts.seed;
            cc.jobs = opts.jobs;
            core::Campaign camp(w.program, cc);
            auto r = camp.run(core::CampaignMode::Truth);
            base_avf += r.fullTruth().avf();
            merlin_avf += r.merlinEstimate.avf();
            ace_avf += r.aceAvf;
            bits = structureBits(row.s, cc.core);
        }
        base_avf /= names.size();
        merlin_avf /= names.size();
        ace_avf /= names.size();
        std::printf("%-10s %-10s %10.3f %10.3f %10.3f %12.2f/%.2f/%.2f\n",
                    uarch::structureName(row.s),
                    sizeLabel(row.s, row.variant).c_str(),
                    core::fitRate(base_avf, bits),
                    core::fitRate(merlin_avf, bits),
                    core::fitRate(ace_avf, bits), row.paper_base,
                    row.paper_merlin, row.paper_ace);
    }
    std::printf("\nShape check: baseline and MeRLiN FIT agree closely; "
                "ACE-like overestimates by\nroughly 2-4x (the paper's "
                "pessimistic lower bound on reliability).\n");
    return 0;
}
