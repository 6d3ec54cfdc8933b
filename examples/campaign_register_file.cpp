/**
 * @file
 * A complete MeRLiN campaign on the physical register file for the
 * qsort workload: preprocessing (ACE-like profiling + statistical fault
 * list), two-step fault-list reduction, injection of representatives,
 * and the extrapolated reliability report — Figure 2 of the paper as
 * code.
 *
 * Build & run:  ./build/examples/campaign_register_file
 */

#include <chrono>
#include <cstdio>

#include "merlin/campaign.hh"
#include "workloads/workloads.hh"

int
main()
{
    using namespace merlin;

    auto w = workloads::buildWorkload("qsort");
    std::printf("workload: qsort — %s\n", w.description.c_str());

    core::CampaignConfig cfg;
    cfg.target = uarch::Structure::RegisterFile;
    cfg.core = uarch::CoreConfig{}.withRegisterFile(128);
    // A statistically meaningful scaled campaign: ~2000 faults is the
    // paper's 99% confidence / 2.88% error margin point.
    cfg.sampling = core::SamplingSpec{0.99, 0.0288, std::nullopt};
    cfg.seed = 42;

    const auto t0 = std::chrono::steady_clock::now();
    core::Campaign campaign(w.program, cfg);
    core::CampaignResult r = campaign.run();
    const std::chrono::duration<double> wall =
        std::chrono::steady_clock::now() - t0;

    std::printf("\n-- preprocessing --\n");
    std::printf("golden run: %llu instructions, %llu cycles\n",
                static_cast<unsigned long long>(r.goldenInstret),
                static_cast<unsigned long long>(r.goldenCycles));
    std::printf("ACE-like AVF (upper bound): %.2f%%\n", 100 * r.aceAvf);
    std::printf("initial fault list: %llu faults\n",
                static_cast<unsigned long long>(r.initialFaults));

    std::printf("\n-- fault list reduction --\n");
    std::printf("pruned by ACE-like analysis: %llu (masked, no run)\n",
                static_cast<unsigned long long>(r.aceMasked));
    std::printf("survivors in vulnerable intervals: %llu\n",
                static_cast<unsigned long long>(r.survivors));
    std::printf("groups after (RIP,uPC) + byte split: %llu\n",
                static_cast<unsigned long long>(r.numGroups));
    std::printf("speedup: ACE-like %.1fX, with grouping %.1fX\n",
                r.speedupAce, r.speedupTotal);

    std::printf("\n-- injection campaign (%llu representative runs) --\n",
                static_cast<unsigned long long>(r.injections));
    for (unsigned c = 0; c < faultsim::NUM_OUTCOMES; ++c) {
        auto o = static_cast<faultsim::Outcome>(c);
        if (r.merlinEstimate.of(o) == 0)
            continue;
        std::printf("%-8s %6.2f%%\n", faultsim::outcomeName(o),
                    100.0 * r.merlinEstimate.fraction(o));
    }
    const std::uint64_t bits = cfg.core.numPhysIntRegs * 64ULL;
    std::printf("\nAVF = %.2f%%  ->  FIT = %.3f (0.01 FIT/bit, %llu "
                "bits)\n",
                100.0 * r.merlinEstimate.avf(), r.merlinFit(bits),
                static_cast<unsigned long long>(bits));
    // Engine facts live on the runner, not in the result: they
    // describe this run, not the campaign's outcome.
    std::printf("campaign wall clock: %.2fs for %llu injection runs\n",
                wall.count(),
                static_cast<unsigned long long>(
                    campaign.runner().injectionStats().runs));
    return 0;
}
