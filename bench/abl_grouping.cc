/**
 * @file
 * Ablation (DESIGN.md): the design choices inside MeRLiN's grouping —
 * step-2 split granularity (none / byte / nibble, Section 3.2.2 says
 * byte suffices) and the max-group-size cap (time diversity).  For each
 * variant: injected representatives, final speedup, and accuracy vs the
 * same ground truth.
 */

#include "bench/common.hh"
#include "faultsim/fault.hh"

using namespace merlin;
using namespace merlin::bench;

int
main(int argc, char **argv)
{
    Options opts = Options::parse(argc, argv);
    const std::uint64_t default_faults = 4'000;
    header("Ablation (grouping design choices)",
           "split granularity and group-size cap, RF-128", opts,
           default_faults);

    auto names = opts.workloadsOr({"qsort", "fft"});

    struct Variant
    {
        const char *label;
        core::GroupingOptions o;
    };
    std::vector<Variant> variants;
    {
        core::GroupingOptions o;
        o.split = core::GroupingOptions::Split::None;
        variants.push_back({"no split (step 2 off)", o});
        o.split = core::GroupingOptions::Split::Byte;
        variants.push_back({"byte split (paper)", o});
        o.split = core::GroupingOptions::Split::Nibble;
        variants.push_back({"nibble split", o});
        o.split = core::GroupingOptions::Split::Bit;
        variants.push_back({"bit split", o});
        o.split = core::GroupingOptions::Split::Byte;
        o.maxGroupSize = 10;
        variants.push_back({"byte split, cap 10", o});
        o.maxGroupSize = 1000000;
        variants.push_back({"byte split, no cap", o});
        o = core::GroupingOptions{};
        o.repsPerGroup = 3;
        variants.push_back({"3-rep majority vote", o});
    }

    std::printf("\n%-22s %10s %10s %12s %14s\n", "variant", "groups",
                "injected", "speedup", "inaccuracy");
    for (const auto &v : variants) {
        std::uint64_t groups = 0, injected = 0;
        double speedup = 0, inacc = 0;
        for (const auto &name : names) {
            auto w = workloads::buildWorkload(name);
            core::CampaignConfig cc;
            cc.target = uarch::Structure::RegisterFile;
            cc.core = uarch::CoreConfig{}.withRegisterFile(128);
            cc.sampling = opts.sampling(default_faults);
            cc.grouping = v.o;
            cc.seed = opts.seed;
            cc.jobs = opts.jobs;
            core::Campaign camp(w.program, cc);
            auto r = camp.run(core::CampaignMode::Truth);
            groups += r.numGroups;
            injected += r.injections;
            speedup += r.speedupTotal;
            inacc = std::max(
                inacc, r.merlinSurvivorEstimate.maxInaccuracyVs(
                           *r.survivorTruth));
        }
        std::printf("%-22s %10llu %10llu %11.1fX %11.2f pp\n", v.label,
                    static_cast<unsigned long long>(groups),
                    static_cast<unsigned long long>(injected),
                    speedup / names.size(), inacc);
    }
    std::printf("\nShape check: coarser grouping buys speedup at an "
                "accuracy cost; byte split\nrecovers most accuracy "
                "(nibble adds injections for little gain — the paper's\n"
                "\"not necessary\" claim); removing the cap inflates "
                "groups and the error of\nunlucky representatives.\n");
    return 0;
}
