/**
 * @file
 * Figure 11: actual reliability-estimation time of the comprehensive
 * baseline (60,000 injections per campaign) vs MeRLiN, for all MiBench
 * structure configurations, assuming sequential runs on one machine.
 *
 * Per-run cost is measured by timing real injection runs; campaign
 * counts come from grouping-only passes at the requested fault-list
 * scale (paper scale by default — counting needs no injections).  The
 * 90 counting campaigns run as one shared-pool suite (--jobs=N).
 */

#include "base/threadpool.hh"
#include "bench/common.hh"
#include "obs/clock.hh"
#include "sched/suite.hh"

using namespace merlin;
using namespace merlin::bench;

int
main(int argc, char **argv)
{
    Options opts = Options::parse(argc, argv);
    const std::uint64_t default_faults = 60'000;
    header("Figure 11 (actual estimation time)",
           "baseline vs MeRLiN wall-clock, all MiBench configs", opts,
           default_faults);

    auto names = opts.workloadsOr(workloads::mibenchWorkloads());
    const uarch::Structure structs[] = {uarch::Structure::RegisterFile,
                                        uarch::Structure::StoreQueue,
                                        uarch::Structure::L1DCache};
    const double paper_base_months[] = {40.68, 77.07, 82.09};
    const double paper_merlin_months[] = {0.65, 0.49, 1.28};

    // Calibrate per-injection cost on a small real campaign.
    double sec_per_run = 0;
    {
        auto w = workloads::buildWorkload("fft");
        core::CampaignConfig cc;
        cc.target = uarch::Structure::RegisterFile;
        cc.sampling = core::specFixed(300);
        cc.jobs = opts.jobs;
        core::Campaign camp(w.program, cc);
        core::PreparedCampaign prep = camp.prepare();
        const obs::TimePoint t0 = obs::now();
        // One batch task on a pool of --jobs workers, as Campaign::run
        // injects: exactly that many threads simulate.
        base::ThreadPool pool(opts.jobs);
        std::vector<faultsim::Outcome> outcomes;
        pool.submit([&] {
            base::TaskGroup group(pool);
            outcomes = camp.runner().injectBatch(prep.faults,
                                                 camp.goldenRun(), group);
        });
        pool.wait();
        if (!outcomes.empty())
            sec_per_run = obs::secondsSince(t0) /
                          static_cast<double>(outcomes.size());
    }
    std::printf("\nmeasured injection cost: %.1f ms/run "
                "(gem5 full-system runs cost ~minutes)\n",
                sec_per_run * 1e3);

    // Counting campaigns for all (structure, size, workload) configs,
    // one shared-pool suite in iteration order.
    std::vector<sched::CampaignSpec> specs;
    for (int si = 0; si < 3; ++si) {
        for (unsigned v : sizeVariants(structs[si])) {
            for (const auto &name : names) {
                sched::CampaignSpec s;
                s.workload = name;
                s.structure = structs[si];
                s.window = 0;
                switch (structs[si]) {
                  case uarch::Structure::RegisterFile: s.regs = v; break;
                  case uarch::Structure::StoreQueue:
                    s.sqEntries = v;
                    break;
                  case uarch::Structure::L1DCache: s.l1dKb = v; break;
                }
                s.sampling = opts.sampling(default_faults);
                s.seed = opts.seed;
                s.mode = sched::CampaignSpec::Mode::GroupingOnly;
                specs.push_back(std::move(s));
            }
        }
    }
    sched::SuiteOptions sopts;
    sopts.jobs = opts.jobs;
    sched::SuiteResult suite =
        sched::SuiteScheduler(specs, sopts).run();

    double total_base_s = 0, total_merlin_s = 0;
    std::size_t at = 0;
    std::printf("\n%-14s %16s %16s %22s\n", "structure",
                "baseline months", "MeRLiN months",
                "paper (base->MeRLiN)");
    for (int si = 0; si < 3; ++si) {
        double base_runs = 0, merlin_runs = 0;
        for (unsigned v : sizeVariants(structs[si])) {
            (void)v;
            for (std::size_t wi = 0; wi < names.size(); ++wi) {
                const core::CampaignResult &r = suite.results[at++];
                base_runs += static_cast<double>(r.initialFaults);
                merlin_runs += static_cast<double>(r.injections);
            }
        }
        const double month = 30.0 * 24 * 3600;
        const double base_m = base_runs * sec_per_run / month;
        const double merlin_m = merlin_runs * sec_per_run / month;
        total_base_s += base_runs * sec_per_run;
        total_merlin_s += merlin_runs * sec_per_run;
        std::printf("%-14s %16.3f %16.4f %14.2f -> %.2f\n",
                    uarch::structureName(structs[si]), base_m, merlin_m,
                    paper_base_months[si], paper_merlin_months[si]);
    }
    std::printf("%-14s %16.3f %16.4f %14s\n", "TOTAL",
                total_base_s / (30.0 * 24 * 3600),
                total_merlin_s / (30.0 * 24 * 3600),
                "199.84 -> 2.42");
    std::printf("\nShape check: MeRLiN compresses the total campaign by "
                "~2 orders of magnitude\n(absolute months differ: our "
                "simulator is ~1000x faster than full-system gem5\nand "
                "our workloads are scaled; the ratio is the result).\n");
    return 0;
}
