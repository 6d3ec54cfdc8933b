/**
 * @file
 * Differential sweep driver: the design-space-exploration workflow on
 * top of the fig08-style MiBench workloads.  Runs the same estimate
 * suite under two L1D sizes (configuration A = 64 KB, B = 16 KB by
 * default), stores both sides, joins them with sched::SuiteDiff on
 * the `l1d_kb` axis and emits the per-workload A/B delta table —
 * ΔAVF with its sampling confidence interval and Δclass counts.
 *
 * Flags (bench/common.hh) plus:
 *   --l1d-a=KB --l1d-b=KB   the two swept sizes (default 64 / 16)
 *   --select=i/n            run only worker i's share of the sweep:
 *                           both sides' spec lists are filtered
 *                           round-robin over the workload list before
 *                           running, so each worker's diff covers
 *                           matching A/B pairs — the same partition
 *                           `merlin_cli suite --select` uses, for
 *                           distributing A/B sweeps across machines
 *
 * Both suites run on the shared scheduler pool, so --jobs=N speeds
 * the sweep without changing a byte of the diff.
 */

#include <cstring>
#include <optional>

#include "bench/common.hh"
#include "io/result_store.hh"
#include "sched/diff.hh"
#include "sched/selector.hh"
#include "sched/suite.hh"

namespace
{

using namespace merlin;

/** Run one side of the sweep (this worker's share of it, with
 *  @p select) into an in-memory store. */
io::ResultStore
runSide(const std::vector<std::string> &names, unsigned l1d_kb,
        const bench::Options &opts, std::uint64_t default_faults,
        const std::optional<sched::SpecSelector> &select)
{
    std::vector<sched::CampaignSpec> specs;
    specs.reserve(names.size());
    for (const std::string &name : names) {
        sched::CampaignSpec s;
        s.workload = name;
        s.structure = uarch::Structure::L1DCache;
        s.l1dKb = l1d_kb;
        s.window = 0; ///< MiBench figures run to completion
        s.sampling = opts.sampling(default_faults);
        s.seed = opts.seed;
        s.mode = sched::CampaignSpec::Mode::Estimate;
        specs.push_back(std::move(s));
    }
    if (select)
        specs = sched::selectSpecs(specs, *select);

    sched::SuiteOptions sopts;
    sopts.jobs = opts.jobs;
    sched::SuiteResult suite =
        sched::SuiteScheduler(specs, sopts).run();

    io::ResultStore store;
    for (std::size_t i = 0; i < specs.size(); ++i)
        store.put(specs[i].key(), specs[i].toJson(), suite.results[i]);
    return store;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace merlin;

    bench::Options opts = bench::Options::parse(
        argc, argv, {"--l1d-a", "--l1d-b", "--select"});
    unsigned l1d_a = 64, l1d_b = 16;
    std::optional<sched::SpecSelector> select;
    try {
        for (int i = 1; i < argc; ++i) {
            const char *arg = argv[i];
            if (std::strncmp(arg, "--l1d-a=", 8) == 0)
                l1d_a = base::parseU32(arg + 8, "--l1d-a");
            else if (std::strncmp(arg, "--l1d-b=", 8) == 0)
                l1d_b = base::parseU32(arg + 8, "--l1d-b");
            else if (std::strncmp(arg, "--select=", 9) == 0)
                select = sched::SpecSelector::parse(arg + 9);
        }
    } catch (const merlin::FatalError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
    }

    const std::uint64_t default_faults = 2'000;
    bench::header("Differential sweep (suite --diff)",
                  "L1D size A vs B over the MiBench workloads", opts,
                  default_faults);
    std::printf("configuration A: %u KB L1D, configuration B: %u KB; "
                "estimate campaigns, --jobs=%u\n",
                l1d_a, l1d_b, opts.jobs);
    if (select)
        std::printf("selection %s: this worker diffs only its share "
                    "of the workloads\n",
                    select->describe().c_str());
    std::printf("\n");

    const auto names =
        opts.workloadsOr(workloads::mibenchWorkloads());
    io::ResultStore a, b;
    try {
        a = runSide(names, l1d_a, opts, default_faults, select);
        b = runSide(names, l1d_b, opts, default_faults, select);
    } catch (const merlin::FatalError &e) {
        // An empty --select share fails like a bad flag.
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
    }

    sched::DiffOptions dopts;
    dopts.axis = {"l1d_kb"};
    const sched::SuiteDiffResult diff =
        sched::SuiteDiff(a, b, dopts).run();
    std::fputs(diff.table().c_str(), stdout);

    std::printf("\nShape check: a smaller L1D holds fewer live lines, "
                "so per-bit vulnerability (AVF) typically RISES as the "
                "same working set churns through less capacity; every "
                "|dAVF| should sit within a few CI widths.\n");
    return 0;
}
