/** @file `merlin_cli campaign`: run one MeRLiN campaign and report. */

#include <cstdio>

#include "merlin/campaign.hh"
#include "obs/clock.hh"
#include "tools/cli_cmds.hh"
#include "uarch/core.hh"
#include "workloads/workloads.hh"

namespace merlin::tools
{

int
cmdCampaign(const Args &args)
{
    requireKnownFlags(args,
                      {"workload", "structure", "regs", "sq", "l1d",
                       "faults", "margin", "conf", "seed", "window",
                       "truth", "relyzer", "jobs", "timeout-factor",
                       "inject-wall-limit", "quarantine", "trace",
                       "metrics"},
                      "campaign");
    auto w = workloads::buildWorkload(args.get("workload", "qsort"));
    core::CampaignConfig cc = campaignConfig(
        args, args.has("window") ? 0 : w.suggestedWindow);
    startTelemetry(args);
    const obs::TimePoint t0 = obs::now();
    core::Campaign camp(w.program, cc);
    auto r = camp.run(args.has("truth") ? core::CampaignMode::Truth
                                        : core::CampaignMode::Estimate,
                      args.has("relyzer"));
    const double seconds = obs::secondsSince(t0);
    finishTelemetry(args);
    std::printf("== %s / %s ==\n", w.program.name.c_str(),
                uarch::structureName(cc.target));
    printCampaign(r, structureBits(cc));
    printEngineStats(camp.runner().injectionStats(), seconds);
    return 0;
}

} // namespace merlin::tools
