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
    const sched::CampaignSpec spec = specFromFlags(
        args, {"jobs", "quarantine", "trace", "metrics"}, "campaign");
    auto w = workloads::buildWorkload(spec.workload);
    const core::CampaignConfig cc = runConfig(spec, w, args);
    startTelemetry(args);
    const obs::TimePoint t0 = obs::now();
    core::Campaign camp(w.program, cc);
    auto r = camp.run(spec.mode, spec.relyzer, spec.pathDepth);
    const double seconds = obs::secondsSince(t0);
    finishTelemetry(args);
    std::printf("== %s / %s ==\n", w.program.name.c_str(),
                uarch::structureName(cc.target));
    // The key `suite --out` stores this campaign's result under.
    std::printf("spec key: %s\n", spec.key().c_str());
    printCampaign(r, structureBits(cc));
    printEngineStats(camp.runner().injectionStats(), seconds);
    return 0;
}

} // namespace merlin::tools
