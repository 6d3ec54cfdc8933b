#include "merlin/campaign.hh"

#include <algorithm>
#include <array>

#include "base/logging.hh"
#include "base/threadpool.hh"
#include "obs/trace.hh"

namespace merlin::core
{

using faultsim::Fault;
using faultsim::GoldenRun;
using faultsim::InjectionRunner;
using faultsim::Outcome;

ClassCounts
CampaignResult::fullTruth() const
{
    MERLIN_ASSERT(survivorTruth.has_value(), "no ground truth available");
    ClassCounts t = *survivorTruth;
    t.add(Outcome::Masked, aceMasked);
    return t;
}

double
CampaignResult::merlinFit(std::uint64_t bits, double raw_fit_per_bit) const
{
    return fitRate(merlinEstimate.avf(), bits, raw_fit_per_bit);
}

Campaign::Campaign(const isa::Program &prog, const CampaignConfig &cfg)
    : prog_(prog), cfg_(cfg)
{
}

PreparedCampaign
Campaign::prepare(CampaignMode mode, bool relyzer, unsigned path_depth)
{
    obs::Span span("campaign", "prepare " + prog_.name);
    PreparedCampaign prep;
    CampaignResult &res = prep.result;
    Rng rng(cfg_.seed);
    // A grouping-only campaign injects nothing, so its golden run is
    // the plain one: no checkpoints, no effect trace.
    const bool grouping_only = mode == CampaignMode::GroupingOnly;
    faultsim::RunnerOptions ropts = cfg_.runner;
    if (grouping_only)
        ropts.checkpointInterval = 0;
    runner_ = std::make_unique<InjectionRunner>(prog_, cfg_.core, ropts);

    // ---- Phase 1: preprocessing (profiled golden run) ----
    profile::AceProfiler profiler(cfg_.core.numPhysIntRegs,
                                  cfg_.core.sqEntries,
                                  cfg_.core.l1d.totalWords());
    golden_ = runner_->golden(&profiler);
    profiler.finalize();
    res.goldenCycles = golden_.stats.cycles;
    res.goldenInstret = golden_.stats.instret;

    const profile::StructureProfile &prof = profiler.profile(cfg_.target);
    res.aceAvf = prof.aceAvf(res.goldenCycles);

    // ---- Phases 1-2: fault list and its reduction, in one pass ----
    // Each fault is drawn, looked up once and counted; a campaign that
    // injects (or groups by Relyzer's paths) also keeps its survivors.
    // The rng draws after the pass are those of sampleFaults, then
    // groupFaults, so the representatives are the same.
    const FaultSampler sampler(
        cfg_.target, uarch::structureEntries(cfg_.target, cfg_.core),
        res.goldenCycles, cfg_.sampling);
    FaultReducer reducer(prof, cfg_.grouping, !grouping_only || relyzer);
    for (std::uint64_t i = 0; i < sampler.count(); ++i)
        reducer.add(sampler.draw(rng));
    res.initialFaults = sampler.count();
    res.aceMasked = reducer.aceMasked();
    res.survivors = reducer.survivors();
    if (relyzer) {
        prep.grouping = std::move(reducer).relyzerGroup(profiler,
                                                        path_depth, rng);
        res.numGroups = prep.grouping.groups.size();
        res.injections = prep.grouping.numInjections();
    } else {
        res.numGroups = reducer.numGroups();
        res.injections = reducer.numInjections();
        if (!grouping_only)
            prep.grouping = std::move(reducer).group(rng);
    }
    res.speedupAce =
        res.survivors
            ? static_cast<double>(res.initialFaults) /
                  static_cast<double>(res.survivors)
            : static_cast<double>(res.initialFaults);
    res.speedupTotal =
        res.injections
            ? static_cast<double>(res.initialFaults) /
                  static_cast<double>(res.injections)
            : static_cast<double>(res.initialFaults);

    prep.mode = mode;
    if (grouping_only)
        return prep;

    // Phase-3 work list: representatives first, then (for ground truth)
    // every survivor.  Representatives reappear among the members; batch
    // dedup runs each distinct fault once and aliases the repeats.
    const GroupingResult &grouping = prep.grouping;
    const bool truth = mode == CampaignMode::Truth;
    prep.faults.reserve(res.injections +
                        (truth ? grouping.survivors.size() : 0));
    for (const FaultGroup &g : grouping.groups)
        for (std::uint32_t rep : g.representatives)
            prep.faults.push_back(grouping.survivors[rep].fault);
    prep.numRepFaults = prep.faults.size();
    if (truth) {
        for (const FaultGroup &g : grouping.groups)
            for (std::uint32_t m : g.members)
                prep.faults.push_back(grouping.survivors[m].fault);
    }
    return prep;
}

CampaignResult
Campaign::finish(PreparedCampaign prep,
                 const std::vector<Outcome> &outcomes) const
{
    obs::Span span("campaign", "finish " + prog_.name);
    CampaignResult res = std::move(prep.result);
    if (prep.mode == CampaignMode::GroupingOnly)
        return res;
    MERLIN_ASSERT(outcomes.size() == prep.faults.size(),
                  "outcome count does not match the prepared faults");
    const GroupingResult &grouping = prep.grouping;

    std::size_t rep_at = 0;
    for (const FaultGroup &g : grouping.groups) {
        // Majority vote over the representatives (one, in the paper's
        // configuration, so the vote degenerates to its outcome).
        std::array<std::uint32_t, faultsim::NUM_OUTCOMES> votes{};
        for (std::size_t r = 0; r < g.representatives.size(); ++r)
            ++votes[static_cast<unsigned>(outcomes[rep_at++])];
        const Outcome rep_outcome = static_cast<Outcome>(
            std::max_element(votes.begin(), votes.end()) -
            votes.begin());
        res.merlinEstimate.add(rep_outcome, g.members.size());
        res.merlinSurvivorEstimate.add(rep_outcome, g.members.size());
    }
    // ACE-pruned faults are Masked by construction.
    res.merlinEstimate.add(Outcome::Masked, res.aceMasked);

    if (prep.mode == CampaignMode::Truth) {
        // Ground truth from the member sweep (outcomes after the
        // representative prefix).
        ClassCounts truth;
        std::vector<std::vector<Outcome>> per_group;
        per_group.reserve(grouping.groups.size());
        res.groupModels.reserve(grouping.groups.size());
        std::size_t at = prep.numRepFaults;
        for (const FaultGroup &g : grouping.groups) {
            std::vector<Outcome> outs;
            outs.reserve(g.members.size());
            std::uint64_t non_masked = 0;
            for (std::size_t m = 0; m < g.members.size(); ++m) {
                const Outcome o = outcomes[at++];
                truth.add(o);
                outs.push_back(o);
                if (o != Outcome::Masked)
                    ++non_masked;
            }
            res.groupModels.push_back(GroupModel{
                g.members.size(),
                static_cast<double>(non_masked) / g.members.size()});
            per_group.push_back(std::move(outs));
        }
        res.survivorTruth = truth;
        res.homogeneity = computeHomogeneity(per_group);
    }

    // Quarantine records are part of the outcome (each counted Crash);
    // the runner keeps them sorted, so they are as deterministic as
    // the outcomes themselves.
    res.quarantine = runner_->quarantineRecords();
    return res;
}

CampaignResult
Campaign::run(CampaignMode mode, bool relyzer, unsigned path_depth)
{
    PreparedCampaign prep = prepare(mode, relyzer, path_depth);

    // ---- Phase 3: injection campaign ----
    // One combined batch (representatives + ground-truth members);
    // planBatch's duplicate collapse makes representative runs reused
    // by the sweep and duplicate sampled faults cost one run only.  The
    // batch runs as one task on a pool of `jobs` workers, as the
    // suite's drivers run theirs: the batch's wait() help-runs its own
    // injections on that worker while this thread only waits, so
    // exactly `jobs` threads simulate.
    std::vector<Outcome> outcomes;
    if (!prep.faults.empty()) {
        base::ThreadPool pool(cfg_.jobs);
        pool.submit([&] {
            obs::Span span("campaign", "inject-batch " + prog_.name);
            base::TaskGroup group(pool);
            outcomes = runner_->injectBatch(prep.faults, golden_, group);
        });
        pool.wait();
    }
    return finish(std::move(prep), outcomes);
}

} // namespace merlin::core
