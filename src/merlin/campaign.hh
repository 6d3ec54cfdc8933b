/**
 * @file
 * Campaign orchestration: the complete MeRLiN flow of Figure 2.
 *
 *   Preprocessing        golden run with the ACE-like profiler attached,
 *                        then statistical fault-list creation;
 *   Fault List Reduction ACE-like prune + two-step grouping;
 *   Injection Campaign   inject the reduced list, classify against the
 *                        golden run, extrapolate group outcomes.
 *
 * The same object can also run the baselines the paper compares against:
 * the full post-ACE fault list (for accuracy/homogeneity figures) and
 * Relyzer's control-equivalence heuristic (Figure 17).
 */

#ifndef MERLIN_MERLIN_CAMPAIGN_HH
#define MERLIN_MERLIN_CAMPAIGN_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "faultsim/runner.hh"
#include "merlin/grouping.hh"
#include "merlin/report.hh"
#include "merlin/theory.hh"
#include "merlin/sampling.hh"
#include "profile/ace.hh"
#include "uarch/config.hh"

namespace merlin::core
{

/** How much of the Figure 2 flow a campaign runs. */
enum class CampaignMode : std::uint8_t
{
    Estimate,     ///< MeRLiN estimate only (representatives)
    Truth,        ///< + ground-truth sweep of every survivor
    GroupingOnly, ///< fault-list reduction only, no injections
};

/** Everything a campaign needs besides the program. */
struct CampaignConfig
{
    uarch::Structure target = uarch::Structure::RegisterFile;
    uarch::CoreConfig core;
    SamplingSpec sampling;
    GroupingOptions grouping;
    std::uint64_t seed = 1;

    /**
     * Worker threads of Campaign::run()'s injection pool (0 = hardware
     * concurrency).  Results are bit-identical for any value.
     */
    unsigned jobs = 1;
    /**
     * Injection-engine settings: the checkpoint cadence, the timeout
     * factor and the quarantine guard.  Only timeoutFactor can
     * change an outcome; the rest decide how fast the engine gets there
     * or how it handles a failing simulator.
     */
    faultsim::RunnerOptions runner;
};

/**
 * Outcome of one campaign: a pure function of the program, the target
 * structure, the core geometry and the sampling/grouping/timeout
 * choices — never of the checkpoint cadence, the job count or the
 * wall clock.  How the engine got there
 * is reported by InjectionRunner::injectionStats() and the inject.*
 * counters, not stored here.
 */
struct CampaignResult
{
    // Golden-run facts.
    Cycle goldenCycles = 0;
    std::uint64_t goldenInstret = 0;
    double aceAvf = 0.0; ///< ACE-like AVF (upper bound on injection AVF)

    // Fault-list accounting.
    std::uint64_t initialFaults = 0;
    std::uint64_t aceMasked = 0;   ///< pruned by the ACE-like step
    std::uint64_t survivors = 0;   ///< faults in vulnerable intervals
    std::uint64_t numGroups = 0;
    std::uint64_t injections = 0;  ///< representatives actually injected

    // MeRLiN's estimate, extrapolated to the full initial list
    // (ACE-pruned faults counted Masked).
    ClassCounts merlinEstimate;
    // Same estimate restricted to the post-ACE survivors.
    ClassCounts merlinSurvivorEstimate;

    // Ground truth over survivors (CampaignMode::Truth only).
    std::optional<ClassCounts> survivorTruth;
    std::optional<HomogeneityReport> homogeneity;
    /** Per-group sizes and non-masking rates (Section 4.4.5 model). */
    std::vector<GroupModel> groupModels;

    // Speedups exactly as the paper reports them (fault-count ratios;
    // one injection run costs the same with or without MeRLiN).
    double speedupAce = 0.0;   ///< initial / survivors
    double speedupTotal = 0.0; ///< initial / injections

    /**
     * Injections the quarantine guard caught (escaped simulator
     * exceptions), sorted by (fault key, reason).  Each counted Crash in the class distributions; the
     * campaign completed despite them.  Empty in the common case.
     */
    std::vector<faultsim::QuarantineRecord> quarantine;

    /** Truth over the full initial list (survivorTruth + ACE Masked). */
    ClassCounts fullTruth() const;

    /** FIT rate from MeRLiN's estimate. */
    double merlinFit(std::uint64_t bits,
                     double raw_fit_per_bit = 0.01) const;
};

/**
 * A campaign paused between its phases: profiling/grouping done
 * (phases 1-2), injections (phase 3) not yet run.  Produced by
 * Campaign::prepare(); hand `faults` to an injection driver — the
 * TaskGroup injectBatch on any pool, as Campaign::run() and the suite
 * scheduler do — then fold the outcomes back with Campaign::finish().
 */
struct PreparedCampaign
{
    /** Phase 1-2 fields filled; phase 3 fields still empty. */
    CampaignResult result;
    /**
     * The reduced fault list.  Empty for a grouping-only campaign that
     * does not use Relyzer: its counts come from the reduction's
     * tallies, and nothing reads its groups.
     */
    GroupingResult grouping;
    /**
     * All faults phase 3 must inject: the group representatives first
     * (numRepFaults of them), then — when ground truth was requested —
     * every survivor.  Duplicates are expected; batch dedup collapses
     * them.  Empty for grouping-only campaigns.
     */
    std::vector<faultsim::Fault> faults;
    std::size_t numRepFaults = 0;
    CampaignMode mode = CampaignMode::Estimate;
};

/** Drives one (program, structure, configuration) campaign. */
class Campaign
{
  public:
    Campaign(const isa::Program &prog, const CampaignConfig &cfg);

    /**
     * Run the MeRLiN flow in @p mode: prepare(), then inject the
     * prepared faults on a pool of CampaignConfig::jobs workers, then
     * finish().
     *
     * @param mode Truth also injects every post-ACE fault to obtain
     *        ground truth (expensive; used by the accuracy and
     *        homogeneity experiments); GroupingOnly injects nothing,
     *        which suffices for the speedup figures (8-13) — the class
     *        distributions in its result are empty.
     * @param relyzer use Relyzer's control-equivalence heuristic instead
     *        of MeRLiN's step 2 (Section 4.4.4 comparison), following
     *        control paths @p path_depth branches deep.
     */
    CampaignResult run(CampaignMode mode = CampaignMode::Estimate,
                       bool relyzer = false, unsigned path_depth = 5);

    /**
     * Phases 1-2 only: profiled golden run, fault sampling, ACE prune +
     * grouping.  Afterwards goldenRun()/runner() are valid and the
     * returned faults can be injected by any driver; fold the outcomes
     * back with finish().  Parameters as for run().
     *
     * In GroupingOnly mode the golden run is bare: no checkpoints are
     * captured and no effect trace is recorded, since nothing injects.
     * runner() can still inject correctly against such a golden run,
     * as the plain run (checkpointInterval 0).
     */
    PreparedCampaign prepare(CampaignMode mode = CampaignMode::Estimate,
                             bool relyzer = false, unsigned path_depth = 5);

    /**
     * Phase 3 epilogue: @p outcomes must hold the outcome of
     * prep.faults[i] at index i (any injection driver; outcomes are a
     * pure function of the fault, so any schedule gives the same
     * result).
     */
    CampaignResult finish(PreparedCampaign prep,
                          const std::vector<faultsim::Outcome> &outcomes) const;

    /** The golden reference (valid after prepare()/run()). */
    const faultsim::GoldenRun &goldenRun() const { return golden_; }

    /** The injection harness (valid after prepare()/run()). */
    const faultsim::InjectionRunner &
    runner() const
    {
        MERLIN_ASSERT(runner_ != nullptr, "campaign not prepared");
        return *runner_;
    }

  private:
    const isa::Program &prog_;
    CampaignConfig cfg_;
    faultsim::GoldenRun golden_;
    std::unique_ptr<faultsim::InjectionRunner> runner_;
};

} // namespace merlin::core

#endif // MERLIN_MERLIN_CAMPAIGN_HH
