/**
 * @file
 * Campaign-suite scheduling: run many (workload x structure x config)
 * campaigns — a whole paper figure's worth — on one shared thread pool.
 *
 * Execution model.  One looping driver task per pool worker pulls
 * campaigns off a shared cursor (so at most `jobs` campaigns are
 * resident at a time), runs each campaign's Campaign::prepare() —
 * golden/profile and grouping (profiles of different campaigns
 * overlap) — then fans its injections into the SAME pool at
 * per-injection granularity through a base::TaskGroup, the executor
 * Campaign::run() drives on a private pool.  The queue interleaves
 * injections of every in-flight campaign, and a driver whose chain
 * runs dry frees its worker to execute the queued injections of the
 * campaigns still running — cross-campaign work stealing without any
 * dedicated balancer.  Outcomes are a pure function of their fault,
 * so the suite's results are bit-identical for any --jobs value and
 * any schedule.
 *
 * Persistence.  With a store path set, every finished campaign is
 * written (atomically) to a ResultStore keyed by the spec's content
 * hash; reuseCached turns matching stored entries into cache hits that
 * skip the campaign entirely, which is also how an interrupted suite
 * resumes.
 */

#ifndef MERLIN_SCHED_SUITE_HH
#define MERLIN_SCHED_SUITE_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "io/json.hh"
#include "merlin/campaign.hh"
#include "sched/selector.hh"
#include "workloads/workloads.hh"

namespace merlin::sched
{

/**
 * Everything that can change one campaign's outcome — a value type, so
 * it can be hashed, serialized into manifests/results, and compared.
 * The spec is the result's identity: anything that never changes the
 * result is deliberately NOT part of it, so it cannot change the cache
 * key.  That covers the job count and the engine setting (the
 * checkpoint cadence), which keeps its faultsim::RunnerOptions
 * default here (library callers may set core::CampaignConfig::runner).
 */
struct CampaignSpec
{
    /** What the campaign runs (manifest member "mode"). */
    using Mode = core::CampaignMode;

    std::string workload; ///< bundled workload name (workloads::)
    uarch::Structure structure = uarch::Structure::RegisterFile;

    // Core geometry of the target structures (the rest of the core
    // keeps CoreConfig defaults, as everywhere in the evaluation).
    unsigned regs = 256;
    unsigned sqEntries = 64;
    unsigned l1dKb = 64;
    /** Instruction window; nullopt = the workload's suggested window. */
    std::optional<std::uint64_t> window;

    core::SamplingSpec sampling;
    core::GroupingOptions grouping;
    std::uint64_t seed = 1;
    /** Moves the Timeout classification boundary (the paper's rule is
     *  the default 3x golden), so unlike the engine knobs it is part of
     *  the outcome. */
    unsigned timeoutFactor =
        faultsim::RunnerOptions::kDefaultTimeoutFactor;

    Mode mode = Mode::Estimate;
    bool relyzer = false;   ///< Relyzer grouping baseline (Fig. 17)
    unsigned pathDepth = 5; ///< Relyzer control-path depth

    /** Campaign configuration for @p w (resolves the window). */
    core::CampaignConfig
    campaignConfig(const workloads::BuiltWorkload &w) const;

    /** Canonical JSON (fixed member order — the hash input). */
    io::Json toJson() const;

    /**
     * Inverse of toJson().  Unknown members, members of the wrong
     * JSON type, both sampling styles at once, and values the engine
     * could not run (a geometry the core or cache would reject, an
     * integer that does not fit its field) are fatal() by member
     * name.
     */
    static CampaignSpec fromJson(const io::Json &j);

    /**
     * Content hash of the spec (16 hex digits, FNV-1a over the
     * canonical JSON): the ResultStore key.
     */
    std::string key() const;

    bool operator==(const CampaignSpec &o) const;
};

/**
 * Parse a suite manifest: `{"defaults": {...}, "campaigns": [{...}]}`
 * where every campaign entry overrides the (optional) defaults object
 * member-by-member.  Member names match CampaignSpec::toJson().
 */
std::vector<CampaignSpec> parseManifest(const io::Json &manifest);

/** Is @p name a CampaignSpec JSON member (a valid sweep axis knob)? */
bool isSpecMember(const std::string &name);

/**
 * The specs of @p specs that @p sel keeps, in manifest order: one
 * worker's share of a distributed suite (`suite --select i/n`).
 * Running each share into its own store and merging the stores
 * reproduces the single-host store byte-for-byte.  fatal() when the
 * share is empty (i >= the manifest size): that worker would write
 * no store to merge.
 */
std::vector<CampaignSpec> selectSpecs(const std::vector<CampaignSpec> &specs,
                                      const SpecSelector &sel);

struct SuiteOptions
{
    /** Shared-pool worker threads (0 = hardware concurrency). */
    unsigned jobs = 1;
    /** Result-store path; empty = keep results in memory only. */
    std::string storePath;
    /**
     * Reuse stored results for matching spec keys instead of
     * re-running (--resume / cache hits).  Off = re-run everything and
     * overwrite.
     */
    bool reuseCached = false;
    /**
     * Abort on the first quarantined injection instead of counting it
     * Crash.  Operational, deliberately NOT a spec member: it never
     * changes the bytes a clean campaign stores — only whether a sick
     * one completes.
     */
    bool quarantineFail = false;
    /**
     * Live-progress outputs (strictly out-of-band, never part of the
     * spec or the stored bytes): a periodic stderr line and/or an
     * atomically-rewritten progress.json sampled every
     * progressInterval seconds.  Both off by default.
     */
    double progressInterval = 1.0;
    bool progressStderr = false;
    std::string progressPath;
};

struct SuiteResult
{
    /** One result per spec, in spec order. */
    std::vector<core::CampaignResult> results;
    /** Which specs were served from the store without running. */
    std::vector<bool> cached;
    std::uint64_t campaignsRun = 0;
    /**
     * Injections this run simulated or replayed from journals (cache
     * hits excluded) — the numerator of the suite's injections/sec.
     */
    std::uint64_t injectionsSimulated = 0;
    double wallSeconds = 0.0;
};

/** Runs a list of CampaignSpecs as one shared-pool suite. */
class SuiteScheduler
{
  public:
    explicit SuiteScheduler(std::vector<CampaignSpec> specs,
                            SuiteOptions opts = {});

    /**
     * Execute the suite.  Campaign failures (e.g. an unknown workload
     * name) propagate as exceptions after the remaining campaigns
     * finish.
     */
    SuiteResult run();

    const std::vector<CampaignSpec> &specs() const { return specs_; }

  private:
    std::vector<CampaignSpec> specs_;
    SuiteOptions opts_;
};

} // namespace merlin::sched

#endif // MERLIN_SCHED_SUITE_HH
