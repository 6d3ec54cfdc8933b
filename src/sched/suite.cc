#include "sched/suite.hh"

#include <exception>
#include <limits>

#include "base/logging.hh"
#include "obs/clock.hh"
#include "obs/progress.hh"
#include "obs/trace.hh"
#include "sched/service.hh"

namespace merlin::sched
{

using io::Json;

namespace
{

const char *
structureTag(uarch::Structure s)
{
    switch (s) {
      case uarch::Structure::RegisterFile: return "rf";
      case uarch::Structure::StoreQueue:   return "sq";
      case uarch::Structure::L1DCache:     return "l1d";
    }
    panic("bad structure");
}

uarch::Structure
structureFromTag(const std::string &s)
{
    if (s == "rf")
        return uarch::Structure::RegisterFile;
    if (s == "sq")
        return uarch::Structure::StoreQueue;
    if (s == "l1d")
        return uarch::Structure::L1DCache;
    fatal("suite: unknown structure '", s, "' (use rf | sq | l1d)");
}

const char *
splitTag(core::GroupingOptions::Split s)
{
    switch (s) {
      case core::GroupingOptions::Split::None:   return "none";
      case core::GroupingOptions::Split::Byte:   return "byte";
      case core::GroupingOptions::Split::Nibble: return "nibble";
      case core::GroupingOptions::Split::Bit:    return "bit";
    }
    panic("bad split");
}

core::GroupingOptions::Split
splitFromTag(const std::string &s)
{
    if (s == "none")
        return core::GroupingOptions::Split::None;
    if (s == "byte")
        return core::GroupingOptions::Split::Byte;
    if (s == "nibble")
        return core::GroupingOptions::Split::Nibble;
    if (s == "bit")
        return core::GroupingOptions::Split::Bit;
    fatal("suite: unknown split '", s,
          "' (use none | byte | nibble | bit)");
}

const char *
modeTag(CampaignSpec::Mode m)
{
    switch (m) {
      case CampaignSpec::Mode::Estimate:     return "estimate";
      case CampaignSpec::Mode::Truth:        return "truth";
      case CampaignSpec::Mode::GroupingOnly: return "grouping_only";
    }
    panic("bad mode");
}

CampaignSpec::Mode
modeFromTag(const std::string &s)
{
    if (s == "estimate")
        return CampaignSpec::Mode::Estimate;
    if (s == "truth")
        return CampaignSpec::Mode::Truth;
    if (s == "grouping_only")
        return CampaignSpec::Mode::GroupingOnly;
    fatal("suite: unknown mode '", s,
          "' (use estimate | truth | grouping_only)");
}

/** Members a spec/manifest entry may carry; anything else is a typo. */
const char *const kSpecMembers[] = {
    "workload",      "structure",      "regs",
    "sq_entries",    "l1d_kb",         "window",
    "faults",        "confidence",     "error_margin",
    "split",         "max_group_size", "reps_per_group",
    "seed",          "timeout_factor", "mode",
    "relyzer",       "path_depth",
};

void
checkSpecMembers(const Json &j, const char *what)
{
    for (const auto &[name, value] : j.members()) {
        (void)value;
        if (!isSpecMember(name))
            fatal("suite ", what, ": unknown member '", name, "'");
    }
}

/**
 * Member @p name of @p j read by @p read, or @p def when absent.  A
 * present member of the wrong type is fatal() by name: Json's *Or
 * accessors would read it as the default, and the campaign would be
 * stored under the default's key.
 */
template <typename T, typename Read>
T
member(const Json &j, const char *name, T def, Read read, const char *want)
{
    const Json *v = j.find(name);
    if (!v)
        return def;
    try {
        return read(*v);
    } catch (const FatalError &) {
        fatal("suite spec: ", name, " ", v->dump(), " is not ", want);
    }
}

/** An unsigned integer member, plain or a whole double ("2e3"). */
std::uint64_t
u64Member(const Json &j, const char *name, std::uint64_t def)
{
    return member(j, name, def, [](const Json &v) { return v.asU64(); },
                  "an unsigned integer");
}

std::string
strMember(const Json &j, const char *name, const std::string &def)
{
    return member(j, name, def,
                  [](const Json &v) { return v.asString(); }, "a string");
}

/** Member @p name of @p j for an `unsigned` field; fatal() by name when
 *  the value does not fit instead of truncating it. */
unsigned
u32Member(const Json &j, const char *name, unsigned def)
{
    const std::uint64_t v = u64Member(j, name, def);
    if (v > std::numeric_limits<unsigned>::max())
        fatal("suite spec: ", name, " ", v, " does not fit in 32 bits");
    return static_cast<unsigned>(v);
}

/**
 * A u32 member that must be at least 1.  The library clamps 0 to 1, so
 * accepting 0 would give one computation two store keys.
 */
unsigned
positiveU32Member(const Json &j, const char *name, unsigned def)
{
    const unsigned v = u32Member(j, name, def);
    if (v == 0)
        fatal("suite spec: ", name, " 0 must be at least 1");
    return v;
}

/** A sampling fraction member (confidence, error_margin) in (0, 1). */
double
fractionMember(const Json &j, const char *name, double def)
{
    const double v = member(
        j, name, def, [](const Json &m) { return m.asDouble(); }, "a number");
    if (!core::SamplingSpec::validFraction(v))
        fatal("suite spec: ", name, " ", v, " must be in (0, 1)");
    return v;
}

} // namespace

bool
isSpecMember(const std::string &name)
{
    for (const char *m : kSpecMembers) {
        if (name == m)
            return true;
    }
    return false;
}

// --------------------------------------------------------- CampaignSpec

core::CampaignConfig
CampaignSpec::campaignConfig(const workloads::BuiltWorkload &w) const
{
    core::CampaignConfig cc;
    cc.target = structure;
    cc.core = uarch::CoreConfig{}
                  .withRegisterFile(regs)
                  .withStoreQueue(sqEntries)
                  .withL1dKb(l1dKb);
    cc.core.instructionWindowEnd = window ? *window : w.suggestedWindow;
    cc.sampling = sampling;
    cc.grouping = grouping;
    cc.seed = seed;
    // Intra-campaign parallelism comes from the shared suite pool, not
    // from CampaignConfig::jobs.  The engine knobs keep their defaults.
    cc.runner.timeoutFactor = timeoutFactor;
    return cc;
}

Json
CampaignSpec::toJson() const
{
    // Fixed member order and a member for every field: this dump is
    // the content-hash input, so it must be a pure function of the
    // spec VALUE, never of how the spec was built.
    Json j = Json::object();
    j.set("workload", workload);
    j.set("structure", structureTag(structure));
    j.set("regs", regs);
    j.set("sq_entries", sqEntries);
    j.set("l1d_kb", l1dKb);
    j.set("window", window ? Json(*window) : Json());
    if (sampling.fixedCount) {
        j.set("faults", *sampling.fixedCount);
    } else {
        j.set("confidence", sampling.confidence);
        j.set("error_margin", sampling.errorMargin);
    }
    j.set("split", splitTag(grouping.split));
    j.set("max_group_size", grouping.maxGroupSize);
    j.set("reps_per_group", grouping.repsPerGroup);
    j.set("seed", seed);
    j.set("timeout_factor", timeoutFactor);
    j.set("mode", modeTag(mode));
    j.set("relyzer", relyzer);
    j.set("path_depth", pathDepth);
    return j;
}

CampaignSpec
CampaignSpec::fromJson(const Json &j)
{
    checkSpecMembers(j, "spec");
    CampaignSpec s;
    s.workload = strMember(j, "workload", "");
    if (s.workload.empty())
        fatal("suite spec: missing 'workload'");
    s.structure = structureFromTag(strMember(j, "structure", "rf"));
    // Geometry is checked against the same predicates the core and
    // cache assert, so a bad manifest or wire spec fails here, by
    // member name, instead of mid-suite inside the simulator.
    s.regs = u32Member(j, "regs", s.regs);
    if (!uarch::CoreConfig::validPhysIntRegs(s.regs))
        fatal("suite spec: regs ", s.regs, " must exceed the ",
              isa::NUM_RENAMEABLE_REGS,
              " renameable architectural registers and be at most 65535");
    s.sqEntries = u32Member(j, "sq_entries", s.sqEntries);
    if (!uarch::CoreConfig::validSqEntries(s.sqEntries))
        fatal("suite spec: sq_entries ", s.sqEntries,
              " must be at least 1");
    s.l1dKb = u32Member(j, "l1d_kb", s.l1dKb);
    if (!uarch::CoreConfig::validL1dKb(s.l1dKb))
        fatal("suite spec: l1d_kb ", s.l1dKb,
              " is not a buildable L1D size");
    if (const Json *w = j.find("window"); w && !w->isNull())
        s.window = u64Member(j, "window", 0);
    if (j.find("faults")) {
        // parseManifest sheds a style inherited from the defaults, so
        // both styles here were given at one level.
        if (j.find("confidence") || j.find("error_margin"))
            fatal("suite spec: faults and confidence/error_margin are "
                  "two sampling styles; give one");
        const std::uint64_t faults = u64Member(j, "faults", 0);
        if (faults == 0)
            fatal("suite spec: faults 0 must be at least 1");
        s.sampling = core::specFixed(faults);
    } else {
        s.sampling.confidence =
            fractionMember(j, "confidence", s.sampling.confidence);
        s.sampling.errorMargin =
            fractionMember(j, "error_margin", s.sampling.errorMargin);
    }
    s.grouping.split = splitFromTag(strMember(j, "split", "byte"));
    s.grouping.maxGroupSize =
        positiveU32Member(j, "max_group_size", s.grouping.maxGroupSize);
    s.grouping.repsPerGroup =
        positiveU32Member(j, "reps_per_group", s.grouping.repsPerGroup);
    s.seed = u64Member(j, "seed", s.seed);
    s.timeoutFactor =
        positiveU32Member(j, "timeout_factor", s.timeoutFactor);
    s.mode = modeFromTag(strMember(j, "mode", "estimate"));
    s.relyzer = member(j, "relyzer", false,
                       [](const Json &v) { return v.asBool(); },
                       "true or false");
    s.pathDepth = u32Member(j, "path_depth", s.pathDepth);
    return s;
}

std::string
CampaignSpec::key() const
{
    return io::contentKey(toJson());
}

bool
CampaignSpec::operator==(const CampaignSpec &o) const
{
    return toJson() == o.toJson();
}

std::vector<CampaignSpec>
parseManifest(const Json &manifest)
{
    if (!manifest.isObject())
        fatal("suite manifest: expected a top-level object");
    Json defaults = Json::object();
    if (const Json *d = manifest.find("defaults")) {
        checkSpecMembers(*d, "manifest defaults");
        defaults = *d;
    }
    const Json *camps = manifest.find("campaigns");
    if (!camps || !camps->isArray() || camps->size() == 0)
        fatal("suite manifest: 'campaigns' must be a non-empty array");

    std::vector<CampaignSpec> specs;
    specs.reserve(camps->size());
    for (const Json &entry : camps->items()) {
        if (!entry.isObject())
            fatal("suite manifest: campaign entries must be objects");
        Json merged = defaults;
        for (const auto &[name, value] : entry.members())
            merged.set(name, value);
        // The two sampling styles compete: an entry that chooses one
        // style sheds the other style inherited from the defaults, or a
        // defaults-level 'faults' would silently override a
        // per-campaign margin.  An entry naming both is refused by
        // fromJson.
        const bool fixed = entry.find("faults") != nullptr;
        const bool margin = entry.find("confidence") ||
                            entry.find("error_margin");
        if (fixed && !margin) {
            merged.erase("confidence");
            merged.erase("error_margin");
        } else if (margin && !fixed) {
            merged.erase("faults");
        }
        specs.push_back(CampaignSpec::fromJson(merged));
    }
    return specs;
}

std::vector<CampaignSpec>
selectSpecs(const std::vector<CampaignSpec> &specs, const SpecSelector &sel)
{
    if (sel.index >= specs.size())
        fatal("selection ", sel.describe(), " selects no campaign of the ",
              specs.size(), "-campaign manifest — use at most ",
              specs.size(), " worker", specs.size() == 1 ? "" : "s");
    std::vector<CampaignSpec> share;
    for (std::size_t i = sel.index; i < specs.size(); i += sel.count)
        share.push_back(specs[i]);
    return share;
}

// ------------------------------------------------------- SuiteScheduler

SuiteScheduler::SuiteScheduler(std::vector<CampaignSpec> specs,
                               SuiteOptions opts)
    : specs_(std::move(specs)), opts_(std::move(opts))
{
}

SuiteResult
SuiteScheduler::run()
{
    const obs::TimePoint t0 = obs::now();
    obs::Span suite_span("sched", "suite.run");
    SuiteResult out;
    out.results.resize(specs_.size());
    out.cached.assign(specs_.size(), false);

    // Live progress: inert unless an output is configured, so the
    // counters are maintained unconditionally at relaxed-atomic cost.
    obs::ProgressSink progress(obs::ProgressSink::Options{
        opts_.progressInterval, opts_.progressStderr, opts_.progressPath});
    progress.campaignsTotal.store(specs_.size(),
                                  std::memory_order_relaxed);

    // The engine: a CampaignService scoped to this one suite, loading
    // the store only under --resume.  startPaused preserves the batch
    // phase structure: every cache hit resolves against the loaded
    // store BEFORE any campaign mutates it, so reports and store bytes
    // cannot depend on submission/completion races.
    CampaignService::Config cfg;
    cfg.jobs = opts_.jobs;
    cfg.storePath = opts_.storePath;
    cfg.quarantineFail = opts_.quarantineFail;
    cfg.loadStore = opts_.reuseCached;
    cfg.startPaused = true;
    CampaignService svc(cfg);

    // Submit every spec; cache hits resolve immediately on this thread
    // (the service is paused, so nothing mutates the store underneath
    // the lookups), misses queue for the drivers.
    CampaignService::SubmitOptions sopts;
    sopts.reuseCached = opts_.reuseCached;
    sopts.client = "suite";
    sopts.progress = &progress;
    std::vector<CampaignService::TicketPtr> tickets(specs_.size());
    for (std::size_t i = 0; i < specs_.size(); ++i)
        tickets[i] = svc.submit(specs_[i], sopts);

    // Unpause: the drivers spin up (one per pool worker, at most) and
    // run the queued campaigns with cross-campaign work stealing.
    svc.resume();

    std::exception_ptr firstError;
    std::uint64_t ran = 0;
    for (std::size_t i = 0; i < specs_.size(); ++i) {
        if (!tickets[i])
            continue;
        const CampaignService::State st = tickets[i]->wait();
        if (st == CampaignService::State::Failed) {
            // A campaign failure is recorded and the rest of the suite
            // still runs; the first one propagates afterwards.
            if (!firstError)
                firstError = tickets[i]->error();
            continue;
        }
        if (st != CampaignService::State::Done)
            continue;
        const CampaignService::Outcome &o = tickets[i]->outcome();
        out.results[i] = o.result;
        out.cached[i] = o.cached;
        if (!o.cached)
            ++ran;
    }
    svc.drain();
    if (firstError)
        std::rethrow_exception(firstError);

    out.campaignsRun = ran;
    out.injectionsSimulated =
        progress.injections.load(std::memory_order_relaxed);
    out.wallSeconds = obs::secondsSince(t0);
    progress.finish();
    return out;
}

} // namespace merlin::sched
