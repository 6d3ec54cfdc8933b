/**
 * @file
 * The traced run: one untraced repetition (outcomes, pool idle, the
 * daemon's or the suite's I/O counters), then a serial pass over the
 * same specs that calls each layer through its public entry point
 * inside the benchmark's own spans, then probes of the store, service
 * and wire layers.  Spans are kept in memory and written as Chrome
 * trace JSON when the run ends.
 *
 * The traced pass recomputes every campaign's outcome from the layer
 * calls and must match the untraced run exactly; its spans must cover
 * at least 95% of its wall time.
 */

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <set>

#include "base/rng.hh"
#include "faultsim/runner.hh"
#include "io/result_store.hh"
#include "merlin/grouping.hh"
#include "merlin/sampling.hh"
#include "obs/metrics.hh"
#include "profile/ace.hh"
#include "sched/service.hh"
#include "serve.hh"
#include "uarch/core.hh"
#include "workloads/workloads.hh"

namespace ledger
{

namespace
{

namespace core = merlin::core;
namespace faultsim = merlin::faultsim;
namespace uarch = merlin::uarch;

constexpr double kMinCoverage = 0.95;
/** Grouping-only campaigns inject this many representatives as a
 *  probe of the injection layer; the probe is not part of outcomes. */
constexpr std::size_t kProbeInjections = 2;
/** Golden checkpoints restored per campaign by the snapshot probe. */
constexpr std::size_t kRestoreProbes = 4;
/** Cycles a restored core runs before the capture probe, so capture
 *  copies what a golden-run checkpoint interval dirties. */
constexpr int kCaptureAfterCycles = 512;
constexpr int kWireRoundTrips = 200;
constexpr std::uint64_t kProbePairs = 400;
constexpr double kProbeRate = 2'000.0;

const char *const kTracedStore = "traced-store.json";

/** In-memory spans of the traced pass (single-threaded). */
class SpanLog
{
  public:
    static constexpr std::uint32_t kNone = UINT32_MAX;

    struct Span
    {
        std::string name;
        std::uint32_t parent = kNone;
        std::uint32_t req = kNone; ///< campaign the span worked for
        Clock::time_point t0, t1;
        bool leaf = true;

        double seconds() const { return secondsBetween(t0, t1); }
    };

    class Scope
    {
      public:
        Scope(SpanLog &log, std::string name,
              std::uint32_t req = SpanLog::kNone)
            : log_(log), idx_(log.open(std::move(name), req))
        {
        }
        ~Scope() { log_.close(idx_); }

        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        SpanLog &log_;
        std::uint32_t idx_;
    };

    std::uint32_t
    open(std::string name, std::uint32_t req)
    {
        const auto idx = static_cast<std::uint32_t>(spans_.size());
        Span s;
        s.name = std::move(name);
        s.req = req;
        if (!stack_.empty()) {
            s.parent = stack_.back();
            spans_[s.parent].leaf = false;
        }
        s.t0 = Clock::now();
        spans_.push_back(std::move(s));
        stack_.push_back(idx);
        return idx;
    }

    void
    close(std::uint32_t idx)
    {
        spans_[idx].t1 = Clock::now();
        stack_.pop_back();
    }

    std::vector<double>
    durations(const std::string &name) const
    {
        std::vector<double> out;
        for (const Span &s : spans_) {
            if (s.name == name)
                out.push_back(s.seconds());
        }
        return out;
    }

    double
    total(const std::string &name) const
    {
        double t = 0;
        for (double d : durations(name))
            t += d;
        return t;
    }

    /** Seconds attributed to a layer: the sum over leaf spans (the pass
     *  is serial, so leaves never overlap). */
    double
    leafSeconds() const
    {
        double t = 0;
        for (const Span &s : spans_) {
            if (s.leaf)
                t += s.seconds();
        }
        return t;
    }

    std::size_t size() const { return spans_.size(); }

    /** Chrome trace_event JSON, timestamps relative to @p origin. */
    Json
    chromeTrace(Clock::time_point origin) const
    {
        Json events = Json::array();
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            const std::size_t dot = s.name.find_first_of(". ");
            Json args = Json::object();
            args.set("id", static_cast<std::uint64_t>(i));
            if (s.parent != kNone)
                args.set("parent", static_cast<std::uint64_t>(s.parent));
            if (s.req != kNone)
                args.set("campaign", static_cast<std::uint64_t>(s.req));
            Json e = Json::object();
            e.set("name", s.name);
            e.set("cat", s.name.substr(0, dot));
            e.set("ph", "X");
            e.set("ts", secondsBetween(origin, s.t0) * 1e6);
            e.set("dur", s.seconds() * 1e6);
            e.set("pid", 1);
            e.set("tid", 1);
            e.set("args", args);
            events.push(e);
        }
        Json doc = Json::object();
        doc.set("traceEvents", events);
        doc.set("displayTimeUnit", "ms");
        return doc;
    }

  private:
    std::vector<Span> spans_;
    std::vector<std::uint32_t> stack_;
};

/** Work counts the per-layer rates divide by. */
struct LayerCounts
{
    double goldenCycles = 0;
    double bareCycles = 0;
    double initialFaults = 0;
    double restores = 0;
    double restoreBytes = 0;
    double saves = 0;
    double storeBytes = 0;
    std::set<std::string> bareRun; ///< core configs already timed bare
};

double
mean(const std::vector<double> &v)
{
    double s = 0;
    for (double x : v)
        s += x;
    return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

std::map<std::string, std::uint64_t>
registryCounters()
{
    std::map<std::string, std::uint64_t> out;
    for (const auto &[name, value] :
         merlin::obs::Registry::global().snapshot().counters)
        out[name] = value;
    return out;
}

/** @p name's growth between two registry reads; nullopt when the
 *  engine no longer has the counter. */
std::optional<double>
counterDelta(const std::map<std::string, std::uint64_t> &before,
             const std::map<std::string, std::uint64_t> &after,
             const std::string &name)
{
    const auto a = after.find(name);
    if (a == after.end())
        return std::nullopt;
    const auto b = before.find(name);
    return static_cast<double>(a->second -
                               (b == before.end() ? 0 : b->second));
}

unsigned
entriesOf(const core::CampaignConfig &cc)
{
    switch (cc.target) {
      case uarch::Structure::RegisterFile: return cc.core.numPhysIntRegs;
      case uarch::Structure::StoreQueue: return cc.core.sqEntries;
      case uarch::Structure::L1DCache: return cc.core.l1d.totalWords();
    }
    return 0;
}

Json
countsJson(const core::ClassCounts &c)
{
    Json a = Json::array();
    for (std::uint64_t n : c.counts)
        a.push(n);
    return a;
}

/**
 * The outcome fields, computed from the layer results exactly as a
 * campaign folds them: each group takes its representatives' majority
 * outcome, ACE-pruned faults are Masked, truth sums every survivor.
 */
Json
foldOutcome(std::size_t initial, const core::GroupingResult &g,
            const std::vector<faultsim::Outcome> &outcomes,
            std::size_t num_reps, const CampaignSpec &spec)
{
    core::ClassCounts estimate;
    if (spec.mode != CampaignSpec::Mode::GroupingOnly) {
        std::size_t at = 0;
        for (const core::FaultGroup &grp : g.groups) {
            std::array<std::uint64_t, faultsim::NUM_OUTCOMES> votes{};
            for (std::size_t r = 0; r < grp.representatives.size(); ++r)
                ++votes[static_cast<unsigned>(outcomes[at++])];
            const auto winner = static_cast<faultsim::Outcome>(
                std::max_element(votes.begin(), votes.end()) -
                votes.begin());
            estimate.add(winner, grp.members.size());
        }
        estimate.add(faultsim::Outcome::Masked, g.aceMasked);
    }
    Json o = Json::object();
    o.set("initial_faults", static_cast<std::uint64_t>(initial));
    o.set("ace_masked", g.aceMasked);
    o.set("survivors", static_cast<std::uint64_t>(g.survivors.size()));
    o.set("num_groups", static_cast<std::uint64_t>(g.groups.size()));
    o.set("injections", g.numInjections());
    o.set("merlin_estimate", countsJson(estimate));
    if (spec.mode == CampaignSpec::Mode::Truth) {
        core::ClassCounts truth;
        for (std::size_t i = num_reps; i < outcomes.size(); ++i)
            truth.add(outcomes[i]);
        o.set("survivor_truth", countsJson(truth));
    }
    return o;
}

/** One campaign through the layers, in spans; returns its outcome. */
Json
tracedCampaign(const CampaignSpec &spec,
               const merlin::workloads::BuiltWorkload &wl,
               std::uint32_t req, SpanLog &log, LayerCounts &lc)
{
    using Scope = SpanLog::Scope;
    Scope campaign(log, "campaign " + labelOf(spec), req);
    const core::CampaignConfig cc = spec.campaignConfig(wl);
    // Engine knobs stay at their defaults, as every ledger spec leaves
    // them; outcomes do not depend on them anyway.
    const faultsim::InjectionRunner runner(wl.program, cc.core,
                                           faultsim::RunnerOptions{});
    merlin::profile::AceProfiler profiler(cc.core.numPhysIntRegs,
                                          cc.core.sqEntries,
                                          cc.core.l1d.totalWords());
    faultsim::GoldenRun golden;
    {
        Scope s(log, "faultsim.golden", req);
        golden = runner.golden(&profiler);
    }
    lc.goldenCycles += static_cast<double>(golden.stats.cycles);
    {
        Scope s(log, "profile.finalize", req);
        profiler.finalize();
    }
    merlin::Rng rng(cc.seed);
    std::vector<faultsim::Fault> initial;
    {
        Scope s(log, "merlin.sample", req);
        initial = core::sampleFaults(cc.target, entriesOf(cc),
                                     golden.stats.cycles, cc.sampling, rng);
    }
    lc.initialFaults += static_cast<double>(initial.size());
    core::GroupingResult g;
    {
        Scope s(log, "merlin.group", req);
        g = core::groupFaults(initial, profiler.profile(cc.target),
                              cc.grouping, rng);
    }

    // Representatives first, then (ground truth) every survivor.
    std::vector<faultsim::Fault> faults;
    for (const core::FaultGroup &grp : g.groups) {
        for (std::uint32_t r : grp.representatives)
            faults.push_back(g.survivors[r].fault);
    }
    const std::size_t num_reps = faults.size();
    if (spec.mode == CampaignSpec::Mode::Truth) {
        for (const core::FaultGroup &grp : g.groups) {
            for (std::uint32_t m : grp.members)
                faults.push_back(g.survivors[m].fault);
        }
    } else if (spec.mode == CampaignSpec::Mode::GroupingOnly) {
        faults.resize(std::min(faults.size(), kProbeInjections));
    }
    std::vector<faultsim::Outcome> outcomes;
    if (!faults.empty()) {
        faultsim::BatchPlan plan;
        {
            Scope s(log, "faultsim.plan", req);
            plan = runner.planBatch(faults);
        }
        for (std::uint32_t i : plan.work) {
            Scope s(log, "faultsim.inject", req);
            plan.outcomes[i] = runner.inject(faults[i], golden);
        }
        {
            Scope s(log, "faultsim.finish", req);
            runner.finishBatch(plan);
        }
        outcomes = std::move(plan.outcomes);
    }
    Json outcome;
    {
        Scope s(log, "merlin.fold", req);
        outcome = foldOutcome(initial.size(), g, outcomes, num_reps, spec);
    }

    // Probe: the bare core loop, once per core configuration.
    const std::string config = spec.workload + "/" +
                               std::to_string(spec.regs) + "/" +
                               std::to_string(spec.sqEntries) + "/" +
                               std::to_string(spec.l1dKb);
    if (lc.bareRun.insert(config).second) {
        Scope s(log, "uarch.core_run", req);
        uarch::Core bare(wl.program, cc.core);
        bare.run();
        lc.bareCycles += static_cast<double>(bare.stats().cycles);
    }
    // Probe: restore golden checkpoints spread over the run, run each
    // restored core one checkpoint interval, capture it again.
    const auto &cps = golden.checkpoints;
    const std::size_t n = std::min(cps.size(), kRestoreProbes);
    for (std::size_t k = 0; k < n; ++k) {
        const uarch::Core::Snapshot &snap =
            cps[(2 * k + 1) * cps.size() / (2 * n)];
        uarch::SnapshotStats st;
        std::optional<uarch::Core> restored;
        {
            Scope s(log, "uarch.snapshot_restore", req);
            restored.emplace(wl.program, cc.core, snap, &st);
        }
        lc.restores += 1;
        lc.restoreBytes += static_cast<double>(st.bytesCopied);
        {
            Scope s(log, "uarch.tick", req);
            for (int c = 0; c < kCaptureAfterCycles && restored->tick(); ++c) {
            }
        }
        Scope s(log, "uarch.snapshot_capture", req);
        const uarch::Core::Snapshot again = restored->snapshot();
    }
    return outcome;
}

/** The untraced repetition's facts the per-layer metrics need. */
struct Untraced
{
    Outcomes outcomes; ///< keyed as the traced pass keys them
    std::vector<Json> results;
    double wall = 0.0;
    double poolCpu = 0.0; ///< CPU of the process running the pool
    std::optional<double> journalFsyncs;
    double cacheHitFrac = -1.0; ///< < 0: take the warm probe's
    std::vector<double> genLateMs;
};

void
readDaemonFsyncs(const std::string &path, Untraced &u)
{
    const std::optional<Json> doc = readJsonFile(path);
    if (!doc)
        return;
    if (const Json *c = doc->find("counters")) {
        if (const Json *f = c->find("journal.fsyncs"))
            u.journalFsyncs = f->asDouble();
    }
}

Untraced
untracedRep(const Workload &w, Tally &tally, Outcomes &all)
{
    Untraced u;
    if (w.service) {
        ServiceRig rig;
        generateWarm(w, rig, tally);
        const std::string metrics = "daemon-metrics.json";
        std::error_code ec;
        std::filesystem::remove(metrics, ec);
        startService(w, rig, tally, metrics);
        ServiceRep s = serviceRep(w, 0, rig, tally);
        const Json stats = serviceStats(rig);
        rig.interactive.reset();
        rig.sweep.reset();
        if (!rig.daemon->stop())
            tally.fail("merlin_serve did not drain cleanly");
        readDaemonFsyncs(metrics, u);
        u.cacheHitFrac =
            static_cast<double>(stats.u64Or("cache_hits", 0)) /
            static_cast<double>(
                std::max<std::uint64_t>(stats.u64Or("submitted", 0), 1));
        u.genLateMs = s.warm.lateMs;
        u.outcomes = s.outcomes;
        u.results = std::move(s.results);
        u.wall = s.wall;
        u.poolCpu = s.poolCpu;
        all = std::move(s.outcomes);
        all.insert(rig.warmOutcomes.begin(), rig.warmOutcomes.end());
    } else {
        const auto before = registryCounters();
        BatchRep b = batchRep(w, 0, tally);
        if (w.onDiskStore)
            u.journalFsyncs =
                counterDelta(before, registryCounters(), "journal.fsyncs");
        else
            u.journalFsyncs = 0.0; // no store, no journals
        u.outcomes = b.outcomes;
        u.results = std::move(b.results);
        u.wall = b.wall;
        u.poolCpu = b.cpu;
        all = std::move(b.outcomes);
    }
    return u;
}

} // namespace

RunReport
tracedRun(const Workload &w, const RunOptions &opts)
{
    RunReport rep;
    Tally &tally = rep.tally;
    Outcomes all;
    const Untraced u = untracedRep(w, tally, all);
    for (const auto &[label, o] : all)
        checkInvariants(label, o, groupingOnly(w), tally);
    if (!opts.smoke && !checkExpected(w.name, opts.seed, all, tally))
        std::fprintf(stderr, "merlin_ledger: seed %llu of %s is unverified\n",
                     static_cast<unsigned long long>(opts.seed),
                     w.name.c_str());

    // ---- the traced pass
    using Scope = SpanLog::Scope;
    SpanLog log;
    LayerCounts lc;
    Outcomes traced;
    // The traced pass runs input set 0, like the untraced repetition.
    const std::vector<CampaignSpec> &specs = w.sets[0];
    const std::string prefix = w.service ? "sweep/" : "";
    const auto counters0 = registryCounters();
    {
        std::error_code ec;
        std::filesystem::remove(kTracedStore, ec);
    }
    merlin::io::ResultStore store(kTracedStore);
    const Clock::time_point pass0 = Clock::now();

    std::map<std::string, merlin::workloads::BuiltWorkload> programs;
    for (const CampaignSpec &spec : specs) {
        if (!programs.count(spec.workload)) {
            Scope s(log, "workloads.build");
            programs.emplace(spec.workload,
                             merlin::workloads::buildWorkload(spec.workload));
        }
    }
    // The untraced results, as stored: what the store, service and
    // wire probes serve back.
    std::vector<CampaignSpec> storedSpecs;
    std::vector<Json> storedResults;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const CampaignSpec &spec = specs[i];
        const auto req = static_cast<std::uint32_t>(i);
        traced[prefix + setLabel(0, spec)] = tracedCampaign(
            spec, programs.at(spec.workload), req, log, lc);
        if (i >= u.results.size() || u.results[i].isNull())
            continue;
        const merlin::core::CampaignResult res =
            merlin::io::resultFromJson(u.results[i]);
        {
            Scope s(log, "io.store_save", req);
            store.put(spec.key(), spec.toJson(), res);
            store.save();
        }
        lc.saves += 1;
        lc.storeBytes +=
            static_cast<double>(std::filesystem::file_size(kTracedStore));
        {
            // What a daemon does per result reply: encode, then dump.
            Scope s(log, "io.result_json", req);
            Json encoded = merlin::io::resultToJson(res);
            (void)encoded.dump();
            storedResults.push_back(std::move(encoded));
        }
        storedSpecs.push_back(spec);
    }
    const auto counters1 = registryCounters();

    // Probe: warm submissions to an in-process service over the store.
    double warmHitFrac = 0.0;
    if (!storedSpecs.empty()) {
        std::unique_ptr<merlin::sched::CampaignService> svc;
        {
            Scope s(log, "sched.service_start");
            merlin::sched::CampaignService::Config cfg;
            cfg.jobs = 1;
            cfg.storePath = kTracedStore;
            cfg.loadStore = true;
            svc = std::make_unique<merlin::sched::CampaignService>(cfg);
        }
        merlin::sched::CampaignService::SubmitOptions sopts;
        sopts.reuseCached = true;
        sopts.client = "ledger";
        for (std::size_t i = 0; i < storedSpecs.size(); ++i) {
            ++tally.attempted;
            bool hit = false;
            {
                Scope s(log, "sched.warm_submit",
                        static_cast<std::uint32_t>(i));
                const auto ticket = svc->submit(storedSpecs[i], sopts);
                hit = ticket &&
                      ticket->wait() ==
                          merlin::sched::CampaignService::State::Done &&
                      ticket->outcome().cached;
            }
            if (!hit)
                tally.fail(labelOf(storedSpecs[i]) +
                           ": warm in-process submit was not a cache hit");
        }
        const auto stats = svc->stats();
        warmHitFrac = static_cast<double>(stats.cacheHits) /
                      static_cast<double>(std::max<std::uint64_t>(
                          stats.submitted, 1));
        Scope s(log, "sched.service_stop");
        svc.reset();
    }

    // Probe: the wire layer against a daemon over the same store.
    OpenLoop probe;
    if (!storedSpecs.empty()) {
        std::unique_ptr<Daemon> daemon;
        std::unique_ptr<Client> client;
        {
            Scope s(log, "io.daemon_start");
            daemon = std::make_unique<Daemon>("probe.sock", kTracedStore, 1);
            client = std::make_unique<Client>("probe.sock", "probe", 5.0);
        }
        Json status = Json::object();
        status.set("type", "status");
        try {
            for (int k = 0; k < kWireRoundTrips; ++k) {
                ++tally.attempted;
                Scope s(log, "io.wire_rtt");
                client->request(status);
            }
        } catch (const std::exception &e) {
            tally.fail(std::string("wire probe: ") + e.what());
        }
        {
            Scope s(log, "bench.open_loop");
            const std::atomic<bool> never{false};
            openLoop(*client, storedSpecs, storedResults, kProbeRate, never,
                     kProbePairs, probe, tally);
        }
        Scope s(log, "io.daemon_stop");
        client.reset();
        if (!daemon->stop())
            tally.fail("probe merlin_serve did not drain cleanly");
    }
    const double passWall = secondsBetween(pass0, Clock::now());

    // What one span costs the pass: record a batch of empty ones.
    double perSpan = 0.0;
    {
        SpanLog scratch;
        constexpr int kSpans = 10'000;
        const Clock::time_point t0 = Clock::now();
        for (int i = 0; i < kSpans; ++i)
            Scope s(scratch, "faultsim.inject", 0);
        perSpan = secondsBetween(t0, Clock::now()) / kSpans;
    }

    checkSame(u.outcomes, traced, "the untraced run", tally);
    const double coverage = log.leafSeconds() / passWall;
    if (coverage < kMinCoverage) {
        rep.correct = false;
        std::fprintf(stderr,
                     "merlin_ledger: FAILED: spans cover %.3f of the traced "
                     "pass (need %.2f)\n",
                     coverage, kMinCoverage);
    }

    // ---- per-layer metrics
    Metrics &m = rep.metrics;
    const std::vector<double> inject = log.durations("faultsim.inject");
    const double golden_s = log.total("faultsim.golden");
    const double group_s = log.total("merlin.group");
    m.set("workloads.build_s", log.total("workloads.build"), "s");
    m.set("uarch.core_mcycles_per_s",
          lc.bareCycles / log.total("uarch.core_run") / 1e6, "Mcycles/s");
    m.set("uarch.snapshot_restore_us",
          mean(log.durations("uarch.snapshot_restore")) * 1e6, "us");
    m.set("uarch.restore_kb_copied", lc.restoreBytes / lc.restores / 1024,
          "KiB");
    m.set("uarch.snapshot_capture_us",
          mean(log.durations("uarch.snapshot_capture")) * 1e6, "us");
    m.set("faultsim.golden_s", golden_s, "s");
    m.set("faultsim.golden_mcycles_per_s", lc.goldenCycles / golden_s / 1e6,
          "Mcycles/s");
    m.set("profile.finalize_s", log.total("profile.finalize"), "s");
    m.set("merlin.sample_s", log.total("merlin.sample"), "s");
    m.set("merlin.group_s", group_s, "s");
    m.set("merlin.group_mfaults_per_s", lc.initialFaults / group_s / 1e6,
          "Mfaults/s");
    m.set("faultsim.inject_s", log.total("faultsim.inject"), "s");
    m.set("faultsim.inject_p50_ms", percentile(inject, 50) * 1e3, "ms");
    m.set("faultsim.inject_p99_ms", percentile(inject, 99) * 1e3, "ms");
    const auto runs = counterDelta(counters0, counters1, "inject.runs");
    const auto early =
        counterDelta(counters0, counters1, "inject.early_exits");
    const auto dead =
        counterDelta(counters0, counters1, "inject.replay_masked");
    if (runs && *runs > 0) {
        if (early)
            m.set("faultsim.early_exit_frac", *early / *runs, "ratio");
        if (dead)
            m.set("faultsim.replay_masked_frac", *dead / *runs, "ratio");
    }
    m.set("sched.pool_idle_frac", 1.0 - u.poolCpu / (u.wall * kWorkers),
          "ratio");
    m.set("io.store_save_ms", mean(log.durations("io.store_save")) * 1e3,
          "ms");
    m.set("io.store_save_kb", lc.storeBytes / lc.saves / 1024, "KiB");
    if (u.journalFsyncs)
        m.set("io.journal_fsyncs", *u.journalFsyncs, "count");
    m.set("io.wire_rtt_us", median(log.durations("io.wire_rtt")) * 1e6,
          "us");
    m.set("io.result_json_us", mean(log.durations("io.result_json")) * 1e6,
          "us");
    m.set("sched.warm_submit_us",
          median(log.durations("sched.warm_submit")) * 1e6, "us");
    m.set("sched.cache_hit_frac",
          u.cacheHitFrac >= 0 ? u.cacheHitFrac : warmHitFrac, "ratio");
    m.set("bench.gen_late_p99_ms",
          percentile(w.service ? u.genLateMs : probe.lateMs, 99), "ms");
    m.set("trace.coverage_frac", coverage, "ratio");
    m.set("trace.overhead_frac",
          perSpan * static_cast<double>(log.size()) / passWall, "ratio");

    if (!opts.traceOut.empty()) {
        std::ofstream out(opts.traceOut);
        out << log.chromeTrace(pass0).dump() << "\n";
        if (!out)
            tally.fail("cannot write the trace to " + opts.traceOut);
    }
    return rep;
}

} // namespace ledger
