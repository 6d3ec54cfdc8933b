/**
 * @file
 * The measured run: set up several times, then repeat the workload's
 * measured unit (a batch suite on a cold store, or the service's cold
 * sweep under the interactive open loop) until --seconds are spent, and
 * report medians.  Repetitions cycle through the workload's input sets,
 * and a repeated set must reproduce its outcomes exactly — a
 * determinism check on every run.
 */

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <set>
#include <thread>

#include "io/result_store.hh"
#include "ledger.hh"
#include "serve.hh"
#include "workloads/workloads.hh"

namespace ledger
{

namespace
{

// Set-up samples are spread over the whole run, as wall_s is: on the
// reference host a task of a few milliseconds runs at one of two
// speeds, 1.6x apart, switching every few seconds, so one burst of
// samples would land on a single speed.
constexpr auto kBatchSetupEvery = std::chrono::milliseconds(250);
constexpr int kServiceSetupsPerRep = 3;
/** A sanity bound on MeRLiN's accuracy: the paper's estimates sit
 *  within a fraction of a point of exhaustive injection. */
constexpr double kMaxAvfErrPp = 0.5;
/** The interactive latency target of service_mixed. */
constexpr double kWarmP99LimitMs = 1.0;

const char *const kBatchStore = "batch-store.json";

/** Times a batch set-up every kBatchSetupEvery on its own thread, from
 *  construction until stop(). */
class SetupSampler
{
  public:
    SetupSampler(const std::string &name, std::uint64_t seed, bool smoke)
        : thread_([this, name, seed, smoke] { loop(name, seed, smoke); })
    {
    }
    ~SetupSampler() { stop(); }

    SetupSampler(const SetupSampler &) = delete;
    SetupSampler &operator=(const SetupSampler &) = delete;

    /** Stop sampling and join; afterwards samples() and error() are
     *  stable. */
    void
    stop()
    {
        running_ = false;
        if (thread_.joinable())
            thread_.join();
    }

    const std::vector<double> &samples() const { return samples_; }
    const std::string &error() const { return error_; }

  private:
    void
    loop(const std::string &name, std::uint64_t seed, bool smoke)
    {
        try {
            while (running_) {
                samples_.push_back(setupBatch(name, seed, smoke));
                const Clock::time_point next =
                    Clock::now() + kBatchSetupEvery;
                while (running_ && Clock::now() < next)
                    std::this_thread::sleep_for(std::chrono::milliseconds(5));
            }
        } catch (const std::exception &e) {
            error_ = e.what();
        }
    }

    std::atomic<bool> running_{true};
    std::vector<double> samples_;
    std::string error_;
    std::thread thread_; ///< last: it starts on the members above
};

} // namespace

bool
groupingOnly(const Workload &w)
{
    return !w.sets.empty() && !w.sets[0].empty() &&
           w.sets[0][0].mode == CampaignSpec::Mode::GroupingOnly;
}

double
setupBatch(const std::string &name, std::uint64_t seed, bool smoke)
{
    const Clock::time_point t0 = Clock::now();
    const Workload w = makeWorkload(name, seed, smoke);
    std::set<std::string> programs;
    for (const std::vector<CampaignSpec> &set : w.sets) {
        for (const CampaignSpec &spec : set)
            programs.insert(spec.workload);
    }
    for (const std::string &p : programs)
        merlin::workloads::buildWorkload(p);
    return secondsBetween(t0, Clock::now());
}

BatchRep
batchRep(const Workload &w, unsigned set, Tally &tally)
{
    BatchRep rep;
    const std::vector<CampaignSpec> &specs = w.sets[set];
    merlin::sched::SuiteOptions opts;
    opts.jobs = kWorkers;
    if (w.onDiskStore) {
        opts.storePath = kBatchStore;
        std::error_code ec;
        std::filesystem::remove(kBatchStore, ec);
        std::filesystem::remove_all(opts.storePath + ".journal", ec);
    }
    tally.attempted += specs.size();
    const double cpu0 = processCpuSeconds();
    const Clock::time_point t0 = Clock::now();
    try {
        const merlin::sched::SuiteResult suite =
            merlin::sched::SuiteScheduler(specs, opts).run();
        rep.wall = secondsBetween(t0, Clock::now());
        rep.cpu = processCpuSeconds() - cpu0;
        for (std::size_t i = 0; i < specs.size(); ++i) {
            const Json result = merlin::io::resultToJson(suite.results[i]);
            const std::string label = setLabel(set, specs[i]);
            if (const std::uint64_t q = quarantinedOf(result))
                tally.fail(label + ": " + std::to_string(q) +
                           " injection(s) quarantined");
            rep.outcomes[label] = outcomeOf(result);
            rep.results.push_back(result);
        }
    } catch (const std::exception &e) {
        rep.wall = secondsBetween(t0, Clock::now());
        rep.cpu = processCpuSeconds() - cpu0;
        tally.fail(std::string("suite: ") + e.what());
    }
    return rep;
}

RunReport
measureRun(const Workload &w, const RunOptions &opts)
{
    RunReport rep;
    Tally &tally = rep.tally;
    ServiceRig rig;

    std::vector<double> setups;
    std::optional<SetupSampler> sampler;
    if (w.service)
        generateWarm(w, rig, tally);
    else
        sampler.emplace(w.name, opts.seed, opts.smoke);

    // Every input set runs at least once; a repeated set must reproduce
    // its first repetition's outcomes exactly.
    std::vector<Outcomes> firstOf(kInputSets);
    Outcomes all = rig.warmOutcomes;
    std::vector<double> walls, cpus, repSeconds, latencyMs;
    double initial = 0, injected = 0;
    const Clock::time_point t0 = Clock::now();
    do {
        const Clock::time_point r0 = Clock::now();
        const auto set = static_cast<unsigned>(walls.size() % kInputSets);
        Outcomes outcomes;
        if (w.service) {
            for (int i = 0; i < kServiceSetupsPerRep; ++i)
                setups.push_back(startService(w, rig, tally));
            ServiceRep s = serviceRep(w, set, rig, tally);
            walls.push_back(s.wall);
            cpus.push_back(s.cpu);
            outcomes = std::move(s.outcomes);
            latencyMs.insert(latencyMs.end(), s.warm.latencyMs.begin(),
                             s.warm.latencyMs.end());
        } else {
            BatchRep b = batchRep(w, set, tally);
            walls.push_back(b.wall);
            cpus.push_back(b.cpu);
            outcomes = std::move(b.outcomes);
        }
        for (const auto &[label, o] : outcomes) {
            (void)label;
            initial += static_cast<double>(o.u64Or("initial_faults", 0));
            injected += static_cast<double>(injectedOf(o));
        }
        if (walls.size() <= kInputSets) {
            for (const auto &[label, o] : outcomes)
                checkInvariants(label, o, groupingOnly(w), tally);
            all.insert(outcomes.begin(), outcomes.end());
            firstOf[set] = std::move(outcomes);
        } else {
            checkSame(firstOf[set], outcomes,
                      "repetition " + std::to_string(set + 1), tally);
        }
        repSeconds.push_back(secondsBetween(r0, Clock::now()));
        std::fprintf(stderr,
                     "merlin_ledger: %s repetition %zu (input set %u): "
                     "%.3f s wall, %.3f s cpu\n",
                     w.name.c_str(), walls.size(), set, walls.back(),
                     cpus.back());
    } while (walls.size() < kInputSets ||
             secondsBetween(t0, Clock::now()) + median(repSeconds) <=
                 opts.seconds);

    if (sampler) {
        sampler->stop();
        setups = sampler->samples();
        if (!sampler->error().empty())
            tally.fail("set-up: " + sampler->error());
    }
    double rss = processPeakRssMb();
    if (w.service) {
        rss += rig.daemon->peakRssMb();
        rig.interactive.reset();
        rig.sweep.reset();
        if (!rig.daemon->stop())
            tally.fail("merlin_serve did not drain cleanly");
    }

    if (opts.writeExpected)
        writeExpected(w.name, opts.seed, all);
    else if (!opts.smoke && !checkExpected(w.name, opts.seed, all, tally))
        std::fprintf(stderr,
                     "merlin_ledger: seed %llu of %s is unverified (no "
                     "committed expectation); checked for determinism and "
                     "consistency only\n",
                     static_cast<unsigned long long>(opts.seed),
                     w.name.c_str());

    // The paper's speedup: initial faults per injected representative,
    // over every campaign of every input set.
    double setInitial = 0, representatives = 0;
    for (const auto &[label, o] : all) {
        if (label.rfind("warm/", 0) == 0)
            continue;
        setInitial += static_cast<double>(o.u64Or("initial_faults", 0));
        representatives += static_cast<double>(o.u64Or("injections", 0));
    }
    double totalWall = 0;
    for (double s : walls)
        totalWall += s;

    Metrics &m = rep.metrics;
    m.set("wall_s", median(walls), "s");
    m.set("cpu_s", median(cpus), "s");
    m.set("faults_per_s", initial / totalWall, "1/s");
    m.set("setup_s", median(setups), "s");
    m.set("peak_rss_mb", rss, "MiB");
    m.set("reduction_x", setInitial / representatives, "x");
    if (!groupingOnly(w))
        m.set("injections_per_s", injected / totalWall, "1/s");
    if (w.service) {
        m.set("warm_p50_ms", percentile(latencyMs, 50), "ms");
        m.set("warm_p99_ms", percentile(latencyMs, 99), "ms");
        if (m.find("warm_p99_ms")->value > kWarmP99LimitMs)
            std::fprintf(stderr,
                         "merlin_ledger: warm p99 %.3f ms misses the %.1f ms "
                         "limit at %.0f pairs/s\n",
                         m.find("warm_p99_ms")->value, kWarmP99LimitMs,
                         w.rate);
    }
    if (const double err = avfErrorPp(all); err >= 0) {
        m.set("avf_err_pp", err, "pp");
        if (err > kMaxAvfErrPp)
            tally.fail("mean |MeRLiN AVF - truth AVF| of " +
                       std::to_string(err) + " pp exceeds " +
                       std::to_string(kMaxAvfErrPp) + " pp");
    }
    return rep;
}

} // namespace ledger
