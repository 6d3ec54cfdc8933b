#include "tools/cli_spec.hh"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "base/logging.hh"
#include "base/parse.hh"
#include "base/threadpool.hh"
#include "faultsim/runner.hh"
#include "io/json.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace merlin::tools
{

// ---------------------------------------------------------------- Args

Args
Args::parse(int argc, char **argv, int start)
{
    Args a;
    // A repeated flag is fatal: neither of its values may silently win.
    const auto set = [&a](const std::string &k,
                          std::optional<std::string> v) {
        if (!a.kv.emplace(k, std::move(v)).second)
            fatal("--", k, " given twice");
    };
    for (int i = start; i < argc; ++i) {
        std::string k = argv[i];
        if (k.rfind("--", 0) != 0)
            fatal("unexpected argument '", k, "'");
        k = k.substr(2);
        // --key=value style.
        if (const auto eq = k.find('='); eq != std::string::npos) {
            set(k.substr(0, eq), k.substr(eq + 1));
            continue;
        }
        if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0)
            set(k, argv[++i]);
        else
            set(k, std::nullopt); // bare flag
    }
    return a;
}

const std::string *
Args::value(const std::string &k) const
{
    auto it = kv.find(k);
    if (it == kv.end())
        return nullptr;
    if (!it->second)
        fatal("--", k, " needs a value");
    return &*it->second;
}

std::string
Args::get(const std::string &k, const std::string &def) const
{
    const std::string *v = value(k);
    return v ? *v : def;
}

std::uint64_t
Args::getU(const std::string &k, std::uint64_t def) const
{
    // One strict parser for every numeric flag (base::parseU64):
    // signs, whitespace, trailing junk and overflow are all fatal,
    // where raw strtoull would wrap "-1" to 2^64-1 silently.
    const std::string *v = value(k);
    return v ? base::parseU64(*v, "--" + k) : def;
}

unsigned
Args::getU32(const std::string &k, unsigned def) const
{
    const std::string *v = value(k);
    return v ? base::parseU32(*v, "--" + k) : def;
}

double
Args::getD(const std::string &k, double def) const
{
    const std::string *v = value(k);
    return v ? base::parseDouble(*v, "--" + k) : def;
}

void
requireKnownFlags(const Args &args,
                  std::initializer_list<const char *> known,
                  const char *what)
{
    for (const auto &[flag, value] : args.kv) {
        (void)value;
        bool ok = false;
        for (const char *k : known)
            ok = ok || flag == k;
        if (!ok)
            fatal(what, ": unknown flag '--", flag, "'");
    }
}

// --------------------------------------------------------------- files

void
writeTextFile(const std::string &path, const std::string &text)
{
    const std::string tmp = path + ".tmp";
    {
        std::ofstream os(tmp, std::ios::trunc);
        if (!os)
            fatal("cannot write '", tmp, "'");
        os << text;
        os.flush();
        os.close();
        if (!os.good())
            fatal("write to '", tmp, "' failed (disk full?)");
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0)
        fatal("cannot rename '", tmp, "' to '", path, "'");
}

io::Json
loadJsonFile(const std::string &path, const char *what)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open ", what, " '", path, "'");
    std::stringstream ss;
    ss << in.rdbuf();
    return io::Json::parse(ss.str());
}

std::vector<sched::CampaignSpec>
loadManifestFile(const std::string &path)
{
    return sched::parseManifest(loadJsonFile(path, "manifest"));
}

// ----------------------------------------------------------- telemetry

void
startTelemetry(const Args &args)
{
    const std::string trace = args.get("trace");
    if (!trace.empty())
        obs::TraceWriter::global().start(trace);
}

void
finishTelemetry(const Args &args)
{
    if (obs::TraceWriter::global().finish())
        std::printf("trace written to %s\n", args.get("trace").c_str());
    const std::string metrics = args.get("metrics");
    if (!metrics.empty()) {
        writeTextFile(metrics,
                      obs::Registry::global().snapshot().toJson().dump(2) +
                          "\n");
        std::printf("metrics written to %s\n", metrics.c_str());
    }
}

// ------------------------------------------------------- flag grammars

uarch::Structure
parseStructure(const std::string &s)
{
    if (s == "rf" || s == "RF")
        return uarch::Structure::RegisterFile;
    if (s == "sq" || s == "SQ")
        return uarch::Structure::StoreQueue;
    if (s == "l1d" || s == "L1D")
        return uarch::Structure::L1DCache;
    fatal("unknown structure '", s, "' (use rf | sq | l1d)");
}

namespace
{

/**
 * Seconds value of --k, rejected by name when negative, or zero unless
 * @p zero_ok.  The library clamps such values quietly (a negative
 * watchdog is off, a non-positive progress period is one second), so a
 * typo must fail here instead.
 */
double
secondsFlag(const Args &args, const std::string &k, double def,
            bool zero_ok)
{
    const double v = args.getD(k, def);
    if (v < 0 || (v == 0 && !zero_ok))
        fatal("--", k, ": ", v,
              zero_ok ? " must be at least 0" : " must be positive");
    return v;
}

/** --jobs N (0 = every hardware thread), capped by name for every
 *  command before any pool exists. */
unsigned
jobsFlag(const Args &args, unsigned def)
{
    return base::ThreadPool::checkThreads(args.getU32("jobs", def),
                                          "--jobs");
}

/** --inject-wall-limit SECONDS, the same check for every command. */
double
injectWallLimit(const Args &args)
{
    return secondsFlag(args, "inject-wall-limit", 0.0, true);
}

} // namespace

bool
parseQuarantineFail(const Args &args)
{
    const std::string q = args.get("quarantine", "continue");
    if (q == "continue")
        return false;
    if (q == "fail")
        return true;
    fatal("--quarantine: '", q, "' is not fail|continue");
}

core::CampaignConfig
campaignConfig(const Args &args, std::uint64_t default_window)
{
    core::CampaignConfig cc;
    cc.target = parseStructure(args.get("structure", "rf"));
    // Sizes are checked by flag name against the predicates the core,
    // the cache and suite specs use, so a bad value fails here instead
    // of as an assertion inside the simulator.
    const unsigned regs = args.getU32("regs", 256);
    if (!uarch::CoreConfig::validPhysIntRegs(regs))
        fatal("--regs: ", regs, " must exceed the ",
              isa::NUM_RENAMEABLE_REGS,
              " renameable architectural registers and be at most 65535");
    const unsigned sq = args.getU32("sq", 64);
    if (!uarch::CoreConfig::validSqEntries(sq))
        fatal("--sq: ", sq, " must be at least 1");
    const unsigned l1d = args.getU32("l1d", 64);
    if (!uarch::CoreConfig::validL1dKb(l1d))
        fatal("--l1d: ", l1d, " KB is not a buildable L1D size");
    cc.core = uarch::CoreConfig{}
                  .withRegisterFile(regs)
                  .withStoreQueue(sq)
                  .withL1dKb(l1d);
    cc.core.instructionWindowEnd = args.getU("window", default_window);
    // Sampling fractions are checked by flag name, not left to trip the
    // statistics library's domain assertions.
    if (args.has("conf") && !args.has("margin"))
        fatal("--conf requires --margin");
    const double margin = args.getD("margin", 0.0063);
    if (!core::SamplingSpec::validFraction(margin))
        fatal("--margin: ", margin, " must be in (0, 1)");
    const double conf = args.getD("conf", 0.998);
    if (!core::SamplingSpec::validFraction(conf))
        fatal("--conf: ", conf, " must be in (0, 1)");
    if (args.has("faults")) {
        const std::uint64_t faults = args.getU("faults", 2000);
        if (faults == 0)
            fatal("--faults: 0 must be at least 1");
        cc.sampling = core::specFixed(faults);
    } else if (args.has("margin")) {
        cc.sampling.errorMargin = margin;
        cc.sampling.confidence = conf;
    } else {
        cc.sampling = core::specFixed(2000);
    }
    cc.seed = args.getU("seed", 1);
    cc.jobs = jobsFlag(args, 1);
    // Engine settings keep their RunnerOptions defaults: they decide
    // how fast the engine reaches an outcome, never which one.  The
    // timeout factor moves the Timeout boundary; the watchdog and the
    // quarantine policy are operational.
    cc.runner.timeoutFactor = args.getU32(
        "timeout-factor", faultsim::RunnerOptions::kDefaultTimeoutFactor);
    if (cc.runner.timeoutFactor == 0)
        fatal("--timeout-factor: 0 must be at least 1");
    cc.runner.wallClockLimit = injectWallLimit(args);
    cc.runner.quarantine = parseQuarantineFail(args)
                               ? faultsim::QuarantinePolicy::Fail
                               : faultsim::QuarantinePolicy::Continue;
    return cc;
}

sched::SuiteOptions
suiteOptionsFromArgs(const Args &args)
{
    sched::SuiteOptions opts;
    opts.jobs = jobsFlag(args, 1);
    opts.storePath = args.get("out");
    opts.reuseCached = args.has("resume");
    opts.injectWallLimit = injectWallLimit(args);
    opts.quarantineFail = parseQuarantineFail(args);
    // --progress / --progress=SECS: periodic stderr line (a bare flag
    // means one second).  --progress-json FILE additionally rewrites a
    // machine-readable progress file at the same cadence.
    opts.progressStderr = args.has("progress");
    if (opts.progressStderr && args.kv.at("progress"))
        opts.progressInterval = secondsFlag(args, "progress", 1.0, false);
    opts.progressPath = args.get("progress-json");
    if (opts.reuseCached && opts.storePath.empty())
        fatal("--resume requires --out <results.json>");
    return opts;
}

sched::CampaignService::Config
serviceConfigFromArgs(const Args &args)
{
    sched::CampaignService::Config cfg;
    // A daemon defaults to every hardware thread — it IS the machine's
    // campaign engine — where the one-shot suite defaults to 1.
    cfg.jobs = jobsFlag(args, 0);
    cfg.storePath = args.get("store");
    cfg.injectWallLimit = injectWallLimit(args);
    cfg.quarantineFail = parseQuarantineFail(args);
    // The daemon always warms from its store: a persistent cache is
    // the point of process-lifetime service.
    cfg.loadStore = !cfg.storePath.empty();
    return cfg;
}

// ------------------------------------------------------------- reports

std::uint64_t
structureBits(const core::CampaignConfig &cc)
{
    return std::uint64_t(uarch::structureEntries(cc.target, cc.core)) * 64;
}

void
printCampaign(const core::CampaignResult &r, std::uint64_t bits)
{
    std::printf("golden: %llu instructions, %llu cycles; ACE-like AVF "
                "%.2f%%\n",
                static_cast<unsigned long long>(r.goldenInstret),
                static_cast<unsigned long long>(r.goldenCycles),
                100 * r.aceAvf);
    std::printf("faults: %llu initial -> %llu survivors -> %llu "
                "injected (%.1fX / %.1fX)\n",
                static_cast<unsigned long long>(r.initialFaults),
                static_cast<unsigned long long>(r.survivors),
                static_cast<unsigned long long>(r.injections),
                r.speedupAce, r.speedupTotal);
    for (unsigned c = 0; c < faultsim::NUM_OUTCOMES; ++c) {
        auto o = static_cast<faultsim::Outcome>(c);
        if (r.merlinEstimate.of(o) == 0)
            continue;
        std::printf("  %-8s %7.3f%%\n", faultsim::outcomeName(o),
                    100.0 * r.merlinEstimate.fraction(o));
    }
    std::printf("AVF %.3f%%  FIT %.4f (0.01 FIT/bit x %llu bits)\n",
                100 * r.merlinEstimate.avf(), r.merlinFit(bits),
                static_cast<unsigned long long>(bits));
    if (r.survivorTruth) {
        std::printf("ground truth: AVF %.3f%%; max class inaccuracy "
                    "%.2f pp; homogeneity %.3f\n",
                    100 * r.fullTruth().avf(),
                    r.merlinEstimate.maxInaccuracyVs(r.fullTruth()),
                    r.homogeneity->fine);
    }
    if (!r.quarantine.empty()) {
        std::printf("quarantined: %zu injection%s failed the simulator "
                    "and %s counted Crash:\n",
                    r.quarantine.size(),
                    r.quarantine.size() == 1 ? "" : "s",
                    r.quarantine.size() == 1 ? "was" : "were");
        for (const auto &q : r.quarantine)
            std::printf("  fault 0x%016llx: %s\n",
                        static_cast<unsigned long long>(q.faultKey),
                        q.reason.c_str());
    }
}

void
printEngineStats(const faultsim::InjectionStats &s, double seconds)
{
    if (s.runs) {
        const double runs = static_cast<double>(s.runs);
        std::printf("early exit: %llu of %llu runs reconverged with the "
                    "golden state (%.1f%%)\n",
                    static_cast<unsigned long long>(s.earlyExits),
                    static_cast<unsigned long long>(s.runs),
                    100.0 * static_cast<double>(s.earlyExits) / runs);
        std::printf("replay: %llu dead flips shortcut Masked, %llu "
                    "handed off to simulation (divergence rate %.1f%%)"
                    "\n",
                    static_cast<unsigned long long>(s.replayMasked),
                    static_cast<unsigned long long>(s.runs - s.replayMasked),
                    100.0 * static_cast<double>(s.runs - s.replayMasked) /
                        runs);
        std::printf("replay: %llu of %llu head cycles skipped "
                    "(%.1f%%)\n",
                    static_cast<unsigned long long>(s.replayCyclesSkipped),
                    static_cast<unsigned long long>(s.replayHeadCycles),
                    s.replayHeadCycles
                        ? 100.0 *
                              static_cast<double>(s.replayCyclesSkipped) /
                              static_cast<double>(s.replayHeadCycles)
                        : 0.0);
        const std::uint64_t post = s.postFlipCycles + s.deltaCyclesSkipped;
        std::printf("reconvergence: %llu delta resumes, %llu runs decided "
                    "off the trace, %llu of %llu post-flip cycles skipped "
                    "(%.1f%%)\n",
                    static_cast<unsigned long long>(s.deltaResumes),
                    static_cast<unsigned long long>(s.deltaDecided),
                    static_cast<unsigned long long>(s.deltaCyclesSkipped),
                    static_cast<unsigned long long>(post),
                    post ? 100.0 * static_cast<double>(s.deltaCyclesSkipped) /
                               static_cast<double>(post)
                         : 0.0);
    }
    std::printf("wall clock: %.2fs (%llu injection runs)\n", seconds,
                static_cast<unsigned long long>(s.runs));
}

void
printSuiteReport(const std::vector<sched::CampaignSpec> &specs,
                 const sched::SuiteResult &suite,
                 const sched::SuiteOptions &opts)
{
    // Downstream consumers (CI's awk among them) address AVF% as
    // whitespace-separated field 7; the [cached] tag trails it.
    std::printf("%-14s %-4s %-13s %10s %10s %10s %8s\n", "workload",
                "tgt", "mode", "initial", "survivors", "injected", "AVF%");
    std::uint64_t cached = 0;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const auto &r = suite.results[i];
        cached += suite.cached[i] ? 1 : 0;
        std::printf(
            "%-14s %-4s %-13s %10llu %10llu %10llu %7.3f%% %s\n",
            specs[i].workload.c_str(),
            uarch::structureName(specs[i].structure),
            specs[i].mode == sched::CampaignSpec::Mode::GroupingOnly
                ? "grouping-only"
                : (specs[i].mode == sched::CampaignSpec::Mode::Truth
                       ? "truth"
                       : "estimate"),
            static_cast<unsigned long long>(r.initialFaults),
            static_cast<unsigned long long>(r.survivors),
            static_cast<unsigned long long>(r.injections),
            100 * r.merlinEstimate.avf(),
            suite.cached[i] ? "[cached]" : "");
    }
    std::printf("\n%zu campaigns (%llu run, %llu cached) in %.2fs "
                "with --jobs %u\n",
                specs.size(),
                static_cast<unsigned long long>(suite.campaignsRun),
                static_cast<unsigned long long>(cached),
                suite.wallSeconds, opts.jobs);
    if (suite.injectionsSimulated && suite.wallSeconds > 0.0) {
        std::printf("throughput: %llu injections at %.0f/s\n",
                    static_cast<unsigned long long>(
                        suite.injectionsSimulated),
                    static_cast<double>(suite.injectionsSimulated) /
                        suite.wallSeconds);
    }
    if (!opts.storePath.empty())
        std::printf("results written to %s\n", opts.storePath.c_str());
}

} // namespace merlin::tools
