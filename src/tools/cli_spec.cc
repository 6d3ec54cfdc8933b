#include "tools/cli_spec.hh"

#include <algorithm>
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

namespace
{

/** Flags that no longer exist, and what a user should know instead. */
const std::pair<const char *, const char *> kRetiredFlags[] = {
    {"sq", "campaign's --sq is now --sq-entries"},
    {"l1d", "campaign's --l1d is now --l1d-kb"},
    {"margin", "campaign's --margin is now --error-margin"},
    {"conf", "campaign's --conf is now --confidence"},
    {"truth", "campaign's --truth is now --mode truth"},
    {"inject-wall-limit", "the wall-clock watchdog is retired: the "
                          "timeout factor bounds every faulty run"},
};

[[noreturn]] void
unknownFlag(const char *what, const std::string &flag)
{
    for (const auto &[name, note] : kRetiredFlags) {
        if (flag == name)
            fatal(what, ": unknown flag '--", flag, "' (", note, ")");
    }
    fatal(what, ": unknown flag '--", flag, "'");
}

} // namespace

void
requireKnownFlags(const Args &args,
                  std::initializer_list<const char *> known,
                  const char *what)
{
    for (const auto &[flag, value] : args.kv) {
        (void)value;
        if (std::find(known.begin(), known.end(), flag) == known.end())
            unknownFlag(what, flag);
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

namespace
{

/** --jobs N (0 = every hardware thread), capped by name for every
 *  command before any pool exists. */
unsigned
jobsFlag(const Args &args, unsigned def)
{
    return base::ThreadPool::checkThreads(args.getU32("jobs", def),
                                          "--jobs");
}

/**
 * The JSON value of spec flag --@p flag.  A bare flag is `true`, which
 * only a boolean member of the default spec takes; any other member
 * given bare has lost its value.
 */
io::Json
flagValue(const std::string &flag, const std::optional<std::string> &text,
          const io::Json &default_spec, const std::string &member)
{
    if (!text) {
        const io::Json *d = default_spec.find(member);
        if (!d || !d->isBool())
            fatal("--", flag, " needs a value");
        return true;
    }
    try {
        io::Json v = io::Json::parse(*text);
        if (v.isNumber() || v.isBool() || v.isNull())
            return v;
    } catch (const FatalError &) {
    }
    return *text;
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

sched::CampaignSpec
specFromFlags(const Args &args,
              std::initializer_list<const char *> operational,
              const char *what)
{
    const io::Json default_spec = sched::CampaignSpec{}.toJson();
    io::Json entry = io::Json::object();
    for (const auto &[flag, text] : args.kv) {
        if (std::find(operational.begin(), operational.end(), flag) !=
            operational.end())
            continue;
        std::string member = flag;
        std::replace(member.begin(), member.end(), '-', '_');
        if (flag.find('_') != std::string::npos ||
            !sched::isSpecMember(member))
            unknownFlag(what, flag);
        entry.set(member, flagValue(flag, text, default_spec, member));
    }
    io::Json manifest = io::Json::object();
    manifest.set("defaults",
                 io::Json::parse(R"({"workload": "qsort", "faults": 2000})"));
    io::Json campaigns = io::Json::array();
    campaigns.push(std::move(entry));
    manifest.set("campaigns", std::move(campaigns));
    return sched::parseManifest(manifest).front();
}

core::CampaignConfig
runConfig(const sched::CampaignSpec &spec, const workloads::BuiltWorkload &w,
          const Args &args)
{
    core::CampaignConfig cc = spec.campaignConfig(w);
    cc.jobs = jobsFlag(args, 1);
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
    opts.quarantineFail = parseQuarantineFail(args);
    // --progress / --progress=SECS: periodic stderr line (a bare flag
    // means one second).  --progress-json FILE additionally rewrites a
    // machine-readable progress file at the same cadence.
    opts.progressStderr = args.has("progress");
    if (opts.progressStderr && args.kv.at("progress")) {
        // The library clamps a non-positive period to one second, so a
        // typo must fail here instead.
        opts.progressInterval = args.getD("progress", 1.0);
        if (opts.progressInterval <= 0)
            fatal("--progress: ", opts.progressInterval,
                  " must be positive");
    }
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
    // A grouping-only campaign plans its representatives and runs none.
    const bool estimated = r.merlinEstimate.total() != 0;
    std::printf("faults: %llu initial -> %llu survivors -> %llu "
                "%s (%.1fX / %.1fX)\n",
                static_cast<unsigned long long>(r.initialFaults),
                static_cast<unsigned long long>(r.survivors),
                static_cast<unsigned long long>(r.injections),
                estimated ? "injected" : "planned", r.speedupAce,
                r.speedupTotal);
    for (unsigned c = 0; c < faultsim::NUM_OUTCOMES; ++c) {
        auto o = static_cast<faultsim::Outcome>(c);
        if (r.merlinEstimate.of(o) == 0)
            continue;
        std::printf("  %-8s %7.3f%%\n", faultsim::outcomeName(o),
                    100.0 * r.merlinEstimate.fraction(o));
    }
    if (!estimated)
        std::printf("AVF not estimated: a grouping-only campaign injects "
                    "nothing\n");
    else
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
                ? "grouping_only"
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
