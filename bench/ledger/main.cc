/**
 * @file
 * merlin_ledger — the benchmark's command line.
 *
 *   merlin_ledger run --workload NAME [--seed N] [--seconds S]
 *       [--trace 0|1] [--out FILE] [--trace-out FILE] [--work DIR]
 *       [--write-expected]
 *   merlin_ledger smoke [--work DIR]
 *   merlin_ledger merge --out FILE [--git-rev REV] DOC...
 *   merlin_ledger compare OLD NEW [--benchmark FILE]
 *   merlin_ledger list
 *
 * `run` prints every metric as `workload metric value unit`, then, as
 * the last line, one JSON object {"correct", "attempted", "failed",
 * "metrics"} holding the metrics BENCHMARK.json names: its end_to_end
 * list, or with --trace 1 its per_layer list.  Runs work inside
 * --work (default: run/ in the ledger's build directory).
 */

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "base/logging.hh"
#include "base/parse.hh"
#include "ledger.hh"
#include "serve.hh"

namespace
{

using namespace ledger;
namespace fs = std::filesystem;

int
usage()
{
    std::fprintf(
        stderr,
        "usage: merlin_ledger run --workload NAME [--seed N] [--seconds S]\n"
        "                         [--trace 0|1] [--out FILE] "
        "[--trace-out FILE]\n"
        "                         [--work DIR] [--write-expected]\n"
        "       merlin_ledger smoke [--work DIR]\n"
        "       merlin_ledger merge --out FILE [--git-rev REV] DOC...\n"
        "       merlin_ledger compare OLD NEW [--benchmark FILE]\n"
        "       merlin_ledger list\n");
    return 2;
}

Json
readJson(const std::string &path)
{
    const std::optional<Json> doc = readJsonFile(path);
    if (!doc)
        merlin::fatal("cannot read '", path, "'");
    return *doc;
}

void
writeJson(const std::string &path, const Json &doc)
{
    std::ofstream out(path);
    out << doc.dump(1) << "\n";
    if (!out)
        merlin::fatal("cannot write '", path, "'");
}

/** `--flag value` pairs, `--switch`es and positional arguments. */
struct Args
{
    std::map<std::string, std::string> flags;
    std::set<std::string> switches;
    std::vector<std::string> positional;

    static Args
    parse(int argc, char **argv, int from,
          const std::set<std::string> &known_switches)
    {
        Args a;
        for (int i = from; i < argc; ++i) {
            const std::string s = argv[i];
            if (s.rfind("--", 0) != 0) {
                a.positional.push_back(s);
                continue;
            }
            const std::string name = s.substr(2);
            if (known_switches.count(name))
                a.switches.insert(name);
            else if (i + 1 < argc)
                a.flags.emplace(name, argv[++i]);
            else
                merlin::fatal("flag --", name, " needs a value");
        }
        return a;
    }

    std::string
    get(const std::string &name, const std::string &def = "") const
    {
        const auto it = flags.find(name);
        return it == flags.end() ? def : it->second;
    }

    void
    allow(const std::vector<std::string> &known) const
    {
        for (const auto &[name, value] : flags) {
            (void)value;
            if (std::find(known.begin(), known.end(), name) == known.end())
                merlin::fatal("unknown flag --", name);
        }
    }
};

std::string
absolute(const std::string &path)
{
    return path.empty() ? path : fs::absolute(path).string();
}

/** Enter the work directory, where every store, socket and scratch
 *  file of a run lives. */
void
enterWork(const std::string &dir)
{
    fs::create_directories(dir);
    fs::current_path(dir);
}

/** The metric names BENCHMARK.json requires in the result line. */
std::vector<std::string>
contractMetrics(bool trace)
{
    const Json bench = readJson(benchmarkJson());
    std::vector<std::string> names;
    for (const Json &m : bench.at(trace ? "per_layer" : "end_to_end").items())
        names.push_back(m.at("name").asString());
    return names;
}

/** Run one workload; prints its lines and the result JSON. */
RunReport
runOne(const RunOptions &opts, bool print)
{
    const Workload w = makeWorkload(opts.workload, opts.seed, opts.smoke);
    RunReport rep;
    try {
        rep = opts.trace ? tracedRun(w, opts) : measureRun(w, opts);
    } catch (const std::exception &e) {
        rep.tally.fail(e.what());
    }
    if (!opts.trace)
        rep.metrics.set(
            "failed_frac",
            static_cast<double>(rep.tally.failed) /
                static_cast<double>(
                    std::max<std::uint64_t>(rep.tally.attempted, 1)),
            "ratio");
    if (!print)
        return rep;

    for (const Metric &m : rep.metrics.list)
        std::printf("%s %s %s %s\n", w.name.c_str(), m.name.c_str(),
                    Json(m.value).dump().c_str(), m.unit.c_str());
    Json metrics = Json::object();
    for (const std::string &name : contractMetrics(opts.trace)) {
        const Metric *m = rep.metrics.find(name);
        if (!m) {
            std::fprintf(stderr, "merlin_ledger: metric %s is absent\n",
                         name.c_str());
            continue;
        }
        Json v = Json::object();
        v.set("value", m->value);
        v.set("unit", m->unit);
        metrics.set(name, v);
    }
    Json line = Json::object();
    line.set("correct", rep.correct && rep.tally.failed == 0);
    line.set("attempted", std::max<std::uint64_t>(rep.tally.attempted, 1));
    line.set("failed", rep.tally.failed);
    line.set("metrics", metrics);
    std::printf("%s\n", line.dump().c_str());
    std::fflush(stdout);
    return rep;
}

int
cmdRun(const Args &args)
{
    args.allow({"workload", "seed", "seconds", "trace", "out", "trace-out",
                "work"});
    RunOptions opts;
    opts.workload = args.get("workload");
    if (opts.workload.empty())
        return usage();
    opts.seed = merlin::base::parseU64(args.get("seed", "1"), "--seed");
    opts.seconds =
        merlin::base::parseDouble(args.get("seconds", "25"), "--seconds");
    const std::string trace = args.get("trace", "0");
    if (trace != "0" && trace != "1")
        merlin::fatal("--trace takes 0 or 1");
    opts.trace = trace == "1";
    opts.writeExpected = args.switches.count("write-expected") > 0;
    const std::string out = absolute(args.get("out"));
    const std::string work =
        args.get("work", std::string(LEDGER_BINARY_DIR) + "/run");
    opts.traceOut = absolute(args.get("trace-out"));
    enterWork(work);
    if (opts.trace && opts.traceOut.empty())
        opts.traceOut = absolute("trace-" + opts.workload + ".json");

    const RunReport rep = runOne(opts, true);
    if (!out.empty())
        writeJson(out, benchDoc(opts.workload, opts, rep));
    return 0;
}

int
cmdSmoke(const Args &args)
{
    args.allow({"work"});
    enterWork(args.get("work", std::string(LEDGER_BINARY_DIR) + "/smoke"));
    bool ok = true;
    for (const std::string &name : workloadNames()) {
        for (const bool trace : {false, true}) {
            RunOptions opts;
            opts.workload = name;
            opts.seconds = 0;
            opts.smoke = true;
            opts.trace = trace;
            const Clock::time_point t0 = Clock::now();
            const RunReport rep = runOne(opts, false);
            const bool good = rep.correct && rep.tally.failed == 0 &&
                              rep.tally.attempted > 0;
            ok = ok && good;
            std::printf("smoke %-16s %-9s %s (%llu ops, %.2f s)\n",
                        name.c_str(), trace ? "traced" : "measured",
                        good ? "ok" : "FAILED",
                        static_cast<unsigned long long>(rep.tally.attempted),
                        secondsBetween(t0, Clock::now()));
        }
    }
    const bool robust = robustnessCheck();
    std::printf("smoke dead/hung daemon      %s\n",
                robust ? "ok" : "FAILED");
    return ok && robust ? 0 : 1;
}

int
cmdMerge(const Args &args)
{
    args.allow({"out", "git-rev"});
    const std::string out = args.get("out");
    if (out.empty() || args.positional.empty())
        return usage();
    std::vector<Json> docs;
    for (const std::string &p : args.positional)
        docs.push_back(readJson(p));
    const Json merged = mergeDocs(docs, args.get("git-rev"));
    writeJson(out, merged);
    bool correct = true;
    for (const auto &[name, wl] : merged.at("workloads").members()) {
        correct = correct && wl.boolOr("correct", false);
        std::printf("%-16s %s: %llu runs + %llu traced, %llu of %llu "
                    "operations failed\n",
                    name.c_str(),
                    wl.boolOr("correct", false) ? "correct" : "INCORRECT",
                    static_cast<unsigned long long>(wl.u64Or("runs", 0)),
                    static_cast<unsigned long long>(
                        wl.u64Or("traced_runs", 0)),
                    static_cast<unsigned long long>(wl.u64Or("failed", 0)),
                    static_cast<unsigned long long>(
                        wl.u64Or("attempted", 0)));
    }
    std::printf("ledger written to %s\n", out.c_str());
    return correct ? 0 : 1;
}

int
cmdCompare(const Args &args)
{
    args.allow({"benchmark"});
    if (args.positional.size() != 2)
        return usage();
    return compareDocs(readJson(args.positional[0]),
                       readJson(args.positional[1]),
                       readJson(args.get("benchmark", benchmarkJson())));
}

} // namespace

int
main(int argc, char **argv)
{
    // A vanished daemon must cost a failed write, not the process.
    std::signal(SIGPIPE, SIG_IGN);
    if (argc < 2)
        return usage();
    const std::string cmd = argv[1];
    try {
        if (cmd == "run")
            return cmdRun(Args::parse(argc, argv, 2,
                                      {"write-expected"}));
        if (cmd == "smoke")
            return cmdSmoke(Args::parse(argc, argv, 2, {}));
        if (cmd == "merge")
            return cmdMerge(Args::parse(argc, argv, 2, {}));
        if (cmd == "compare")
            return cmdCompare(Args::parse(argc, argv, 2, {}));
        if (cmd == "list") {
            for (const std::string &name : workloadNames())
                std::printf("%s\n", name.c_str());
            return 0;
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "merlin_ledger: %s\n", e.what());
        return 1;
    }
    return usage();
}
