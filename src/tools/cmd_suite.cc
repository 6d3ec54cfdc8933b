/** @file `merlin_cli suite | suite --plan | suite --diff | store
 *  merge`: the batch suite family. */

#include <cstdio>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "base/logging.hh"
#include "base/strings.hh"
#include "io/result_store.hh"
#include "sched/diff.hh"
#include "sched/suite.hh"
#include "tools/cli_cmds.hh"

namespace merlin::tools
{

namespace
{

/** This worker's share (--select i/n | --select-hash i/n), if any. */
std::optional<sched::SpecSelector>
selectionFromArgs(const Args &args)
{
    if (args.has("select") && args.has("select-hash"))
        fatal("suite: --select and --select-hash are mutually "
              "exclusive");
    if (args.has("select"))
        return sched::SpecSelector::parse(
            args.get("select"), sched::SpecSelector::Mode::RoundRobin);
    if (args.has("select-hash"))
        return sched::SpecSelector::parse(
            args.get("select-hash"), sched::SpecSelector::Mode::Hash);
    return std::nullopt;
}

/**
 * suite --plan n: emit one manifest per worker instead of running.
 * Each output holds that worker's selection, fully resolved (defaults
 * folded in, every member explicit), so running it — with or without
 * a further --select — writes a store that merges back into exactly
 * the single-host store.
 */
int
cmdSuitePlan(const std::vector<sched::CampaignSpec> &specs,
             const Args &args)
{
    const std::uint64_t n = args.getU("plan", 0);
    if (n == 0)
        fatal("--plan: worker count must be >= 1");
    if (n > specs.size())
        fatal("--plan: ", n, " workers for ", specs.size(),
              " campaign", specs.size() == 1 ? "" : "s",
              " — at least one per-worker manifest would be empty");
    const auto mode = args.has("hash")
                          ? sched::SpecSelector::Mode::Hash
                          : sched::SpecSelector::Mode::RoundRobin;
    const std::string dir = args.get("plan-dir", "plan");
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec)
        fatal("--plan: cannot create directory '", dir,
              "': ", ec.message());

    for (std::uint64_t i = 0; i < n; ++i) {
        sched::SpecSelector sel;
        sel.mode = mode;
        sel.index = i;
        sel.count = n;
        io::Json camps = io::Json::array();
        for (const sched::CampaignSpec &spec : sched::selectSpecs(specs, sel))
            camps.push(spec.toJson());
        if (camps.size() == 0)
            fatal("--plan: worker ", i, " of ", n, " selects no "
                  "campaigns under hash partitioning — use fewer "
                  "workers or round-robin");
        io::Json manifest = io::Json::object();
        manifest.set("campaigns", camps);
        const std::string path =
            (std::filesystem::path(dir) /
             ("worker-" + std::to_string(i) + "-of-" +
              std::to_string(n) + ".json"))
                .string();
        writeTextFile(path, manifest.dump(2) + "\n");
        std::printf("%s: %zu campaign%s (%s)\n", path.c_str(),
                    camps.size(), camps.size() == 1 ? "" : "s",
                    sel.describe().c_str());
    }
    return 0;
}

io::ResultStore
loadStore(const std::string &path)
{
    io::ResultStore store(path);
    if (!store.load())
        fatal("cannot open result store '", path, "'");
    return store;
}

} // namespace

int
cmdSuite(const std::string &manifest_path, const Args &args)
{
    std::vector<sched::CampaignSpec> specs =
        loadManifestFile(manifest_path);

    if (args.has("plan")) {
        requireKnownFlags(args, {"plan", "plan-dir", "hash"},
                          "suite --plan");
        return cmdSuitePlan(specs, args);
    }
    requireKnownFlags(args,
                      {"jobs", "out", "resume", "select", "select-hash",
                       "quarantine", "inject-wall-limit", "trace",
                       "metrics", "progress", "progress-json"},
                      "suite");

    sched::SuiteOptions opts = suiteOptionsFromArgs(args);
    // A worker's share is a filtered manifest: everything downstream
    // (cache, journals, store, progress) sees only those specs.
    const std::size_t manifest_size = specs.size();
    const std::optional<sched::SpecSelector> sel = selectionFromArgs(args);
    if (sel)
        specs = sched::selectSpecs(specs, *sel);

    startTelemetry(args);
    sched::SuiteScheduler scheduler(specs, opts);
    sched::SuiteResult suite = scheduler.run();
    finishTelemetry(args);

    printSuiteReport(specs, suite, opts);
    if (sel) {
        // Which share of the manifest this worker ran; dispatch.sh
        // sums these lines to check the shares cover the manifest.
        std::printf("selection %s: %zu of %zu manifest campaigns\n",
                    sel->describe().c_str(), specs.size(),
                    manifest_size);
    }
    return 0;
}

int
cmdSuiteDiff(const std::string &path_a, const std::string &path_b,
             const Args &args)
{
    requireKnownFlags(args, {"axis", "confidence", "out"},
                      "suite --diff");
    const io::ResultStore a = loadStore(path_a);
    const io::ResultStore b = loadStore(path_b);

    sched::DiffOptions dopts;
    dopts.axis = base::splitCommaList(args.get("axis"));
    dopts.confidence = args.getD("confidence", dopts.confidence);

    sched::SuiteDiffResult diff =
        sched::SuiteDiff(a, b, dopts).run();
    std::fputs(diff.table().c_str(), stdout);

    const std::string out = args.get("out");
    if (!out.empty()) {
        writeTextFile(out, diff.toJson().dump(2) + "\n");
        std::printf("diff written to %s\n", out.c_str());
    }
    return 0;
}

int
cmdStoreMerge(int argc, char **argv, int start)
{
    std::string out;
    bool force_theirs = false;
    std::vector<std::string> inputs;
    for (int i = start; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--force-theirs") {
            force_theirs = true;
        } else if (a == "--out") {
            if (++i >= argc)
                fatal("--out requires a path");
            out = argv[i];
        } else if (a.rfind("--out=", 0) == 0) {
            out = a.substr(6);
        } else if (a.rfind("--", 0) == 0) {
            fatal("store merge: unknown flag '", a, "'");
        } else {
            inputs.push_back(a);
        }
    }
    if (out.empty())
        fatal("store merge requires --out <merged.json>");
    if (inputs.empty())
        fatal("store merge requires at least one input store");

    // The gather half of distributed dispatch, shared with the tests:
    // fold every worker store into one, byte-identical to the
    // single-host run whatever the gather order.
    io::ResultStore merged(out);
    const io::ResultStore::MergeStats total =
        io::mergeStoreFiles(merged, inputs, force_theirs);
    merged.save();
    std::printf("merged %zu input%s -> %s: %zu campaigns "
                "(%zu added, %zu identical, %zu replaced)\n",
                inputs.size(), inputs.size() == 1 ? "" : "s",
                out.c_str(), merged.size(), total.added,
                total.identical, total.replaced);
    return 0;
}

} // namespace merlin::tools
