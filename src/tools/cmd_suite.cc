/** @file `merlin_cli suite | suite --diff | store merge`: the batch
 *  suite family. */

#include <cstdio>
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

    requireKnownFlags(args,
                      {"jobs", "out", "resume", "select", "quarantine",
                       "inject-wall-limit", "trace", "metrics", "progress",
                       "progress-json"},
                      "suite");

    sched::SuiteOptions opts = suiteOptionsFromArgs(args);
    // A worker's share is a filtered manifest: everything downstream
    // (cache, journals, store, progress) sees only those specs.
    const std::size_t manifest_size = specs.size();
    std::optional<sched::SpecSelector> sel;
    if (args.has("select")) {
        sel = sched::SpecSelector::parse(args.get("select"));
        specs = sched::selectSpecs(specs, *sel);
    }

    startTelemetry(args);
    sched::SuiteScheduler scheduler(specs, opts);
    sched::SuiteResult suite = scheduler.run();
    finishTelemetry(args);

    printSuiteReport(specs, suite, opts);
    if (sel) {
        // Which share of the manifest this worker ran; summing these
        // lines checks that the shares cover the manifest.
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
