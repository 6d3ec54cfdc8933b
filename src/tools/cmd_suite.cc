/** @file `merlin_cli suite | store merge`: the batch suite family. */

#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "base/logging.hh"
#include "io/result_store.hh"
#include "sched/suite.hh"
#include "tools/cli_cmds.hh"

namespace merlin::tools
{

int
cmdSuite(const std::string &manifest_path, const Args &args)
{
    std::vector<sched::CampaignSpec> specs =
        loadManifestFile(manifest_path);

    requireKnownFlags(args,
                      {"jobs", "out", "resume", "select", "quarantine",
                       "trace", "metrics", "progress", "progress-json"},
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
            // Args' rule: a following flag is not a value, so
            // `--out --force-theirs` cannot write a store named
            // `--force-theirs` and drop the force.
            if (i + 1 >= argc || std::strncmp(argv[i + 1], "--", 2) == 0)
                fatal("--out needs a value");
            out = argv[++i];
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
