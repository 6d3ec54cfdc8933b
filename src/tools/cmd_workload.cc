/** @file `merlin_cli list | run | asm`: workload-level commands. */

#include <cstdio>
#include <fstream>
#include <sstream>

#include "base/logging.hh"
#include "masm/asm.hh"
#include "merlin/campaign.hh"
#include "obs/clock.hh"
#include "tools/cli_cmds.hh"
#include "uarch/core.hh"
#include "workloads/workloads.hh"

namespace merlin::tools
{

int
cmdList()
{
    std::printf("MiBench-like (run to completion):\n");
    for (const auto &n : workloads::mibenchWorkloads()) {
        auto w = workloads::buildWorkload(n);
        std::printf("  %-14s %s\n", n.c_str(), w.description.c_str());
    }
    std::printf("SPEC-like (SimPoint-style windows):\n");
    for (const auto &n : workloads::specWorkloads()) {
        auto w = workloads::buildWorkload(n);
        std::printf("  %-14s window=%llu  %s\n", n.c_str(),
                    static_cast<unsigned long long>(w.suggestedWindow),
                    w.description.c_str());
    }
    return 0;
}

int
cmdRun(const Args &args)
{
    requireKnownFlags(args, {"workload"}, "run");
    auto w = workloads::buildWorkload(args.get("workload", "qsort"));
    uarch::Core core(w.program, uarch::CoreConfig{});
    auto r = core.run();
    const auto &st = core.stats();
    std::printf("%s: %llu instructions, %llu cycles, IPC %.2f\n",
                w.program.name.c_str(),
                static_cast<unsigned long long>(r.instret),
                static_cast<unsigned long long>(st.cycles), st.ipc());
    std::printf("branches: %llu cond, %llu mispredicted (%.1f%%)\n",
                static_cast<unsigned long long>(st.condBranches),
                static_cast<unsigned long long>(st.branchMispredicts),
                st.condBranches ? 100.0 * st.branchMispredicts /
                                      st.condBranches
                                : 0.0);
    std::printf("L1D: %llu hits, %llu misses; %llu store-forwards\n",
                static_cast<unsigned long long>(st.l1dHits),
                static_cast<unsigned long long>(st.l1dMisses),
                static_cast<unsigned long long>(st.storeForwards));
    std::printf("output %s the reference implementation\n",
                r.output == w.expectedOutput ? "matches"
                                             : "DOES NOT match");
    return r.output == w.expectedOutput ? 0 : 1;
}

int
cmdAsm(const Args &args)
{
    // --campaign names the structure, and the assembled program takes
    // the workload's place, so neither member is a flag here.
    for (const char *member : {"workload", "structure"}) {
        if (args.has(member))
            fatal("asm: unknown flag '--", member, "'");
    }
    Args spec_args = args;
    if (args.has("campaign")) {
        spec_args.kv.erase("campaign");
        spec_args.kv["structure"] = args.get("campaign");
    }
    const sched::CampaignSpec spec =
        specFromFlags(spec_args, {"file", "jobs", "quarantine"}, "asm");
    const std::string path = args.get("file");
    if (path.empty())
        fatal("asm requires --file <program.s>");
    std::ifstream in(path);
    if (!in)
        fatal("cannot open '", path, "'");
    std::stringstream ss;
    ss << in.rdbuf();
    workloads::BuiltWorkload w;
    w.program = masm::assemble(ss.str(), path);
    std::printf("assembled %llu instructions, %zu data bytes\n",
                static_cast<unsigned long long>(
                    w.program.instructionCount()),
                w.program.data.size());

    uarch::Core core(w.program, uarch::CoreConfig{});
    auto r = core.run();
    std::printf("run: reason=%d exit=%d, %llu instructions, %llu "
                "cycles, %zu output bytes\n",
                static_cast<int>(r.reason), r.exitCode,
                static_cast<unsigned long long>(r.instret),
                static_cast<unsigned long long>(core.stats().cycles),
                r.output.size());

    if (args.has("campaign")) {
        // No spec key: it names a bundled workload, not this program.
        const core::CampaignConfig cc = runConfig(spec, w, args);
        const obs::TimePoint t0 = obs::now();
        core::Campaign camp(w.program, cc);
        auto res = camp.run(spec.mode, spec.relyzer, spec.pathDepth);
        printCampaign(res, structureBits(cc));
        printEngineStats(camp.runner().injectionStats(),
                         obs::secondsSince(t0));
    }
    return 0;
}

} // namespace merlin::tools
