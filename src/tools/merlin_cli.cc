/**
 * @file
 * merlin_cli — command-line front end for the library.
 *
 *   merlin_cli list
 *       List the bundled workloads.
 *   merlin_cli run --workload qsort
 *       Execute a workload on the out-of-order core; print timing stats
 *       and verify the output against the reference implementation.
 *   merlin_cli campaign [--workload qsort] [--structure rf|sq|l1d]
 *       [--faults N | --confidence C --error-margin E]
 *       [--mode estimate|truth|grouping_only] [--member-name VALUE]...
 *       [--jobs N] [--quarantine=fail|continue]
 *       [--trace trace.json] [--metrics metrics.json]
 *       Run a MeRLiN campaign and print the reliability report.  Each
 *       --member-name flag sets the suite spec member member_name
 *       (README, "Campaign suites"); the flags are one manifest entry
 *       over {"workload": "qsort", "faults": 2000}, checked as a
 *       manifest's are.  "spec key:" is the key `suite --out` stores
 *       the same campaign under.
 *       --jobs N spreads the injections over N worker threads (0 = all
 *       hardware threads, at most 1024 for every command); results
 *       are bit-identical for any N.
 *       The injection engine (golden-run checkpoints, each feeding
 *       the reconvergence step) runs at the faultsim::RunnerOptions
 *       default cadence; it changes no outcome, so it has no flags.
 *       The report's early-exit, replay, reconvergence and wall-clock
 *       lines describe this run only.  --timeout-factor
 *       scales the paper's 3x-golden timeout rule — it moves the
 *       Timeout classification boundary, so keep the default when
 *       comparing against paper numbers.
 *       An injection that throws out of the simulator is quarantined:
 *       recorded by fault key + reason, counted Crash, and the
 *       campaign keeps going.  --quarantine=fail aborts on the first
 *       quarantined injection instead (default: continue).
 *   merlin_cli suite manifest.json
 *       [--jobs N] [--out results.json] [--resume]
 *       [--select i/n]
 *       [--quarantine=fail|continue]
 *       [--trace trace.json] [--metrics metrics.json]
 *       [--progress[=SECS]] [--progress-json FILE]
 *       Run a whole suite of campaigns (one JSON manifest entry each)
 *       on one shared worker pool: profiles overlap and workers steal
 *       injections across campaigns, with bit-identical results for
 *       any --jobs.  --out persists every CampaignResult keyed by a
 *       content hash of its spec (the outcome-relevant members only;
 *       results hold outcomes only, so the file is byte-identical
 *       across runs, job counts and schedules); with --resume, specs
 *       already in the file are served from it (cache hits / crash
 *       recovery), and a
 *       campaign that was KILLED midway resumes from its outcome
 *       journal (an append-only fsync'd file in <out>.journal/)
 *       with results byte-identical to an uninterrupted run.
 *       Telemetry (all strictly out-of-band — results and store bytes
 *       are byte-identical with or without it): --trace records every
 *       scheduler/campaign/injection/store span as Chrome trace_event
 *       JSON (load in chrome://tracing or Perfetto); --metrics dumps
 *       the metrics registry (counters, gauges, log2 histograms) as
 *       JSON on exit; --progress prints a progress line to stderr
 *       every SECS (default 1, must be positive) seconds;
 *       --progress-json atomically
 *       rewrites FILE with machine-readable progress at the same
 *       cadence (a heartbeat for whatever supervises the worker).
 *       --trace and --metrics also work on `campaign`.
 *       --select i/n runs only worker i's share of the suite
 *       (round-robin over the manifest order).  The filter applies to
 *       the manifest before anything runs, so the worker's --out
 *       store holds exactly its share.  Selections 0/n..n-1/n are
 *       disjoint and complete: run each share on its own machine with
 *       its own --out and `store merge` the worker stores back into a
 *       store byte-identical to the single-host run (README,
 *       "Distributed suites").  The report ends with "selection i/n:
 *       X of Y manifest campaigns"; a share that selects no campaign
 *       (i >= the manifest size) is fatal.
 *   merlin_cli store merge --out merged.json [--force-theirs]
 *       store.json...
 *       Fold result stores into one store; a missing input is fatal.
 *       A key on both sides must carry bit-identical payloads;
 *       --force-theirs resolves conflicts by taking the later input.
 *       Merging the --out stores of a suite's --select workers
 *       reproduces the single-host store byte-for-byte.
 *   merlin_cli asm --file prog.s [--campaign rf|sq|l1d]
 *       [campaign's spec flags but --workload and --structure]
 *       [--jobs N] [--quarantine=fail|continue]
 *       Assemble a user program, run it, optionally run a campaign on
 *       the --campaign structure with `campaign`'s flags.  The report
 *       prints no spec key: a spec names a bundled workload, not an
 *       assembled program.
 *
 * Campaign-service client mode (see docs/wire-protocol.md and
 * `merlin_serve --help` for the daemon side):
 *
 *   merlin_cli submit manifest.json --socket PATH
 *       [--client NAME] [--no-resume] [--no-wait]
 *       Submit every manifest spec to a running merlin_serve daemon.
 *       The daemon serves store hits, coalesces identical in-flight
 *       specs across clients (one simulation, every subscriber gets
 *       the identical bytes), and persists to ITS store.  By default
 *       the client waits and prints the same suite report the batch
 *       `suite` command prints; --no-wait just prints each spec's
 *       content key.  --no-resume forces re-runs instead of cache
 *       hits.
 *   merlin_cli status --socket PATH [--key K]
 *       Daemon queue/stats snapshot, or one spec key's state.
 *   merlin_cli result --socket PATH --key K [--out FILE]
 *       Fetch one campaign result by spec content key (waits if it is
 *       still queued/running); prints the campaign report, or writes
 *       the raw result JSON with --out.
 *   merlin_cli shutdown --socket PATH [--cancel-queued]
 *       Ask the daemon to drain and exit (same policy as SIGTERM):
 *       running campaigns complete and persist; --cancel-queued hands
 *       queued submissions back as cancelled instead of running them.
 *
 * All command implementations live in cmd_*.cc over the shared
 * cli_spec parsing helpers; main() only dispatches.
 */

#include <cstdio>
#include <cstring>
#include <exception>
#include <string>

#include "tools/cli_cmds.hh"

int
main(int argc, char **argv)
{
    using namespace merlin::tools;

    if (argc < 2) {
        std::fprintf(stderr,
                     "usage: merlin_cli "
                     "<list|run|campaign|suite|store|asm|"
                     "submit|status|result|shutdown> [--flags]\n");
        return 2;
    }
    const std::string cmd = argv[1];
    try {
        if (cmd == "suite") {
            if (argc < 3 || std::strncmp(argv[2], "--", 2) == 0) {
                std::fprintf(stderr,
                             "usage: merlin_cli suite manifest.json "
                             "[--jobs N] [--out results.json] "
                             "[--resume] "
                             "[--select i/n] "
                             "[--quarantine=fail|continue] "
                             "[--trace trace.json] "
                             "[--metrics metrics.json] "
                             "[--progress[=SECS]] "
                             "[--progress-json FILE]\n");
                return 2;
            }
            return cmdSuite(argv[2], Args::parse(argc, argv, 3));
        }
        if (cmd == "store") {
            if (argc < 3 || std::strcmp(argv[2], "merge") != 0) {
                std::fprintf(stderr,
                             "usage: merlin_cli store merge --out "
                             "merged.json [--force-theirs] "
                             "store.json...\n");
                return 2;
            }
            return cmdStoreMerge(argc, argv, 3);
        }
        if (cmd == "submit") {
            if (argc < 3 || std::strncmp(argv[2], "--", 2) == 0) {
                std::fprintf(stderr,
                             "usage: merlin_cli submit manifest.json "
                             "--socket PATH [--client NAME] "
                             "[--no-resume] [--no-wait]\n");
                return 2;
            }
            return cmdSubmit(argv[2], Args::parse(argc, argv, 3));
        }
        Args args = Args::parse(argc, argv, 2);
        if (cmd == "list")
            return cmdList();
        if (cmd == "run")
            return cmdRun(args);
        if (cmd == "campaign")
            return cmdCampaign(args);
        if (cmd == "asm")
            return cmdAsm(args);
        if (cmd == "status")
            return cmdStatus(args);
        if (cmd == "result")
            return cmdResult(args);
        if (cmd == "shutdown")
            return cmdShutdown(args);
        std::fprintf(stderr, "unknown command '%s'\n", cmd.c_str());
        return 2;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
