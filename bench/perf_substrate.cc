/**
 * @file
 * google-benchmark microbenchmarks of the substrates: out-of-order core
 * throughput, functional interpreter throughput, cache access path,
 * ACE-like profiling overhead, fault-list grouping throughput, and the
 * checkpointed multi-threaded injection engine (per-injection time and
 * speedup against the seed serial from-cycle-0 path).
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstring>
#include <string>

#include "bench/common.hh"
#include "faultsim/runner.hh"
#include "isa/interp.hh"
#include "merlin/campaign.hh"
#include "merlin/grouping.hh"
#include "merlin/sampling.hh"
#include "profile/ace.hh"
#include "sched/suite.hh"
#include "uarch/core.hh"
#include "workloads/workloads.hh"

namespace
{

using namespace merlin;

const workloads::BuiltWorkload &
qsortWorkload()
{
    static auto w = workloads::buildWorkload("qsort");
    return w;
}

void
BM_CoreRun(benchmark::State &state)
{
    const auto &w = qsortWorkload();
    std::uint64_t cycles = 0;
    for (auto _ : state) {
        uarch::Core core(w.program, uarch::CoreConfig{});
        core.run();
        cycles += core.stats().cycles;
    }
    state.counters["Mcycles/s"] = benchmark::Counter(
        static_cast<double>(cycles) / 1e6, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CoreRun)->Unit(benchmark::kMillisecond);

void
BM_CoreRunProfiled(benchmark::State &state)
{
    const auto &w = qsortWorkload();
    uarch::CoreConfig cfg;
    std::uint64_t cycles = 0;
    for (auto _ : state) {
        profile::AceProfiler prof(cfg.numPhysIntRegs, cfg.sqEntries,
                                  cfg.l1d.totalWords());
        uarch::Core core(w.program, cfg, &prof);
        core.run();
        prof.finalize();
        cycles += core.stats().cycles;
    }
    state.counters["Mcycles/s"] = benchmark::Counter(
        static_cast<double>(cycles) / 1e6, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CoreRunProfiled)->Unit(benchmark::kMillisecond);

void
BM_Interp(benchmark::State &state)
{
    const auto &w = qsortWorkload();
    std::uint64_t instrs = 0;
    for (auto _ : state) {
        auto r = isa::interpret(w.program);
        instrs += r.instret;
    }
    state.counters["Minstr/s"] = benchmark::Counter(
        static_cast<double>(instrs) / 1e6, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Interp)->Unit(benchmark::kMillisecond);

void
BM_CacheAccess(benchmark::State &state)
{
    isa::SegmentedMemory mem;
    mem.addSegment(0x10000, 1 << 20, isa::PermRead | isa::PermWrite);
    uarch::Cache l2("l2", uarch::CacheConfig{256 * 1024, 8, 64, 12},
                    nullptr, &mem);
    uarch::Cache l1("l1", uarch::CacheConfig{32 * 1024, 4, 64, 3}, &l2,
                    nullptr);
    Rng rng(1);
    std::uint64_t n = 0;
    for (auto _ : state) {
        Addr a = 0x10000 + (rng.nextBelow((1 << 20) - 64) & ~7ULL);
        auto r = l1.access(a, false);
        benchmark::DoNotOptimize(l1.readBytes(r.set, r.way, a & 63, 8));
        ++n;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_CacheAccess);

void
BM_GroupingThroughput(benchmark::State &state)
{
    const auto &w = qsortWorkload();
    uarch::CoreConfig cfg;
    profile::AceProfiler prof(cfg.numPhysIntRegs, cfg.sqEntries,
                              cfg.l1d.totalWords());
    uarch::Core core(w.program, cfg, &prof);
    core.run();
    prof.finalize();
    Rng sample_rng(3);
    auto faults = core::sampleFaults(
        uarch::Structure::RegisterFile, cfg.numPhysIntRegs,
        core.stats().cycles, core::specFixed(state.range(0)), sample_rng);
    std::uint64_t total = 0;
    for (auto _ : state) {
        Rng rng(7);
        auto res = core::groupFaults(
            faults, prof.profile(uarch::Structure::RegisterFile),
            core::GroupingOptions{}, rng);
        benchmark::DoNotOptimize(res.groups.data());
        total += faults.size();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(total));
}
BENCHMARK(BM_GroupingThroughput)->Arg(60000)->Arg(600000)
    ->Unit(benchmark::kMillisecond);

// ------------------------------------------- snapshot substrate (COW)

/**
 * Snapshot capture cost, deep (the seed engine's full duplication of
 * memory + cache arrays, emulated by detaching every COW chunk) vs
 * COW (pointer-table copy).  Arg: 0 = deep, 1 = cow.  The bytes/s
 * counter is SnapshotStats::bytesCopied throughput.
 */
void
BM_SnapshotCapture(benchmark::State &state)
{
    const auto &w = qsortWorkload();
    uarch::CoreConfig cfg;
    const bool deep = state.range(0) == 0;
    uarch::Core core(w.program, cfg);
    while (core.cycle() < 2000 && core.tick()) {
    }
    std::uint64_t copied = 0;
    std::uint64_t n = 0;
    for (auto _ : state) {
        uarch::SnapshotStats st;
        auto snap = core.snapshot(&st, deep);
        benchmark::DoNotOptimize(snap);
        copied += st.bytesCopied;
        ++n;
    }
    state.counters["MB_copied/snap"] = static_cast<double>(copied) /
                                       static_cast<double>(n) / 1e6;
}
BENCHMARK(BM_SnapshotCapture)
    ->Arg(0)
    ->Arg(1)
    ->ArgNames({"cow"})
    ->Unit(benchmark::kMicrosecond);

/** Restore cost from one snapshot, deep vs COW (Arg as above). */
void
BM_SnapshotRestore(benchmark::State &state)
{
    const auto &w = qsortWorkload();
    uarch::CoreConfig cfg;
    const bool deep = state.range(0) == 0;
    uarch::Core core(w.program, cfg);
    while (core.cycle() < 2000 && core.tick()) {
    }
    const auto snap = core.snapshot();
    std::uint64_t copied = 0;
    std::uint64_t n = 0;
    for (auto _ : state) {
        uarch::SnapshotStats st;
        uarch::Core restored(w.program, cfg, snap, &st, deep);
        benchmark::DoNotOptimize(restored.cycle());
        copied += st.bytesCopied;
        ++n;
    }
    state.counters["MB_copied/restore"] = static_cast<double>(copied) /
                                          static_cast<double>(n) / 1e6;
}
BENCHMARK(BM_SnapshotRestore)
    ->Arg(0)
    ->Arg(1)
    ->ArgNames({"cow"})
    ->Unit(benchmark::kMicrosecond);

// ------------------------------------------------ injection engine

/** Random RF faults over the golden run, identical for every bench. */
std::vector<faultsim::Fault>
engineFaults(const faultsim::GoldenRun &g, const uarch::CoreConfig &cfg,
             std::size_t n)
{
    Rng rng(11);
    std::vector<faultsim::Fault> faults;
    faults.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        faultsim::Fault f;
        f.structure = uarch::Structure::RegisterFile;
        f.entry = static_cast<EntryIndex>(
            rng.nextBelow(cfg.numPhysIntRegs));
        f.bit = static_cast<std::uint8_t>(rng.nextBelow(64));
        f.cycle = rng.nextBelow(g.stats.cycles);
        faults.push_back(f);
    }
    return faults;
}

/**
 * Seed serial path: no checkpoints, every injection re-simulates from
 * cycle 0, one at a time.
 */
void
BM_InjectSeedSerial(benchmark::State &state)
{
    const auto &w = qsortWorkload();
    uarch::CoreConfig cfg;
    // Replay off: this bench IS the legacy baseline the fast paths
    // are measured against, so it must not take their shortcuts.
    faultsim::RunnerOptions opts;
    opts.checkpointInterval = 0;
    opts.replay = false;
    faultsim::InjectionRunner runner(w.program, cfg, opts);
    const auto g = runner.golden();
    const auto faults = engineFaults(g, cfg, 32);
    std::uint64_t n = 0;
    for (auto _ : state) {
        for (const auto &f : faults)
            benchmark::DoNotOptimize(runner.inject(f, g));
        n += faults.size();
    }
    state.counters["inject/s"] = benchmark::Counter(
        static_cast<double>(n), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_InjectSeedSerial)->Unit(benchmark::kMillisecond);

/** Checkpointed path, still single-threaded (jobs = 1). */
void
BM_InjectCheckpointed(benchmark::State &state)
{
    const auto &w = qsortWorkload();
    uarch::CoreConfig cfg;
    // Replay off, isolating the checkpoint win alone.
    faultsim::RunnerOptions opts;
    opts.replay = false;
    faultsim::InjectionRunner runner(w.program, cfg, opts);
    const auto g = runner.golden();
    const auto faults = engineFaults(g, cfg, 32);
    std::uint64_t n = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(runner.injectBatch(faults, g, 1));
        n += faults.size();
    }
    state.counters["inject/s"] = benchmark::Counter(
        static_cast<double>(n), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_InjectCheckpointed)->Unit(benchmark::kMillisecond);

/**
 * Full engine (checkpoints + thread pool) against the seed serial path
 * on the same fault list.  Arg = jobs.  The "speedup" counter is the
 * acceptance-criterion number: seed serial wall clock / engine wall
 * clock per batch.
 */
void
BM_InjectEngineSpeedup(benchmark::State &state)
{
    const auto &w = qsortWorkload();
    uarch::CoreConfig cfg;
    const unsigned jobs = static_cast<unsigned>(state.range(0));
    // Replay off on BOTH sides: the counter isolates checkpoints +
    // pool against the seed path (BM_ReplayFastForward owns replay).
    faultsim::RunnerOptions opts;
    opts.checkpointInterval = 0;
    opts.replay = false;
    faultsim::InjectionRunner seed_runner(w.program, cfg, opts);
    opts.checkpointInterval =
        faultsim::RunnerOptions::kDefaultCheckpointInterval;
    faultsim::InjectionRunner runner(w.program, cfg, opts);
    const auto g = runner.golden();
    const auto faults = engineFaults(g, cfg, 64);

    // Seed-path reference, measured once outside the timing loop.
    // Golden capture is excluded on both sides: only injection time is
    // compared.
    const auto g_seed = seed_runner.golden();
    const auto t0 = std::chrono::steady_clock::now();
    for (const auto &f : faults)
        benchmark::DoNotOptimize(seed_runner.inject(f, g_seed));
    const double seed_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();

    std::uint64_t n = 0;
    double engine_seconds = 0;
    for (auto _ : state) {
        const auto t1 = std::chrono::steady_clock::now();
        benchmark::DoNotOptimize(runner.injectBatch(faults, g, jobs));
        engine_seconds += std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t1)
                              .count();
        n += faults.size();
    }
    state.counters["inject/s"] = benchmark::Counter(
        static_cast<double>(n), benchmark::Counter::kIsRate);
    state.counters["ms/inject"] =
        1e3 * engine_seconds / static_cast<double>(n);
    state.counters["speedup"] =
        engine_seconds > 0
            ? seed_seconds * (static_cast<double>(n) / faults.size()) /
                  engine_seconds
            : 0.0;
}
BENCHMARK(BM_InjectEngineSpeedup)
    ->Arg(1)
    ->Arg(2)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

/**
 * Golden-reconvergence early exit, off vs on (Arg), on one RF
 * campaign's worth of random faults.  Runs that provably rejoin the
 * golden state stop at the next checkpoint instead of simulating to
 * program end; the ee% counter reports how many did.
 */
void
BM_EarlyExit(benchmark::State &state)
{
    const auto &w = qsortWorkload();
    uarch::CoreConfig cfg;
    faultsim::RunnerOptions opts;
    opts.earlyExit = state.range(0) != 0;
    // Replay off so the off-vs-on delta is the early exit alone.
    opts.replay = false;
    faultsim::InjectionRunner runner(w.program, cfg, opts);
    const auto g = runner.golden();
    const auto faults = engineFaults(g, cfg, 64);
    std::uint64_t n = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(runner.injectBatch(faults, g, 1));
        n += faults.size();
    }
    const auto st = runner.injectionStats();
    state.counters["inject/s"] = benchmark::Counter(
        static_cast<double>(n), benchmark::Counter::kIsRate);
    state.counters["ee%"] =
        st.runs ? 100.0 * static_cast<double>(st.earlyExits) /
                      static_cast<double>(st.runs)
                : 0.0;
}
BENCHMARK(BM_EarlyExit)
    ->Arg(0)
    ->Arg(1)
    ->ArgNames({"on"})
    ->Unit(benchmark::kMillisecond);

/**
 * Golden-trace replay fast path against full simulation on the same
 * random RF fault list.  Most random flips land on dead bytes: the
 * trace classifies them Masked with zero simulation, and diverging
 * flips resume from the last pre-divergence checkpoint instead of the
 * one behind the fault.  The full-sim reference is measured once
 * outside the timing loop (same early-exit setting on both sides, so
 * the delta is the head cost alone); "head_speedup" is the acceptance
 * number, also recorded as bench.replay_head_speedup for --json.
 */
void
BM_ReplayFastForward(benchmark::State &state)
{
    const auto &w = qsortWorkload();
    // The paper's smallest RF variant: enough live entries that the
    // fault list mixes Masked shortcuts with genuine handoffs, so the
    // measured speedup covers both replay paths.
    const uarch::CoreConfig cfg =
        uarch::CoreConfig{}.withRegisterFile(64);
    faultsim::RunnerOptions opts;
    opts.replay = false;
    faultsim::InjectionRunner slow(w.program, cfg, opts);
    opts.replay = true;
    faultsim::InjectionRunner fast(w.program, cfg, opts);
    const auto g_slow = slow.golden();
    const auto g_fast = fast.golden();
    const auto faults = engineFaults(g_fast, cfg, 64);

    const auto t0 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(slow.injectBatch(faults, g_slow, 1));
    const double slow_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();

    std::uint64_t n = 0;
    double fast_seconds = 0;
    for (auto _ : state) {
        const auto t1 = std::chrono::steady_clock::now();
        benchmark::DoNotOptimize(fast.injectBatch(faults, g_fast, 1));
        fast_seconds += std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t1)
                            .count();
        n += faults.size();
    }
    const auto st = fast.injectionStats();
    const double batches = static_cast<double>(n) /
                           static_cast<double>(faults.size());
    const double speedup =
        fast_seconds > 0 ? slow_seconds * batches / fast_seconds : 0.0;
    state.counters["inject/s"] = benchmark::Counter(
        static_cast<double>(n), benchmark::Counter::kIsRate);
    state.counters["head_speedup"] = speedup;
    state.counters["masked%"] =
        st.runs ? 100.0 * static_cast<double>(st.replayMasked) /
                      static_cast<double>(st.runs)
                : 0.0;
    state.counters["skip%"] =
        st.replayHeadCycles
            ? 100.0 * static_cast<double>(st.replayCyclesSkipped) /
                  static_cast<double>(st.replayHeadCycles)
            : 0.0;
    bench::record("bench.replay_head_speedup", speedup);
}
BENCHMARK(BM_ReplayFastForward)->Unit(benchmark::kMillisecond);

// ------------------------------------------------ suite scheduler

/** Four full RF campaigns — the suite-scheduler acceptance workload. */
std::vector<sched::CampaignSpec>
suiteSpecs()
{
    const char *wls[] = {"qsort", "fft", "sha", "stringsearch"};
    std::vector<sched::CampaignSpec> specs;
    for (const char *name : wls) {
        sched::CampaignSpec s;
        s.workload = name;
        s.structure = uarch::Structure::RegisterFile;
        s.regs = 128;
        s.window = 0;
        s.sampling = core::specFixed(300);
        s.seed = 3;
        specs.push_back(std::move(s));
    }
    return specs;
}

/**
 * The pre-suite baseline: campaigns strictly one after another, each
 * single-threaded — what every bench driver did before the scheduler.
 */
void
BM_SuiteSerial(benchmark::State &state)
{
    const auto specs = suiteSpecs();
    std::uint64_t n = 0;
    for (auto _ : state) {
        for (const auto &spec : specs) {
            auto w = workloads::buildWorkload(spec.workload);
            core::Campaign camp(w.program, spec.campaignConfig(w));
            benchmark::DoNotOptimize(camp.run(false));
        }
        n += specs.size();
    }
    state.counters["campaigns/s"] = benchmark::Counter(
        static_cast<double>(n), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SuiteSerial)->Unit(benchmark::kMillisecond);

/**
 * The same four campaigns on the shared-pool scheduler; Arg = jobs.
 * The acceptance criterion is >= 2x over BM_SuiteSerial at Arg(4):
 * profile phases overlap and finished campaigns' workers steal
 * injections from the ones still running.
 */
void
BM_SuiteScheduler(benchmark::State &state)
{
    const auto specs = suiteSpecs();
    sched::SuiteOptions opts;
    opts.jobs = static_cast<unsigned>(state.range(0));
    std::uint64_t n = 0;
    for (auto _ : state) {
        sched::SuiteResult r = sched::SuiteScheduler(specs, opts).run();
        benchmark::DoNotOptimize(r.results.data());
        n += specs.size();
    }
    state.counters["campaigns/s"] = benchmark::Counter(
        static_cast<double>(n), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SuiteScheduler)->Arg(1)->Arg(4)
    ->Unit(benchmark::kMillisecond);

void
BM_Sampling(benchmark::State &state)
{
    Rng rng(5);
    std::uint64_t total = 0;
    for (auto _ : state) {
        auto faults = core::sampleFaults(uarch::Structure::L1DCache,
                                         8192, 100000,
                                         core::specFixed(60000), rng);
        benchmark::DoNotOptimize(faults.data());
        total += faults.size();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(total));
}
BENCHMARK(BM_Sampling)->Unit(benchmark::kMillisecond);

} // namespace

/**
 * BENCHMARK_MAIN() plus one extra flag: --json=FILE writes the metrics
 * snapshot (engine counters + bench::record() measurements) on exit —
 * the same machine-readable path every per-figure bench binary has.
 * The flag is stripped before benchmark::Initialize so google-benchmark
 * never sees it.
 */
int
main(int argc, char **argv)
{
    std::string json;
    int kept = 1;
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--json=", 7) == 0)
            json = argv[i] + 7;
        else
            argv[kept++] = argv[i];
    }
    argc = kept;
    if (!json.empty())
        merlin::bench::detail::dumpMetricsAtExit(json);
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
