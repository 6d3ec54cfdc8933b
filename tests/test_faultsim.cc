/**
 * @file
 * Injection-harness tests: outcome classification against Table 2,
 * timeout rule, window-truncation semantics, determinism.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <vector>

#include "base/logging.hh"
#include "base/rng.hh"
#include "base/threadpool.hh"

#include "faultsim/runner.hh"
#include "masm/asm.hh"
#include "profile/ace.hh"
#include "workloads/workloads.hh"

namespace merlin::faultsim
{
namespace
{

using uarch::Structure;

/** The batch executor on a fresh pool of @p jobs workers (the calling
 *  thread helps run the batch). */
std::vector<Outcome>
injectOnPool(const InjectionRunner &runner, const std::vector<Fault> &faults,
             const GoldenRun &ref, unsigned jobs,
             OutcomeMemo *memo = nullptr)
{
    base::ThreadPool pool(jobs);
    base::TaskGroup group(pool);
    return runner.injectBatch(faults, ref, group, memo);
}

TEST(OutcomeNames, AllDistinct)
{
    for (unsigned i = 0; i < NUM_OUTCOMES; ++i) {
        for (unsigned j = i + 1; j < NUM_OUTCOMES; ++j) {
            EXPECT_STRNE(outcomeName(static_cast<Outcome>(i)),
                         outcomeName(static_cast<Outcome>(j)));
        }
    }
}

TEST(Fault, ByteDerivedFromBit)
{
    Fault f;
    f.bit = 13;
    EXPECT_EQ(f.byte(), 1);
    f.bit = 63;
    EXPECT_EQ(f.byte(), 7);
}

TEST(Runner, GoldenCapturesCleanRun)
{
    auto prog = masm::assemble("movi a0, 9\nout.d a0\nhalt 0\n", "t");
    InjectionRunner runner(prog, uarch::CoreConfig{});
    auto g = runner.golden();
    EXPECT_EQ(g.arch.reason, isa::TerminateReason::Halted);
    EXPECT_FALSE(g.windowed);
    EXPECT_GT(g.stats.cycles, 0u);
}

TEST(Runner, GoldenRefusesTrappingProgram)
{
    auto prog = masm::assemble("movi a0, 1\nmovi a1, 0\ndiv a2, a0, a1\n"
                               "halt 0\n",
                               "t");
    InjectionRunner runner(prog, uarch::CoreConfig{});
    EXPECT_THROW(runner.golden(), FatalError);
}

TEST(Runner, FaultAfterEndIsMasked)
{
    auto prog = masm::assemble("movi a0, 9\nout.d a0\nhalt 0\n", "t");
    InjectionRunner runner(prog, uarch::CoreConfig{});
    auto g = runner.golden();
    Fault f;
    f.structure = Structure::RegisterFile;
    f.entry = 40;
    f.bit = 1;
    f.cycle = g.stats.cycles + 100; // never applied
    EXPECT_EQ(runner.inject(f, g), Outcome::Masked);
}

TEST(Runner, DeadRegisterFaultIsMasked)
{
    auto prog = masm::assemble("movi a0, 9\nout.d a0\nhalt 0\n", "t");
    uarch::CoreConfig cfg;
    InjectionRunner runner(prog, cfg);
    auto g = runner.golden();
    Fault f;
    f.structure = Structure::RegisterFile;
    f.entry = cfg.numPhysIntRegs - 1; // deep in the free list
    f.bit = 5;
    f.cycle = 1;
    EXPECT_EQ(runner.inject(f, g), Outcome::Masked);
}

/**
 * Exhaustively sweep one register's bits at one cycle on a program whose
 * output depends on that register: outcomes must include non-masked ones
 * and every run must classify into a Table-2 category.
 */
TEST(Runner, LiveRegisterSweepProducesNonMaskedOutcomes)
{
    // sum loop kept alive long enough that the flip lands mid-loop.
    auto prog = masm::assemble("  movi s0, 0\n"
                               "  movi s1, 1\n"
                               "  movi s2, 201\n"
                               "loop:\n"
                               "  add s0, s0, s1\n"
                               "  addi s1, s1, 1\n"
                               "  blt s1, s2, loop\n"
                               "  out.d s0\n"
                               "  halt 0\n",
                               "t");
    uarch::CoreConfig cfg;
    InjectionRunner runner(prog, cfg);
    auto g = runner.golden();

    unsigned non_masked = 0;
    for (unsigned reg = 34; reg < 44; ++reg) {
        Fault f;
        f.structure = Structure::RegisterFile;
        f.entry = reg;
        f.bit = 7;
        f.cycle = g.stats.cycles / 2;
        Outcome o = runner.inject(f, g);
        EXPECT_LT(static_cast<unsigned>(o), NUM_OUTCOMES);
        if (o != Outcome::Masked)
            ++non_masked;
    }
    EXPECT_GT(non_masked, 0u);
}

TEST(Runner, SdcDetectedOnCorruptedOutput)
{
    // Find a fault that corrupts the printed value: flip a high bit of
    // the accumulator register just before the OUT.
    auto prog = masm::assemble("  movi s0, 5\n"
                               "  movi s1, 0\n"
                               "  movi s2, 400\n"
                               "spin:\n"
                               "  addi s1, s1, 1\n"
                               "  blt s1, s2, spin\n"
                               "  out.d s0\n"
                               "  halt 0\n",
                               "t");
    uarch::CoreConfig cfg;
    InjectionRunner runner(prog, cfg);
    auto g = runner.golden();
    // s0's physical register: first free-list allocation.  Rather than
    // guess, sweep a few registers late in the run and require at least
    // one SDC (the value sits idle for ~400 iterations).
    bool saw_sdc = false;
    for (unsigned reg = 34; reg < 54 && !saw_sdc; ++reg) {
        Fault f;
        f.structure = Structure::RegisterFile;
        f.entry = reg;
        f.bit = 3;
        f.cycle = g.stats.cycles - 50;
        if (runner.inject(f, g) == Outcome::SDC)
            saw_sdc = true;
    }
    EXPECT_TRUE(saw_sdc);
}

TEST(Runner, StoreQueueFaultCanReachMemory)
{
    // Store a value, read it back much later (after drain): an SQ data
    // flip between execute and drain corrupts memory -> SDC.
    auto prog = masm::assemble(".data\nv: .quad 0\n.text\n"
                               "  la s0, v\n"
                               "  movi s1, 0x77\n"
                               "  st.d s1, [s0]\n"
                               "  movi s2, 0\n"
                               "  movi s3, 120\n"
                               "wait:\n"
                               "  addi s2, s2, 1\n"
                               "  blt s2, s3, wait\n"
                               "  ld.d s4, [s0]\n"
                               "  out.d s4\n"
                               "  halt 0\n",
                               "t");
    uarch::CoreConfig cfg;
    InjectionRunner runner(prog, cfg);
    auto g = runner.golden();
    unsigned sdc = 0;
    for (unsigned slot = 0; slot < cfg.sqEntries; ++slot) {
        for (Cycle c = 90; c < 100; ++c) {
            Fault f;
            f.structure = Structure::StoreQueue;
            f.entry = slot;
            f.bit = 0;
            f.cycle = c;
            if (runner.inject(f, g) == Outcome::SDC)
                ++sdc;
        }
    }
    EXPECT_GT(sdc, 0u);
}

TEST(Runner, L1dFaultSweepClassifies)
{
    auto w = workloads::buildWorkload("susan_s");
    uarch::CoreConfig cfg;
    InjectionRunner runner(w.program, cfg);
    auto g = runner.golden();
    Rng rng(7);
    unsigned nm = 0;
    for (unsigned i = 0; i < 30; ++i) {
        Fault f;
        f.structure = Structure::L1DCache;
        f.entry = static_cast<EntryIndex>(
            rng.nextBelow(cfg.l1d.totalWords()));
        f.bit = static_cast<std::uint8_t>(rng.nextBelow(64));
        f.cycle = rng.nextBelow(g.stats.cycles);
        Outcome o = runner.inject(f, g);
        EXPECT_LT(static_cast<unsigned>(o), NUM_OUTCOMES);
        if (o != Outcome::Masked)
            ++nm;
    }
    // Most random L1D faults are masked; the sweep must still classify.
    EXPECT_LE(nm, 30u);
}

TEST(Runner, InjectionIsDeterministic)
{
    auto w = workloads::buildWorkload("qsort");
    uarch::CoreConfig cfg;
    InjectionRunner runner(w.program, cfg);
    auto g = runner.golden();
    Fault f;
    f.structure = Structure::RegisterFile;
    f.entry = 60;
    f.bit = 11;
    f.cycle = g.stats.cycles / 3;
    Outcome o1 = runner.inject(f, g);
    Outcome o2 = runner.inject(f, g);
    EXPECT_EQ(o1, o2);
}

TEST(Runner, WindowedGoldenSnapshotsState)
{
    auto w = workloads::buildWorkload("mcf");
    uarch::CoreConfig cfg;
    cfg.instructionWindowEnd = w.suggestedWindow;
    InjectionRunner runner(w.program, cfg);
    auto g = runner.golden();
    EXPECT_TRUE(g.windowed);
    EXPECT_EQ(g.arch.reason, isa::TerminateReason::WindowEnd);
    ASSERT_NE(g.archMem, nullptr);
}

TEST(FaultKey, WidePackingRoundTripsAndIsDistinct)
{
    // Regression for the old 44/14/6 packing that capped entries at
    // 16K words (a 128 KB L1D): 18 entry bits must survive.
    Fault a;
    a.cycle = (1ULL << 40) - 1;
    a.entry = (1u << 18) - 1; // 256K words = a 2 MB data array
    a.bit = 63;
    Fault b = a;
    b.entry = (1u << 14); // first entry the old packing overflowed on
    EXPECT_NE(faultKey(a), faultKey(b));

    // Key distinctness over a dense sample of the coordinate space.
    std::vector<std::uint64_t> keys;
    for (Cycle c : {0ULL, 1ULL, (1ULL << 39)}) {
        for (EntryIndex e : {0u, 16384u, 100000u, (1u << 18) - 1}) {
            for (unsigned bit : {0u, 63u}) {
                Fault f;
                f.cycle = c;
                f.entry = e;
                f.bit = static_cast<std::uint8_t>(bit);
                keys.push_back(faultKey(f));
            }
        }
    }
    std::sort(keys.begin(), keys.end());
    EXPECT_EQ(std::adjacent_find(keys.begin(), keys.end()), keys.end());
}

/** End-to-end: inject into L1D entries past the old 16K-word cap. */
TEST(FaultKey, LargeL1dEntriesInjectThroughTheBatchPath)
{
    auto w = workloads::buildWorkload("qsort");
    uarch::CoreConfig cfg = uarch::CoreConfig{}.withL1dKb(256);
    InjectionRunner runner(w.program, cfg);
    auto g = runner.golden();
    std::vector<Fault> faults;
    for (EntryIndex e : {16384u, 20000u, cfg.l1d.totalWords() - 1}) {
        Fault f;
        f.structure = Structure::L1DCache;
        f.entry = e;
        f.bit = 9;
        f.cycle = g.stats.cycles / 2;
        faults.push_back(f);
    }
    OutcomeMemo memo(faults.size());
    const auto outs = injectOnPool(runner, faults, g, 2, &memo);
    ASSERT_EQ(outs.size(), faults.size());
    EXPECT_EQ(memo.size(), faults.size());
    for (Outcome o : outs)
        EXPECT_LT(static_cast<unsigned>(o), NUM_OUTCOMES);
}

/** A fault key does not name the structure, so a batch that mixes
 *  structures would alias distinct faults onto one outcome: refused. */
TEST(FaultKey, MixedStructureBatchIsRefusedByName)
{
    auto prog = masm::assemble("movi a0, 9\nout.d a0\nhalt 0\n", "t");
    InjectionRunner runner(prog, uarch::CoreConfig{});
    Fault rf;
    rf.structure = Structure::RegisterFile;
    rf.entry = 3;
    rf.cycle = 2;
    Fault sq = rf;
    sq.structure = Structure::StoreQueue;
    ASSERT_EQ(faultKey(rf), faultKey(sq));
    try {
        runner.planBatch({rf, rf, sq});
        ADD_FAILURE() << "a mixed batch was planned";
    } catch (const FatalError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find(uarch::structureName(rf.structure)),
                  std::string::npos)
            << what;
        EXPECT_NE(what.find(uarch::structureName(sq.structure)),
                  std::string::npos)
            << what;
    }
    EXPECT_EQ(runner.planBatch({sq, sq}).work.size(), 1u);
}

TEST(FaultKey, OverflowTripsTheAssert)
{
    Fault f;
    f.entry = 1u << 18;
    EXPECT_THROW(faultKey(f), SimAssertError);
}

TEST(OutcomeMemo, LookupInsertRoundTrip)
{
    OutcomeMemo memo(1000);
    Outcome o = Outcome::Masked;
    EXPECT_FALSE(memo.lookup(42, o));
    memo.insert(42, Outcome::SDC);
    ASSERT_TRUE(memo.lookup(42, o));
    EXPECT_EQ(o, Outcome::SDC);
    EXPECT_EQ(memo.size(), 1u);
    // First insertion wins (outcomes are deterministic anyway).
    memo.insert(42, Outcome::DUE);
    ASSERT_TRUE(memo.lookup(42, o));
    EXPECT_EQ(o, Outcome::SDC);
}

/** Checkpointed resume must classify exactly like a from-scratch run. */
TEST(Runner, CheckpointResumeMatchesFromScratch)
{
    auto w = workloads::buildWorkload("qsort");
    uarch::CoreConfig cfg;
    // Fine-grained checkpoints vs none at all.
    RunnerOptions fine;
    fine.checkpointInterval = 128;
    RunnerOptions none;
    none.checkpointInterval = 0;
    InjectionRunner ck(w.program, cfg, fine);
    InjectionRunner scratch(w.program, cfg, none);
    auto g_ck = ck.golden();
    auto g_scratch = scratch.golden();
    ASSERT_FALSE(g_ck.checkpoints.empty());
    EXPECT_TRUE(g_scratch.checkpoints.empty());
    EXPECT_EQ(g_ck.stats.cycles, g_scratch.stats.cycles);

    Rng rng(21);
    for (unsigned i = 0; i < 40; ++i) {
        Fault f;
        f.structure = Structure::RegisterFile;
        f.entry = static_cast<EntryIndex>(
            rng.nextBelow(cfg.numPhysIntRegs));
        f.bit = static_cast<std::uint8_t>(rng.nextBelow(64));
        f.cycle = rng.nextBelow(g_ck.stats.cycles);
        EXPECT_EQ(ck.inject(f, g_ck), scratch.inject(f, g_scratch))
            << "entry " << f.entry << " bit " << unsigned(f.bit)
            << " cycle " << f.cycle;
    }
}

TEST(Runner, CheckpointListIsAscendingAndBounded)
{
    auto w = workloads::buildWorkload("qsort");
    uarch::CoreConfig cfg;
    RunnerOptions opts;
    opts.checkpointInterval = 8; // reaches the bound on qsort
    InjectionRunner runner(w.program, cfg, opts);
    auto g = runner.golden();
    ASSERT_FALSE(g.checkpoints.empty());
    EXPECT_LE(g.checkpoints.size(), InjectionRunner::kMaxCheckpoints);
    EXPECT_GT(g.checkpoints[0].cycle(), opts.checkpointInterval);
    for (std::size_t i = 1; i < g.checkpoints.size(); ++i)
        EXPECT_LT(g.checkpoints[i - 1].cycle(),
                  g.checkpoints[i].cycle());
    EXPECT_LT(g.checkpoints.back().cycle(), g.stats.cycles);
}

/**
 * Checkpoint-thinning regression: after thinning has fired (once,
 * then repeatedly), every kept checkpoint must still hold bit-identical
 * golden state — a fresh run advanced to the checkpoint cycle compares
 * equal — and a run resumed from any of them must finish exactly like
 * the golden run.  The kept grid must stay uniform through the last
 * checkpoint: thinning may never drop the deepest resume point.
 */
TEST(Runner, ThinnedCheckpointsHoldBitIdenticalGoldenState)
{
    auto w = workloads::buildWorkload("qsort");
    uarch::CoreConfig cfg;
    // qsort runs ~21,600 cycles: a 128-cycle grid passes the bound of
    // InjectionRunner::kMaxCheckpoints once, a 32-cycle grid thrice.
    for (const Cycle interval : {128u, 32u}) {
        RunnerOptions opts;
        opts.checkpointInterval = interval;
        InjectionRunner runner(w.program, cfg, opts);
        auto g = runner.golden();
        ASSERT_GE(g.checkpoints.size(), 2u);

        // Thinning fired: the kept grid is coarser than requested, and
        // the denser grid has been through at least one more round.
        const Cycle spacing =
            g.checkpoints[1].cycle() - g.checkpoints[0].cycle();
        unsigned rounds = 0;
        for (Cycle s = interval; s < spacing; s *= 2)
            ++rounds;
        EXPECT_GE(rounds, interval == 128u ? 1u : 2u)
            << "interval " << interval << " spacing " << spacing;

        // Uniform grid through the back: the last checkpoint survived
        // every thinning round.
        for (std::size_t i = 1; i < g.checkpoints.size(); ++i) {
            EXPECT_EQ(g.checkpoints[i].cycle(),
                      g.checkpoints[0].cycle() + i * spacing);
        }
        EXPECT_GT(g.checkpoints.back().cycle() + 2 * spacing,
                  g.stats.cycles);

        // Bit-identical state at every kept checkpoint.
        uarch::Core fresh(w.program, cfg);
        auto ck = g.checkpoints.begin();
        while (ck != g.checkpoints.end()) {
            if (fresh.cycle() == ck->cycle()) {
                EXPECT_TRUE(fresh.stateEquals(*ck))
                    << "checkpoint at cycle " << ck->cycle();
                ++ck;
            }
            ASSERT_TRUE(fresh.tick());
        }

        // Resume from every kept checkpoint reproduces the golden run.
        for (const auto &snap : g.checkpoints) {
            uarch::Core resumed(w.program, cfg, snap);
            const auto r = resumed.run();
            EXPECT_EQ(r.reason, g.arch.reason);
            EXPECT_EQ(r.output, g.arch.output);
            EXPECT_EQ(r.exitCode, g.arch.exitCode);
            EXPECT_EQ(resumed.stats().cycles, g.stats.cycles);
        }
    }
}

TEST(Runner, TimeoutBudgetIsSaturatingAndFactorScaled)
{
    constexpr Cycle kMax = std::numeric_limits<Cycle>::max();
    EXPECT_EQ(InjectionRunner::timeoutBudget(100, 3), 1300u);
    EXPECT_EQ(InjectionRunner::timeoutBudget(100, 5), 1500u);
    // Factor 0 is treated as 1, never a zero budget.
    EXPECT_EQ(InjectionRunner::timeoutBudget(100, 0), 1100u);
    // The seed expression 3*c+1000 wrapped here; it must clamp.
    EXPECT_EQ(InjectionRunner::timeoutBudget(kMax / 2, 3), kMax);
    EXPECT_EQ(InjectionRunner::timeoutBudget(kMax, 1), kMax);
    EXPECT_EQ(InjectionRunner::timeoutBudget((kMax - 1000) / 3, 3),
              kMax - 1000 - (kMax - 1000) % 3 + 1000);
}

/**
 * The early-exit acceptance property: outcomes are bit-identical on a
 * checkpointed runner and on the plain one (the exit only skips
 * simulation past a proven state match), and the exit actually fires.
 * The step at the flip decides almost every dead flip before the first
 * checkpoint, so the list holds ACE-vulnerable flips, the ones a truth
 * sweep injects.
 */
TEST(Runner, EarlyExitPreservesEveryOutcome)
{
    auto w = workloads::buildWorkload("qsort");
    uarch::CoreConfig cfg;
    RunnerOptions on;
    on.checkpointInterval = 128;
    RunnerOptions off;
    off.checkpointInterval = 0;

    InjectionRunner fast(w.program, cfg, on);
    InjectionRunner slow(w.program, cfg, off);
    profile::AceProfiler ace(cfg.numPhysIntRegs, cfg.sqEntries,
                             cfg.l1d.totalWords());
    auto g_fast = fast.golden(&ace);
    ace.finalize();
    auto g_slow = slow.golden();
    ASSERT_EQ(g_fast.stats.cycles, g_slow.stats.cycles);

    Rng rng(17);
    std::vector<Fault> faults;
    while (faults.size() < 100) {
        Fault f;
        f.structure = Structure::RegisterFile;
        f.entry = static_cast<EntryIndex>(
            rng.nextBelow(cfg.numPhysIntRegs));
        f.bit = static_cast<std::uint8_t>(rng.nextBelow(64));
        f.cycle = rng.nextBelow(g_fast.stats.cycles);
        if (ace.profile(f.structure).find(f.entry, f.cycle))
            faults.push_back(f);
    }
    const auto with = injectOnPool(fast, faults, g_fast, 1);
    const auto without = injectOnPool(slow, faults, g_slow, 1);
    EXPECT_EQ(with, without);

    // The exit must have fired, and only on the checkpointed runner.
    EXPECT_GT(fast.injectionStats().earlyExits, 0u);
    EXPECT_GT(fast.injectionStats().runs, 0u);
    EXPECT_LE(fast.injectionStats().earlyExits,
              fast.injectionStats().runs);
    EXPECT_EQ(slow.injectionStats().earlyExits, 0u);
}

/** Early exit across all three target structures stays classification-
 *  preserving (SQ and L1D flips detach COW chunks mid-run). */
TEST(Runner, EarlyExitMatchesAcrossStructures)
{
    auto w = workloads::buildWorkload("fft");
    uarch::CoreConfig cfg = uarch::CoreConfig{}.withStoreQueue(16);
    RunnerOptions off;
    off.checkpointInterval = 0;
    InjectionRunner fast(w.program, cfg);
    InjectionRunner slow(w.program, cfg, off);
    auto g = fast.golden();
    auto g_off = slow.golden();

    Rng rng(23);
    for (Structure s : {Structure::RegisterFile, Structure::StoreQueue,
                        Structure::L1DCache}) {
        const unsigned entries =
            s == Structure::RegisterFile ? cfg.numPhysIntRegs
            : s == Structure::StoreQueue ? cfg.sqEntries
                                         : cfg.l1d.totalWords();
        for (unsigned i = 0; i < 12; ++i) {
            Fault f;
            f.structure = s;
            f.entry = static_cast<EntryIndex>(rng.nextBelow(entries));
            f.bit = static_cast<std::uint8_t>(rng.nextBelow(64));
            f.cycle = rng.nextBelow(g.stats.cycles);
            EXPECT_EQ(fast.inject(f, g), slow.inject(f, g_off))
                << uarch::structureName(s) << " entry " << f.entry
                << " bit " << unsigned(f.bit) << " cycle " << f.cycle;
        }
    }
}

// ------------------------------------------------ replay fast path

/**
 * The replay acceptance property: outcomes are bit-identical with the
 * step at the flip (a checkpointed runner) and without it (the plain
 * one), across all three target structures, one batch per structure,
 * and the trace actually resolves faults both ways (shortcut Masked
 * and divergence handoff).
 */
TEST(Runner, ReplayPreservesEveryOutcome)
{
    auto w = workloads::buildWorkload("qsort");
    uarch::CoreConfig cfg;
    RunnerOptions off;
    off.checkpointInterval = 0;
    InjectionRunner fast(w.program, cfg);
    InjectionRunner slow(w.program, cfg, off);
    auto g_fast = fast.golden();
    auto g_slow = slow.golden();
    ASSERT_NE(g_fast.trace, nullptr);
    EXPECT_EQ(g_slow.trace, nullptr);
    EXPECT_GT(g_fast.trace->numEvents(), 0u);

    Rng rng(41);
    std::vector<Fault> batches[3];
    for (unsigned i = 0; i < 90; ++i) {
        Fault f;
        f.structure = i % 3 == 0   ? Structure::RegisterFile
                      : i % 3 == 1 ? Structure::StoreQueue
                                   : Structure::L1DCache;
        const unsigned entries =
            f.structure == Structure::RegisterFile ? cfg.numPhysIntRegs
            : f.structure == Structure::StoreQueue ? cfg.sqEntries
                                                   : cfg.l1d.totalWords();
        f.entry = static_cast<EntryIndex>(rng.nextBelow(entries));
        f.bit = static_cast<std::uint8_t>(rng.nextBelow(64));
        f.cycle = rng.nextBelow(g_fast.stats.cycles);
        batches[i % 3].push_back(f);
    }
    for (const std::vector<Fault> &faults : batches) {
        EXPECT_EQ(injectOnPool(fast, faults, g_fast, 1),
                  injectOnPool(slow, faults, g_slow, 1))
            << uarch::structureName(faults[0].structure);
    }

    // The trace resolves faults both ways; the plain runner never
    // consults it.
    const auto st = fast.injectionStats();
    EXPECT_GT(st.replayMasked, 0u);
    EXPECT_LT(st.replayMasked, st.runs);
    EXPECT_GT(st.replayCyclesSkipped, 0u);
    EXPECT_EQ(slow.injectionStats().replayMasked, 0u);
    EXPECT_EQ(slow.injectionStats().replayHeadCycles, 0u);
    EXPECT_EQ(slow.injectionStats().replayCyclesSkipped, 0u);
}

/**
 * The replay floor in simulated cycles, not seconds: on a pinned RF
 * fault list the trace must skip at least half of the pre-divergence
 * head, i.e. replay at least halves the head cost.  The smallest
 * paper RF variant gives enough live entries that the list mixes
 * Masked shortcuts with genuine handoffs.  Requiring a non-empty head
 * keeps a runner that skips the step at the flip (both cycle counters
 * zero) from passing trivially.
 */
TEST(Runner, ReplaySkipsAtLeastHalfTheHead)
{
    auto w = workloads::buildWorkload("qsort");
    const uarch::CoreConfig cfg =
        uarch::CoreConfig{}.withRegisterFile(64);
    RunnerOptions off;
    off.checkpointInterval = 0;
    InjectionRunner fast(w.program, cfg);
    InjectionRunner slow(w.program, cfg, off);
    const auto g_fast = fast.golden();
    const auto g_slow = slow.golden();

    Rng rng(11);
    std::vector<Fault> faults;
    for (unsigned i = 0; i < 64; ++i) {
        Fault f;
        f.structure = Structure::RegisterFile;
        f.entry = static_cast<EntryIndex>(
            rng.nextBelow(cfg.numPhysIntRegs));
        f.bit = static_cast<std::uint8_t>(rng.nextBelow(64));
        f.cycle = rng.nextBelow(g_fast.stats.cycles);
        faults.push_back(f);
    }
    EXPECT_EQ(injectOnPool(fast, faults, g_fast, 1),
              injectOnPool(slow, faults, g_slow, 1));

    const auto st = fast.injectionStats();
    EXPECT_EQ(st.runs, 64u);
    EXPECT_GT(st.replayHeadCycles, 0u);
    EXPECT_GE(2 * st.replayCyclesSkipped, st.replayHeadCycles)
        << st.replayCyclesSkipped << " of " << st.replayHeadCycles
        << " head cycles skipped";
}

/**
 * Windowed runs: a never-touched flip is still latent at the window
 * end, so replay must hand it off to the Table-4 comparison rather
 * than shortcut it — the Unknown class must survive intact.
 */
TEST(Runner, ReplayPreservesWindowedOutcomes)
{
    auto w = workloads::buildWorkload("mcf");
    uarch::CoreConfig cfg;
    cfg.instructionWindowEnd = w.suggestedWindow;
    RunnerOptions off;
    off.checkpointInterval = 0;
    InjectionRunner fast(w.program, cfg);
    InjectionRunner slow(w.program, cfg, off);
    auto g_fast = fast.golden();
    auto g_slow = slow.golden();
    ASSERT_TRUE(g_fast.windowed);

    Rng rng(5);
    unsigned unknown = 0;
    for (unsigned i = 0; i < 60; ++i) {
        Fault f;
        f.structure = Structure::RegisterFile;
        f.entry = static_cast<EntryIndex>(
            rng.nextBelow(cfg.numPhysIntRegs));
        f.bit = static_cast<std::uint8_t>(rng.nextBelow(64));
        f.cycle = rng.nextBelow(g_fast.stats.cycles);
        const Outcome o = fast.inject(f, g_fast);
        EXPECT_EQ(o, slow.inject(f, g_slow))
            << "entry " << f.entry << " bit " << unsigned(f.bit)
            << " cycle " << f.cycle;
        if (o == Outcome::Unknown)
            ++unknown;
    }
    EXPECT_GT(unknown, 0u);
}

/**
 * The reconvergence floor in simulated cycles, not seconds.  On pinned
 * lists of ACE-vulnerable faults, the kind a truth sweep injects
 * (qsort across all three structures, windowed mcf RF and L1D), the
 * outcomes are identical with the reconvergence step (a checkpointed
 * runner) and without it (the plain one), and the checkpoint steps'
 * resumes and decisions skip at least a third of the post-flip cycles
 * the runner would otherwise simulate.
 */
TEST(Runner, ReconvergenceSkipsAThirdOfThePostFlipCycles)
{
    struct List
    {
        const char *workload;
        bool windowed;
        Structure structure;
    };
    const List lists[] = {
        {"qsort", false, Structure::RegisterFile},
        {"qsort", false, Structure::StoreQueue},
        {"qsort", false, Structure::L1DCache},
        {"mcf", true, Structure::RegisterFile},
        {"mcf", true, Structure::L1DCache},
    };
    std::uint64_t skipped = 0;
    std::uint64_t simulated = 0;
    std::uint64_t resumes = 0;
    for (const List &l : lists) {
        const auto w = workloads::buildWorkload(l.workload);
        uarch::CoreConfig cfg;
        if (l.windowed)
            cfg.instructionWindowEnd = w.suggestedWindow;
        RunnerOptions off;
        off.checkpointInterval = 0;
        InjectionRunner fast(w.program, cfg);
        InjectionRunner slow(w.program, cfg, off);
        const unsigned entries = uarch::structureEntries(l.structure, cfg);
        profile::AceProfiler ace(cfg.numPhysIntRegs, cfg.sqEntries,
                                 cfg.l1d.totalWords());
        const auto g_fast = fast.golden(&ace);
        ace.finalize();
        const auto g_slow = slow.golden();
        ASSERT_EQ(g_fast.windowed, l.windowed);

        Rng rng(7);
        std::vector<Fault> faults;
        while (faults.size() < 150) {
            Fault f;
            f.structure = l.structure;
            f.entry = static_cast<EntryIndex>(rng.nextBelow(entries));
            f.bit = static_cast<std::uint8_t>(rng.nextBelow(64));
            f.cycle = rng.nextBelow(g_fast.stats.cycles);
            if (ace.profile(l.structure).find(f.entry, f.cycle))
                faults.push_back(f);
        }
        EXPECT_EQ(injectOnPool(fast, faults, g_fast, 2),
                  injectOnPool(slow, faults, g_slow, 2))
            << l.workload << " " << uarch::structureName(l.structure);
        const InjectionStats st = fast.injectionStats();
        skipped += st.deltaCyclesSkipped;
        simulated += st.postFlipCycles;
        resumes += st.deltaResumes;
        EXPECT_EQ(slow.injectionStats().deltaCyclesSkipped, 0u);
    }
    EXPECT_GT(resumes, 0u);
    EXPECT_GE(3 * skipped, skipped + simulated)
        << skipped << " of " << skipped + simulated
        << " post-flip cycles skipped";
}

/** A replay shortcut is counted, with its skipped cycles, in the
 *  runner's InjectionStats. */
TEST(Runner, ReplayShortcutCountsMaskedAndSkippedCycles)
{
    auto prog = masm::assemble("movi a0, 9\nout.d a0\nhalt 0\n", "t");
    uarch::CoreConfig cfg;
    InjectionRunner runner(prog, cfg);
    auto g = runner.golden();
    ASSERT_NE(g.trace, nullptr);

    // Deep in the free list, flipped on the final cycles: nothing can
    // touch it again, so the trace proves it dead outright.
    Fault f;
    f.structure = Structure::RegisterFile;
    f.entry = cfg.numPhysIntRegs - 1;
    f.bit = 5;
    f.cycle = g.stats.cycles - 1;
    const InjectionStats before = runner.injectionStats();
    EXPECT_EQ(runner.inject(f, g), Outcome::Masked);
    const InjectionStats after = runner.injectionStats();
    EXPECT_EQ(after.runs - before.runs, 1u);
    EXPECT_EQ(after.replayMasked - before.replayMasked, 1u);
    const std::uint64_t skipped =
        after.replayCyclesSkipped - before.replayCyclesSkipped;
    EXPECT_EQ(skipped, after.replayHeadCycles - before.replayHeadCycles);
    EXPECT_GT(skipped, 0u);
}

/** jobs=1 and jobs=8 must produce bit-identical outcome vectors. */
TEST(Runner, InjectBatchIsDeterministicAcrossThreadCounts)
{
    auto w = workloads::buildWorkload("qsort");
    uarch::CoreConfig cfg;
    InjectionRunner runner(w.program, cfg);
    auto g = runner.golden();

    Rng rng(31);
    std::vector<Fault> faults;
    for (unsigned i = 0; i < 60; ++i) {
        Fault f;
        f.structure = Structure::RegisterFile;
        f.entry = static_cast<EntryIndex>(
            rng.nextBelow(cfg.numPhysIntRegs));
        f.bit = static_cast<std::uint8_t>(rng.nextBelow(64));
        f.cycle = rng.nextBelow(g.stats.cycles);
        faults.push_back(f);
    }
    // Duplicates exercise the in-batch dedup path.
    faults.push_back(faults[3]);
    faults.push_back(faults[17]);

    const auto serial = injectOnPool(runner, faults, g, 1);
    const auto parallel = injectOnPool(runner, faults, g, 8);
    ASSERT_EQ(serial.size(), faults.size());
    EXPECT_EQ(serial, parallel);

    // And both agree with one-at-a-time injection.
    for (std::size_t i = 0; i < faults.size(); ++i)
        EXPECT_EQ(serial[i], runner.inject(faults[i], g)) << "fault " << i;
}

TEST(Runner, InjectBatchReusesTheMemo)
{
    auto w = workloads::buildWorkload("qsort");
    uarch::CoreConfig cfg;
    InjectionRunner runner(w.program, cfg);
    auto g = runner.golden();

    Rng rng(33);
    std::vector<Fault> faults;
    for (unsigned i = 0; i < 10; ++i) {
        Fault f;
        f.structure = Structure::RegisterFile;
        f.entry = static_cast<EntryIndex>(
            rng.nextBelow(cfg.numPhysIntRegs));
        f.bit = static_cast<std::uint8_t>(rng.nextBelow(64));
        // Distinct cycles guarantee distinct keys for the size checks.
        f.cycle = 10 + i * (g.stats.cycles / 16);
        faults.push_back(f);
    }
    OutcomeMemo memo(faults.size());
    const auto first = injectOnPool(runner, faults, g, 2, &memo);
    EXPECT_EQ(memo.size(), faults.size());
    // Second batch over the same faults is answered from the memo and
    // must agree exactly.
    const auto second = injectOnPool(runner, faults, g, 2, &memo);
    EXPECT_EQ(first, second);
    EXPECT_EQ(memo.size(), faults.size());
}

TEST(Runner, WindowedRunsUseUnknownCategory)
{
    auto w = workloads::buildWorkload("mcf");
    uarch::CoreConfig cfg;
    cfg.instructionWindowEnd = w.suggestedWindow;
    InjectionRunner runner(w.program, cfg);
    auto g = runner.golden();
    Rng rng(5);
    unsigned unknown = 0, masked = 0;
    for (unsigned i = 0; i < 60; ++i) {
        Fault f;
        f.structure = Structure::RegisterFile;
        f.entry = static_cast<EntryIndex>(
            rng.nextBelow(cfg.numPhysIntRegs));
        f.bit = static_cast<std::uint8_t>(rng.nextBelow(64));
        f.cycle = rng.nextBelow(g.stats.cycles);
        Outcome o = runner.inject(f, g);
        if (o == Outcome::Unknown)
            ++unknown;
        if (o == Outcome::Masked)
            ++masked;
    }
    EXPECT_GT(masked, 0u);
    EXPECT_GT(unknown, 0u); // latent faults exist at the window end
}

// ------------------------------------------------ quarantine guard

namespace
{

/** A runner over the live-loop program with @p opts' guard knobs. */
isa::Program
loopProgram()
{
    return masm::assemble("  movi s0, 0\n"
                          "  movi s1, 1\n"
                          "  movi s2, 201\n"
                          "loop:\n"
                          "  add s0, s0, s1\n"
                          "  addi s1, s1, 1\n"
                          "  blt s1, s2, loop\n"
                          "  out.d s0\n"
                          "  halt 0\n",
                          "t");
}

Fault
midRunFault(const GoldenRun &g, EntryIndex entry = 40)
{
    Fault f;
    f.structure = Structure::RegisterFile;
    f.entry = entry;
    f.bit = 7;
    f.cycle = g.stats.cycles / 2;
    return f;
}

} // namespace

TEST(Quarantine, EscapedSimulatorExceptionIsRecordedAsCrash)
{
    auto prog = loopProgram();
    RunnerOptions opts;
    // The plain run simulates every post-flip cycle the hook watches.
    opts.checkpointInterval = 0;
    // Model a fault that corrupts the simulator: the run throws a few
    // cycles after the flip lands.
    opts.injectHook = [](const Fault &f, Cycle c) {
        if (c >= f.cycle + 3)
            throw std::runtime_error("boom");
    };
    InjectionRunner runner(prog, uarch::CoreConfig{}, opts);
    auto g = runner.golden();

    InjectDetail detail;
    const Fault f = midRunFault(g);
    EXPECT_EQ(runner.inject(f, g, &detail), Outcome::Crash);
    EXPECT_TRUE(detail.quarantined);
    EXPECT_NE(detail.reason.find("simulator exception: boom"),
              std::string::npos);

    const auto q = runner.quarantineRecords();
    ASSERT_EQ(q.size(), 1u);
    EXPECT_EQ(q[0].faultKey, faultKey(f));
    EXPECT_EQ(q[0].reason, detail.reason);
    EXPECT_EQ(runner.injectionStats().quarantined, 1u);
}

TEST(Quarantine, NonStandardExceptionIsGuardedToo)
{
    auto prog = loopProgram();
    RunnerOptions opts;
    opts.checkpointInterval = 0;
    opts.injectHook = [](const Fault &f, Cycle c) {
        if (c >= f.cycle + 3)
            throw 42; // immune to catch (std::exception&)
    };
    InjectionRunner runner(prog, uarch::CoreConfig{}, opts);
    auto g = runner.golden();

    InjectDetail detail;
    EXPECT_EQ(runner.inject(midRunFault(g), g, &detail), Outcome::Crash);
    EXPECT_TRUE(detail.quarantined);
    EXPECT_EQ(detail.reason, "non-standard exception");
}

TEST(Quarantine, BatchCompletesAroundAPathologicalFault)
{
    auto prog = loopProgram();
    RunnerOptions opts;
    opts.checkpointInterval = 0;
    const EntryIndex sick_entry = 40;
    opts.injectHook = [sick_entry](const Fault &f, Cycle) {
        if (f.structure == Structure::RegisterFile &&
            f.entry == sick_entry)
            throw std::runtime_error("only this fault is sick");
    };
    InjectionRunner runner(prog, uarch::CoreConfig{}, opts);
    auto g = runner.golden();

    // A clean reference runner classifies the healthy faults.
    InjectionRunner clean(prog, uarch::CoreConfig{});
    auto gc = clean.golden();

    std::vector<Fault> faults;
    for (EntryIndex e = 36; e < 44; ++e)
        faults.push_back(midRunFault(g, e));
    const auto outcomes = injectOnPool(runner, faults, g, 2);
    ASSERT_EQ(outcomes.size(), faults.size());
    for (std::size_t i = 0; i < faults.size(); ++i) {
        if (faults[i].entry == sick_entry)
            EXPECT_EQ(outcomes[i], Outcome::Crash);
        else
            EXPECT_EQ(outcomes[i], clean.inject(faults[i], gc));
    }
    ASSERT_EQ(runner.quarantineRecords().size(), 1u);
    EXPECT_EQ(runner.quarantineRecords()[0].faultKey,
              faultKey(midRunFault(g, sick_entry)));
}

TEST(Quarantine, PolicyFailAbortsTheCampaign)
{
    auto prog = loopProgram();
    RunnerOptions opts;
    opts.quarantine = QuarantinePolicy::Fail;
    opts.checkpointInterval = 0;
    opts.injectHook = [](const Fault &, Cycle) {
        throw std::runtime_error("boom");
    };
    InjectionRunner runner(prog, uarch::CoreConfig{}, opts);
    auto g = runner.golden();
    EXPECT_THROW(runner.inject(midRunFault(g), g), FatalError);
}

} // namespace
} // namespace merlin::faultsim
