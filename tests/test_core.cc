/**
 * @file
 * Tests for the out-of-order core: architectural correctness against the
 * functional interpreter (differential + randomized), timing sanity,
 * squash recovery, traps, watchdogs, and fault hooks.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>

#include "base/logging.hh"
#include "io/json.hh"
#include "isa/interp.hh"
#include "masm/asm.hh"
#include "uarch/core.hh"
#include "workloads/random_program.hh"
#include "workloads/workloads.hh"

namespace merlin::uarch
{
namespace
{

isa::Program
prog(const std::string &src)
{
    return masm::assemble(src, "t");
}

isa::ArchResult
runCore(const std::string &src, CoreConfig cfg = CoreConfig{})
{
    Core core(prog(src), cfg);
    return core.run();
}

void
expectMatchesInterp(const std::string &src, CoreConfig cfg = CoreConfig{})
{
    auto p = prog(src);
    auto ref = isa::interpret(p);
    Core core(p, cfg);
    auto got = core.run();
    EXPECT_EQ(static_cast<int>(got.reason), static_cast<int>(ref.reason));
    EXPECT_EQ(got.exitCode, ref.exitCode);
    EXPECT_EQ(got.output, ref.output);
    ASSERT_EQ(got.traps.size(), ref.traps.size());
    for (std::size_t i = 0; i < ref.traps.size(); ++i) {
        EXPECT_EQ(static_cast<int>(got.traps[i].kind),
                  static_cast<int>(ref.traps[i].kind));
        EXPECT_EQ(got.traps[i].rip, ref.traps[i].rip);
    }
    EXPECT_EQ(got.instret, ref.instret);
}

TEST(Core, HaltsWithExitCode)
{
    auto r = runCore("halt 42\n");
    EXPECT_EQ(r.reason, isa::TerminateReason::Halted);
    EXPECT_EQ(r.exitCode, 42);
}

TEST(Core, SimpleAluMatchesInterp)
{
    expectMatchesInterp("movi a0, 6\n"
                        "movi a1, 7\n"
                        "mul a2, a0, a1\n"
                        "addi a2, a2, -2\n"
                        "out.d a2\n"
                        "halt 0\n");
}

TEST(Core, DependentChainMatchesInterp)
{
    expectMatchesInterp("movi a0, 1\n"
                        "add a0, a0, a0\n"
                        "add a0, a0, a0\n"
                        "add a0, a0, a0\n"
                        "mul a0, a0, a0\n"
                        "out.d a0\n"
                        "halt 0\n");
}

TEST(Core, LoopMatchesInterp)
{
    expectMatchesInterp("movi a0, 0\n"
                        "movi a1, 1\n"
                        "movi a2, 101\n"
                        "loop:\n"
                        "add a0, a0, a1\n"
                        "addi a1, a1, 1\n"
                        "bne a1, a2, loop\n"
                        "out.d a0\n"
                        "halt 0\n");
}

TEST(Core, MemoryAndForwarding)
{
    // Store immediately followed by a load: exercises SQ forwarding.
    expectMatchesInterp(".data\nbuf: .space 64\n.text\n"
                        "la a0, buf\n"
                        "movi a1, 0xbeef\n"
                        "st.d a1, [a0+8]\n"
                        "ld.d a2, [a0+8]\n"
                        "out.d a2\n"
                        "st.w a1, [a0+16]\n"
                        "ld.bu a3, [a0+16]\n"
                        "out.d a3\n"
                        "halt 0\n");
}

TEST(Core, PartialOverlapStoreLoad)
{
    // A narrow store inside a wide load range forces a drain-then-load.
    expectMatchesInterp(".data\nbuf: .quad 0\n.text\n"
                        "la a0, buf\n"
                        "movi a1, -1\n"
                        "st.b a1, [a0+3]\n"
                        "ld.d a2, [a0]\n"
                        "out.d a2\n"
                        "halt 0\n");
}

TEST(Core, CompositesMatchInterp)
{
    expectMatchesInterp(".data\nv: .quad 40\nw: .quad 5\n.text\n"
                        "la a0, v\n"
                        "movi a1, 2\n"
                        "ldadd a1, [a0]\n"
                        "out.d a1\n"
                        "movi a2, 10\n"
                        "memadd a2, [a0]\n"
                        "ld.d a3, [a0]\n"
                        "out.d a3\n"
                        "push a3\n"
                        "pop a4\n"
                        "out.d a4\n"
                        "halt 0\n");
}

TEST(Core, CallRetAndIndirect)
{
    expectMatchesInterp("  movi a0, 5\n"
                        "  call f\n"
                        "  la t0, g\n"
                        "  callr t0\n"
                        "  out.d a0\n"
                        "  halt 0\n"
                        "f:\n"
                        "  push ra\n"
                        "  call g\n"
                        "  pop ra\n"
                        "  ret\n"
                        "g:\n"
                        "  addi a0, a0, 7\n"
                        "  ret\n");
}

TEST(Core, DataDependentBranchesMatchInterp)
{
    // Alternating hard-to-predict branches: exercises squash recovery.
    expectMatchesInterp(".data\ntab: .quad 3, 1, 4, 1, 5, 9, 2, 6\n.text\n"
                        "  la s0, tab\n"
                        "  movi s1, 0\n"   // index
                        "  movi s2, 8\n"   // count
                        "  movi s3, 0\n"   // accum
                        "  movi t0, 0\n"
                        "loop:\n"
                        "  shli t1, s1, 3\n"
                        "  add t1, t1, s0\n"
                        "  ld.d t2, [t1]\n"
                        "  andi t3, t2, 1\n"
                        "  beq t3, t0, even\n"
                        "  add s3, s3, t2\n"
                        "  jmp next\n"
                        "even:\n"
                        "  sub s3, s3, t2\n"
                        "next:\n"
                        "  addi s1, s1, 1\n"
                        "  bne s1, s2, loop\n"
                        "  out.d s3\n"
                        "  halt 0\n");
}

TEST(Core, DivZeroTrapMatchesInterp)
{
    expectMatchesInterp("movi a0, 5\n"
                        "movi a1, 0\n"
                        "div a2, a0, a1\n"
                        "halt 0\n");
}

TEST(Core, SegfaultMatchesInterp)
{
    expectMatchesInterp("movi a0, 64\n"
                        "ld.d a1, [a0]\n"
                        "halt 0\n");
}

TEST(Core, MisalignedMatchesInterp)
{
    expectMatchesInterp(".data\nb: .space 16\n.text\n"
                        "la a0, b\n"
                        "ld.w a1, [a0+2]\n"
                        "halt 0\n");
}

TEST(Core, TrapnzMatchesInterp)
{
    expectMatchesInterp("movi a0, 3\ntrapnz a0\nhalt 0\n");
}

TEST(Core, JumpToDataMatchesInterp)
{
    expectMatchesInterp(".data\nb: .quad 0\n.text\n"
                        "la a0, b\n"
                        "jr a0\n"
                        "halt 0\n");
}

TEST(Core, WrongPathFaultDoesNotCrash)
{
    // The load behind the (taken) branch is fetched on the wrong path and
    // would segfault if its fault were not squashed.
    expectMatchesInterp("  movi a0, 1\n"
                        "  movi a1, 1\n"
                        "  movi a2, 16\n"
                        "  beq a0, a1, safe\n"
                        "  ld.d a3, [a2]\n" // wild access, wrong path
                        "safe:\n"
                        "  out.d a0\n"
                        "  halt 0\n");
}

TEST(Core, TightStoreLoadLoopMatchesInterp)
{
    expectMatchesInterp(".data\nbuf: .space 256\n.text\n"
                        "  la s0, buf\n"
                        "  movi s1, 0\n"
                        "  movi s2, 32\n"
                        "fill:\n"
                        "  shli t0, s1, 3\n"
                        "  add t0, t0, s0\n"
                        "  mul t1, s1, s1\n"
                        "  st.d t1, [t0]\n"
                        "  addi s1, s1, 1\n"
                        "  bne s1, s2, fill\n"
                        "  movi s1, 0\n"
                        "  movi s3, 0\n"
                        "sum:\n"
                        "  shli t0, s1, 3\n"
                        "  add t0, t0, s0\n"
                        "  ldadd s3, [t0]\n"
                        "  addi s1, s1, 1\n"
                        "  bne s1, s2, sum\n"
                        "  out.d s3\n"
                        "  halt 0\n");
}

TEST(Core, Timing_IpcIsPositiveAndBounded)
{
    auto p = prog("movi a0, 0\n"
                  "movi a1, 1\n"
                  "movi a2, 1001\n"
                  "loop:\n"
                  "add a0, a0, a1\n"
                  "addi a1, a1, 1\n"
                  "bne a1, a2, loop\n"
                  "halt 0\n");
    Core core(p, CoreConfig{});
    core.run();
    const auto &st = core.stats();
    EXPECT_GT(st.cycles, 0u);
    EXPECT_GT(st.ipc(), 0.1);
    EXPECT_LE(st.ipc(), 4.0); // cannot exceed commit width
}

TEST(Core, Timing_MispredictsDetected)
{
    // Branch on pseudo-random bit: plenty of mispredictions expected.
    auto p = prog("  movi s0, 12345\n"
                  "  movi s1, 0\n"
                  "  movi s2, 500\n"
                  "  movi t0, 0\n"
                  "loop:\n"
                  "  mul s0, s0, s0\n"
                  "  shri t1, s0, 13\n"
                  "  xor s0, s0, t1\n"
                  "  addi s0, s0, 7\n"
                  "  andi t1, s0, 1\n"
                  "  beq t1, t0, skip\n"
                  "  addi s1, s1, 1\n"
                  "skip:\n"
                  "  addi s2, s2, -1\n"
                  "  bne s2, t0, loop\n"
                  "  halt 0\n");
    Core core(p, CoreConfig{});
    core.run();
    EXPECT_GT(core.stats().branchMispredicts, 20u);
}

TEST(Core, Timing_CacheMissesCostCycles)
{
    // Stride through 256KB: misses in a 64KB L1D.
    const char *src = ".data\nbig: .space 262144\n.text\n"
                      "  la s0, big\n"
                      "  movi s1, 0\n"
                      "  movi s2, 4096\n"
                      "  movi t0, 0\n"
                      "loop:\n"
                      "  shli t1, s1, 6\n"
                      "  add t1, t1, s0\n"
                      "  ld.d t2, [t1]\n"
                      "  add s3, s3, t2\n"
                      "  addi s1, s1, 1\n"
                      "  bne s1, s2, loop\n"
                      "  halt 0\n";
    Core big(prog(src), CoreConfig{});
    big.run();
    EXPECT_GT(big.stats().l1dMisses, 3000u);
}

TEST(Core, DeadlockWatchdogFires)
{
    // A load that can never complete does not exist by construction, so
    // emulate no-progress with an infinite dependency-free loop plus a
    // tiny cycle budget instead: the cycle-limit watchdog must fire.
    CoreConfig cfg;
    cfg.maxCycles = 5'000;
    auto r = runCore("spin: jmp spin\n", cfg);
    EXPECT_EQ(r.reason, isa::TerminateReason::CycleLimit);
}

TEST(Core, SmallestConfigStillCorrect)
{
    CoreConfig cfg;
    cfg = cfg.withRegisterFile(64).withStoreQueue(16).withL1dKb(16);
    expectMatchesInterp(".data\nbuf: .space 128\n.text\n"
                        "  la s0, buf\n"
                        "  movi s1, 0\n"
                        "  movi s2, 16\n"
                        "loop:\n"
                        "  shli t0, s1, 3\n"
                        "  add t0, t0, s0\n"
                        "  st.d s1, [t0]\n"
                        "  ld.d t1, [t0]\n"
                        "  add s3, s3, t1\n"
                        "  addi s1, s1, 1\n"
                        "  bne s1, s2, loop\n"
                        "  out.d s3\n"
                        "  halt 0\n",
                        cfg);
}

TEST(Core, ArchRegAndMemoryViews)
{
    auto p = prog(".data\nv: .quad 0\n.text\n"
                  "movi s5, 777\n"
                  "la a0, v\n"
                  "movi a1, 123\n"
                  "st.d a1, [a0]\n"
                  "halt 0\n");
    Core core(p, CoreConfig{});
    core.run();
    EXPECT_EQ(core.archRegValue(21), 777u); // s5 = r21
    auto view = core.archMemoryView();
    std::uint64_t v = 0;
    EXPECT_EQ(view.read(p.symbol("v"), 8, v), isa::TrapKind::None);
    EXPECT_EQ(v, 123u);
}

TEST(Core, WindowEndTerminatesRun)
{
    CoreConfig cfg;
    cfg.instructionWindowEnd = 50;
    auto r = runCore("spin: addi a0, a0, 1\njmp spin\n", cfg);
    EXPECT_EQ(r.reason, isa::TerminateReason::WindowEnd);
    EXPECT_EQ(r.instret, 50u);
}

TEST(CoreFaults, RegisterFlipFlipsBack)
{
    auto p = prog("halt 0\n");
    Core core(p, CoreConfig{});
    core.flipBit(Structure::RegisterFile, 40, 5);
    core.flipBit(Structure::RegisterFile, 40, 5);
    auto r = core.run();
    EXPECT_EQ(r.reason, isa::TerminateReason::Halted);
}

TEST(CoreFaults, FlipInDeadRegisterIsMasked)
{
    auto src = "movi a0, 1\nout.d a0\nhalt 0\n";
    auto p = prog(src);
    auto golden = isa::interpret(p);

    Core core(p, CoreConfig{});
    // Flip a bit in a free physical register nothing will ever read.
    core.flipBit(Structure::RegisterFile, 200, 13);
    auto r = core.run();
    EXPECT_TRUE(r.sameArchOutcome(golden));
}

TEST(CoreFaults, FlipInLiveRegisterCorruptsOutput)
{
    // a0 holds 16 across a bounded loop and is printed at the end.  Once
    // the loop is mid-flight, flip bit 3 of every physical register: the
    // live copy of a0 is among them, so the output must change.  The
    // loop exits on >= so a corrupted counter still terminates.
    auto src = "movi a0, 16\n"
               "movi a1, 1\n"
               "loop: addi a1, a1, 1\n"
               "blt a1, a0, loop\n"
               "out.d a0\n"
               "halt 0\n";
    auto p = prog(src);
    auto golden = isa::interpret(p);

    CoreConfig cfg;
    cfg.maxCycles = 1'000'000;
    Core core(p, cfg);
    // Advance until the MOVIs have architecturally committed (the cold
    // I-cache miss alone costs ~90 cycles).
    while (!core.finished() && core.result().instret < 2 &&
           core.archRegValue(0) != 16) {
        core.tick();
    }
    ASSERT_FALSE(core.finished());
    for (unsigned reg = 0; reg < cfg.numPhysIntRegs; ++reg)
        core.flipBit(Structure::RegisterFile, reg, 3);
    auto r = core.run();
    EXPECT_FALSE(r.sameArchOutcome(golden));
}

TEST(CoreDiff, RandomProgramsMatchInterp)
{
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        workloads::RandomProgramOptions opts;
        auto src = workloads::generateRandomProgram(seed, opts);
        auto p = masm::assemble(src, "rand" + std::to_string(seed));
        auto ref = isa::interpret(p);
        ASSERT_EQ(ref.reason, isa::TerminateReason::Halted)
            << "seed " << seed << " generator produced a trapping program";
        Core core(p, CoreConfig{});
        auto got = core.run();
        EXPECT_TRUE(got.sameArchOutcome(ref)) << "seed " << seed;
    }
}

TEST(CoreDiff, RandomProgramsSmallConfig)
{
    CoreConfig cfg;
    cfg = cfg.withRegisterFile(48).withStoreQueue(16).withL1dKb(16);
    for (std::uint64_t seed = 100; seed < 106; ++seed) {
        auto src = workloads::generateRandomProgram(seed);
        auto p = masm::assemble(src, "rand");
        auto ref = isa::interpret(p);
        Core core(p, cfg);
        auto got = core.run();
        EXPECT_TRUE(got.sameArchOutcome(ref)) << "seed " << seed;
    }
}

TEST(CoreDiff, DeterministicAcrossRuns)
{
    auto src = workloads::generateRandomProgram(77);
    auto p = masm::assemble(src, "rand");
    Core c1(p, CoreConfig{});
    Core c2(p, CoreConfig{});
    auto r1 = c1.run();
    auto r2 = c2.run();
    EXPECT_TRUE(r1.sameArchOutcome(r2));
    EXPECT_EQ(c1.stats().cycles, c2.stats().cycles);
    EXPECT_EQ(c1.stats().branchMispredicts, c2.stats().branchMispredicts);
}

// ------------------------------------------------- snapshot / restore

void
expectSameFinalState(const Core &a, const Core &b)
{
    EXPECT_EQ(static_cast<int>(a.result().reason),
              static_cast<int>(b.result().reason));
    EXPECT_EQ(a.result().exitCode, b.result().exitCode);
    EXPECT_EQ(a.result().output, b.result().output);
    EXPECT_EQ(a.result().instret, b.result().instret);
    EXPECT_EQ(a.stats().cycles, b.stats().cycles);
    EXPECT_EQ(a.stats().instret, b.stats().instret);
    EXPECT_EQ(a.stats().uopsRetired, b.stats().uopsRetired);
    EXPECT_EQ(a.stats().branchMispredicts, b.stats().branchMispredicts);
    EXPECT_EQ(a.stats().condBranches, b.stats().condBranches);
    EXPECT_EQ(a.stats().squashes, b.stats().squashes);
    EXPECT_EQ(a.stats().loadsExecuted, b.stats().loadsExecuted);
    EXPECT_EQ(a.stats().storeForwards, b.stats().storeForwards);
    EXPECT_EQ(a.stats().l1dHits, b.stats().l1dHits);
    EXPECT_EQ(a.stats().l1dMisses, b.stats().l1dMisses);
    for (unsigned r = 0; r < isa::NUM_RENAMEABLE_REGS; ++r)
        EXPECT_EQ(a.archRegValue(r), b.archRegValue(r));
    EXPECT_TRUE(a.archMemoryView().contentEquals(b.archMemoryView()));
}

TEST(CoreSnapshot, RestoredRunMatchesUninterrupted)
{
    auto src = workloads::generateRandomProgram(42);
    auto p = masm::assemble(src, "rand");
    CoreConfig cfg;

    Core reference(p, cfg);
    reference.run();
    ASSERT_GT(reference.stats().cycles, 100u);

    // Snapshot mid-run at several points; each restored core must end in
    // exactly the reference's final state.
    for (double frac : {0.1, 0.5, 0.9}) {
        const Cycle at = static_cast<Cycle>(
            static_cast<double>(reference.stats().cycles) * frac);
        Core running(p, cfg);
        while (running.cycle() < at && running.tick()) {
        }
        ASSERT_FALSE(running.finished());
        Core::Snapshot snap = running.snapshot();
        EXPECT_EQ(snap.cycle(), running.cycle());
        ASSERT_TRUE(snap.valid());

        Core restored(p, cfg, snap);
        EXPECT_EQ(restored.cycle(), at);
        restored.run();
        expectSameFinalState(restored, reference);

        // The donor core is unaffected by the snapshot and also
        // finishes identically.
        running.run();
        expectSameFinalState(running, reference);
    }
}

TEST(CoreSnapshot, RestoreIsRepeatable)
{
    auto src = workloads::generateRandomProgram(91);
    auto p = masm::assemble(src, "rand");
    CoreConfig cfg;
    Core running(p, cfg);
    while (running.cycle() < 200 && running.tick()) {
    }
    ASSERT_FALSE(running.finished());
    Core::Snapshot snap = running.snapshot();

    // One immutable snapshot feeds many restored cores.
    Core a(p, cfg, snap);
    Core b(p, cfg, snap);
    a.run();
    b.run();
    expectSameFinalState(a, b);
}

TEST(CoreSnapshot, CowRestoreCopiesFarFewerBytesThanDeep)
{
    // The acceptance criterion of the COW substrate, asserted on the
    // SnapshotStats byte counters rather than wall clock: a COW
    // capture/restore duplicates only the non-COW core state, while
    // the seed-equivalent deep mode duplicates memory and all cache
    // data arrays on top of it.
    auto src = workloads::generateRandomProgram(7);
    auto p = masm::assemble(src, "rand");
    CoreConfig cfg;
    Core running(p, cfg);
    while (running.cycle() < 400 && running.tick()) {
    }
    ASSERT_FALSE(running.finished());

    SnapshotStats cap;
    Core::Snapshot snap = running.snapshot(&cap);
    EXPECT_GT(cap.bytesShared, 0u);
    // Memory (2MB heap alone) + cache arrays dwarf the deep remainder.
    EXPECT_GT(cap.bytesShared, cap.bytesCopied);

    SnapshotStats cow, deep;
    Core a(p, cfg, snap, &cow);
    Core b(p, cfg, snap, &deep, /*deep=*/true);
    EXPECT_EQ(deep.bytesShared, 0u);
    EXPECT_EQ(cow.total(), deep.total());
    // "Measurably fewer": at least 4x less actually copied.
    EXPECT_LT(cow.bytesCopied, deep.bytesCopied / 4);

    // Both restore flavours still produce the same run.
    a.run();
    b.run();
    expectSameFinalState(a, b);
}

TEST(CoreSnapshot, RunsAfterRestoreNeverLeakIntoTheSnapshot)
{
    // Strict aliasing order: restore + run to completion (mutating
    // every shared structure), THEN restore again from the same
    // snapshot — the second core must see pristine snapshot state.
    auto src = workloads::generateRandomProgram(55);
    auto p = masm::assemble(src, "rand");
    CoreConfig cfg;
    Core running(p, cfg);
    while (running.cycle() < 250 && running.tick()) {
    }
    ASSERT_FALSE(running.finished());
    Core::Snapshot snap = running.snapshot();

    Core first(p, cfg, snap);
    first.run();
    Core second(p, cfg, snap);
    EXPECT_EQ(second.cycle(), snap.cycle());
    EXPECT_TRUE(second.stateEquals(snap));
    second.run();
    expectSameFinalState(first, second);
}

/** A default-machine qsort core snapshotted @p cycles into its run. */
Core::Snapshot
qsortSnapshot(const isa::Program &p, Cycle cycles)
{
    Core running(p, CoreConfig{});
    while (running.cycle() < cycles && running.tick()) {
    }
    EXPECT_FALSE(running.finished());
    return running.snapshot();
}

TEST(CoreSnapshot, RestoreOnTheDefaultMachineCopiesUnder64KiB)
{
    // Memory, cache data and tag arrays, and the BTB are all shared
    // copy-on-write; a restore copies only the window, the direction
    // predictor and the chunk-pointer tables.
    const auto w = workloads::buildWorkload("qsort");
    const Core::Snapshot snap = qsortSnapshot(w.program, 3000);
    SnapshotStats st;
    Core restored(w.program, CoreConfig{}, snap, &st);
    EXPECT_LT(st.bytesCopied, 64u * 1024);
    EXPECT_GT(st.bytesShared, 1024u * 1024);
    // Two restores share every tag-table and BTB chunk.
    Core other(w.program, CoreConfig{}, snap);
    for (const auto &[a, b] :
         {std::pair{&restored.l1i(), &other.l1i()},
          std::pair{&restored.l1d(), &other.l1d()},
          std::pair{&restored.l2(), &other.l2()}}) {
        EXPECT_GT(a->sharedTagChunksWith(*b), 0u);
        EXPECT_EQ(a->sharedTagChunksWith(*b), a->sharedTagChunksWith(*a));
    }
    EXPECT_EQ(restored.btb().sharedChunksWith(other.btb()),
              restored.btb().sharedChunksWith(restored.btb()));
}

TEST(CoreSnapshot, RunAfterRestoreNeverLeaksIntoSnapshotTagsOrBtb)
{
    // qsort recurses, so its committed returns retrain the BTB, and it
    // walks enough data to refill L1D and L2 sets.
    const auto w = workloads::buildWorkload("qsort");
    const CoreConfig cfg;
    const Core::Snapshot snap = qsortSnapshot(w.program, 500);
    // A deep restore owns private copies of everything: the reference.
    Core reference(w.program, cfg, snap, nullptr, /*deep=*/true);

    Core first(w.program, cfg, snap);
    first.run();
    ASSERT_FALSE(first.l1d().stateEquals(reference.l1d()));
    ASSERT_FALSE(first.l2().stateEquals(reference.l2()));
    ASSERT_FALSE(first.btb().stateEquals(reference.btb()));

    // The run wrote only private chunks: a second restore still sees
    // the snapshot's tags, LRU stamps and BTB entries.
    Core second(w.program, cfg, snap);
    EXPECT_TRUE(second.l1i().stateEquals(reference.l1i()));
    EXPECT_TRUE(second.l1d().stateEquals(reference.l1d()));
    EXPECT_TRUE(second.l2().stateEquals(reference.l2()));
    EXPECT_TRUE(second.btb().stateEquals(reference.btb()));
    // ...and the first run detached only the BTB chunks it retrained.
    EXPECT_GT(first.btb().sharedChunksWith(second.btb()), 0u);
    EXPECT_LT(first.btb().sharedChunksWith(second.btb()),
              second.btb().sharedChunksWith(second.btb()));
}

TEST(CoreSnapshot, StateEqualsDetectsDivergenceAndReconvergence)
{
    auto p = prog("movi a0, 1\nout.d a0\nhalt 0\n");
    CoreConfig cfg;
    Core running(p, cfg);
    while (running.cycle() < 20 && running.tick()) {
    }
    ASSERT_FALSE(running.finished());
    Core::Snapshot snap = running.snapshot();

    Core restored(p, cfg, snap);
    EXPECT_TRUE(restored.stateEquals(snap));
    // Flip a bit nothing uses: state now differs...
    restored.flipBit(Structure::RegisterFile, cfg.numPhysIntRegs - 1, 3);
    EXPECT_FALSE(restored.stateEquals(snap));
    // ...and flipping it back reconverges exactly.
    restored.flipBit(Structure::RegisterFile, cfg.numPhysIntRegs - 1, 3);
    EXPECT_TRUE(restored.stateEquals(snap));
}

/** diff() names exactly the corrupted payload words, applyDelta() puts
 *  them back onto a fresh restore, and a timing difference is no
 *  delta at all. */
TEST(CoreSnapshot, DiffCollectsPayloadWordsAndApplyDeltaReplaysThem)
{
    auto w = workloads::buildWorkload("qsort");
    CoreConfig cfg;
    Core running(w.program, cfg);
    while (running.cycle() < 3000 && running.tick()) {
    }
    ASSERT_FALSE(running.finished());
    Core::Snapshot snap = running.snapshot();

    Core faulty(w.program, cfg, snap);
    faulty.flipBit(Structure::RegisterFile, 7, 63);
    faulty.flipBit(Structure::StoreQueue, 2, 0);
    faulty.flipBit(Structure::L1DCache, 100, 9);
    faulty.flipBit(Structure::L1DCache, 100, 10);
    StateDelta d;
    ASSERT_TRUE(faulty.diff(snap, d));
    const std::vector<StateDelta::Word> want = {
        {Structure::RegisterFile, 7, 1ULL << 63},
        {Structure::StoreQueue, 2, 1},
        {Structure::L1DCache, 100, 3ULL << 9},
    };
    EXPECT_EQ(d.words, want);
    EXPECT_TRUE(d.output.empty());

    EXPECT_FALSE(faulty.stateEquals(snap));
    Core replayed(w.program, cfg, snap);
    replayed.applyDelta(d);
    EXPECT_TRUE(replayed.stateEquals(faulty.snapshot()));

    // One more cycle is a timing difference, not a payload delta.
    ASSERT_TRUE(faulty.tick());
    EXPECT_FALSE(faulty.diff(snap, d));
}

TEST(CoreSnapshot, RestoringAnEmptySnapshotTrips)
{
    auto p = prog("movi a0, 1\nhalt 0\n");
    Core::Snapshot empty;
    EXPECT_FALSE(empty.valid());
    EXPECT_THROW((Core(p, CoreConfig{}, empty)), SimAssertError);
}

TEST(CoreSnapshot, RestoreAllowsTighterWatchdog)
{
    auto p = prog("  movi s0, 0\n"
                  "  movi s1, 300\n"
                  "spin:\n"
                  "  addi s0, s0, 1\n"
                  "  blt s0, s1, spin\n"
                  "  out.d s0\n"
                  "  halt 0\n");
    CoreConfig cfg;
    Core running(p, cfg);
    while (running.cycle() < 50 && running.tick()) {
    }
    Core::Snapshot snap = running.snapshot();

    // The injector's 3x-golden cycle budget must bite in restored runs.
    CoreConfig tight = cfg;
    tight.maxCycles = 60;
    Core restored(p, tight, snap);
    auto r = restored.run();
    EXPECT_EQ(r.reason, isa::TerminateReason::CycleLimit);
}

// ------------------------------------------------- pinned statistics

std::string
hex64(std::uint64_t v)
{
    static const char digits[] = "0123456789abcdef";
    std::string s(16, '0');
    for (int i = 15; i >= 0; --i, v >>= 4)
        s[static_cast<std::size_t>(i)] = digits[v & 0xf];
    return s;
}

/** FNV-1a 64 of a byte stream. */
std::uint64_t
fnv1a(const std::vector<std::uint8_t> &bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (std::uint8_t b : bytes) {
        h ^= b;
        h *= 0x100000001b3ULL;
    }
    return h;
}

io::Json
cacheRecord(const Cache &c)
{
    io::Json j = io::Json::object();
    j.set("hits", c.hits());
    j.set("misses", c.misses());
    j.set("writebacks", c.writebacks());
    return j;
}

/** Every simulated statistic of @p core, which has finished. */
io::Json
coreRecord(const Core &core)
{
    const isa::ArchResult &r = core.result();
    const CoreStats &s = core.stats();
    io::Json j = io::Json::object();
    j.set("reason", static_cast<unsigned>(r.reason));
    j.set("exit_code", r.exitCode);
    j.set("instret", r.instret);
    j.set("output_bytes", static_cast<std::uint64_t>(r.output.size()));
    j.set("output_fnv", hex64(fnv1a(r.output)));
    j.set("cycles", s.cycles);
    j.set("stats_instret", s.instret);
    j.set("uops_retired", s.uopsRetired);
    j.set("branch_mispredicts", s.branchMispredicts);
    j.set("cond_branches", s.condBranches);
    j.set("squashes", s.squashes);
    j.set("loads_executed", s.loadsExecuted);
    j.set("store_forwards", s.storeForwards);
    j.set("l1d_hits", s.l1dHits);
    j.set("l1d_misses", s.l1dMisses);
    j.set("l1i", cacheRecord(core.l1i()));
    j.set("l1d", cacheRecord(core.l1d()));
    j.set("l2", cacheRecord(core.l2()));
    return j;
}

/** Every simulated statistic of one finished run. */
io::Json
runRecord(const isa::Program &p, const CoreConfig &cfg)
{
    Core core(p, cfg);
    core.run();
    return coreRecord(core);
}

/**
 * Pins every simulated statistic of every bundled workload across the
 * evaluated machine variants, so a change to the core's host-side
 * implementation provably moves no simulated event.  Grid: all
 * workloads on the default core, on a 48 KB L1D (192 sets — the
 * non-power-of-two set path) and on the smallest test config; the
 * SPEC programs also on the Section 4.4.2.3 core over their window.
 * Regenerate only for a deliberate timing-model change, by copying
 * the *_actual.json file the failure message names into tests/golden/.
 */
TEST(CoreGolden, StatisticsMatchCommittedGolden)
{
    struct Variant
    {
        const char *name;
        CoreConfig cfg;
        bool specOnly;
    };
    CoreConfig spec = CoreConfig{}.withRegisterFile(128).withStoreQueue(16)
                          .withL1dKb(32);
    const Variant variants[] = {
        {"default", CoreConfig{}, false},
        {"spec", spec, true},
        {"l1d48", CoreConfig{}.withL1dKb(48), false},
        {"small",
         CoreConfig{}.withRegisterFile(64).withStoreQueue(16).withL1dKb(16),
         false},
    };
    const auto &specNames = workloads::specWorkloads();

    io::Json actual = io::Json::object();
    for (const std::string &name : workloads::allWorkloadNames()) {
        const auto w = workloads::buildWorkload(name);
        const bool is_spec = std::find(specNames.begin(), specNames.end(),
                                       name) != specNames.end();
        for (const Variant &v : variants) {
            if (v.specOnly && !is_spec)
                continue;
            CoreConfig cfg = v.cfg;
            if (v.specOnly)
                cfg.instructionWindowEnd = w.suggestedWindow;
            actual.set(name + "/" + v.name, runRecord(w.program, cfg));
        }
    }

    const std::string goldenPath = std::string(MERLIN_SOURCE_DIR) +
                                   "/tests/golden/core_stats.json";
    const std::string actualPath =
        testing::TempDir() + "core_stats_actual.json";
    std::ofstream(actualPath, std::ios::trunc) << actual.dump(2) << "\n";

    std::ifstream in(goldenPath);
    ASSERT_TRUE(in.good()) << "missing golden file " << goldenPath
                           << "; seed it from " << actualPath;
    std::stringstream text;
    text << in.rdbuf();
    const io::Json golden = io::Json::parse(text.str());
    ASSERT_EQ(golden.size(), actual.size()) << "grid changed";
    for (const auto &[key, got] : actual.members()) {
        const io::Json *want = golden.find(key);
        ASSERT_NE(want, nullptr) << key << " missing from " << goldenPath;
        EXPECT_EQ(want->dump(), got.dump()) << key;
    }
}

/**
 * Guards whatever host-side state the core keeps across cycles (the
 * L1I line memo, the issue queue's ready and waiter masks, the control
 * side array, the sorted completion queue) through snapshot and
 * restore.  For every bundled workload on the default machine (SPEC
 * programs over their window), cores restored from three golden
 * snapshots must diff empty against every later golden snapshot and
 * finish with the uninterrupted run's record: every statistic, the
 * cache counters and the output FNV.
 */
TEST(CoreSnapshot, EveryWorkloadRestoresOntoTheGoldenRun)
{
    constexpr unsigned kSnapshots = 6;
    for (const std::string &name : workloads::allWorkloadNames()) {
        const auto w = workloads::buildWorkload(name);
        CoreConfig cfg;
        cfg.instructionWindowEnd = w.suggestedWindow;

        Core golden(w.program, cfg);
        golden.run();
        const Cycle cycles = golden.stats().cycles;
        const io::Json want = coreRecord(golden);

        Core running(w.program, cfg);
        std::vector<Core::Snapshot> snaps;
        for (unsigned k = 1; k <= kSnapshots; ++k) {
            const Cycle at = cycles * k / (kSnapshots + 1);
            while (running.cycle() < at && running.tick()) {
            }
            ASSERT_FALSE(running.finished()) << name;
            snaps.push_back(running.snapshot());
        }

        for (std::size_t from : {0u, 2u, 4u}) {
            Core restored(w.program, cfg, snaps[from]);
            for (std::size_t later = from + 1; later < snaps.size();
                 ++later) {
                while (restored.cycle() < snaps[later].cycle() &&
                       restored.tick()) {
                }
                EXPECT_TRUE(restored.stateEquals(snaps[later]))
                    << name << ": restored at cycle "
                    << snaps[from].cycle() << ", diff at cycle "
                    << snaps[later].cycle();
            }
            restored.run();
            EXPECT_EQ(coreRecord(restored).dump(), want.dump())
                << name << ": restored at cycle " << snaps[from].cycle();
        }
    }
}

} // namespace
} // namespace merlin::uarch
