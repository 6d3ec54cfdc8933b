/**
 * @file
 * Effect-trace tests: packing/query semantics and exact-cycle
 * divergence detection against two independent observers (the
 * recorder's committed-read ACE view on a branch-free program, and the
 * per-cycle injectHook seam).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "base/logging.hh"
#include "faultsim/runner.hh"
#include "masm/asm.hh"
#include "replay/trace.hh"

namespace merlin::replay
{
namespace
{

using faultsim::Fault;
using faultsim::InjectionRunner;
using faultsim::Outcome;
using faultsim::RunnerOptions;
using uarch::Structure;

TEST(EffectTrace, FirstTouchReturnsExactCycleAndKind)
{
    uarch::Probe rec(/*rf=*/4, /*sq=*/2, /*l1d=*/2, /*ace=*/false);
    rec.recordEffects();
    // Entry 1: full write at 10, full read at 20, byte-1 read at 30.
    rec.write(Structure::RegisterFile, 1, 10, uarch::phase::RegWrite,
              0xff);
    rec.physicalRead(Structure::RegisterFile, 1, 20, 0xff);
    rec.physicalRead(Structure::RegisterFile, 1, 30, 0x02);
    const EffectTrace t(rec.takeEffects());

    // Any bit, asked from the beginning: killed by the write at 10.
    for (unsigned bit : {0u, 17u, 63u}) {
        const FirstTouch ft =
            t.firstTouch(Structure::RegisterFile, 1, bit, 0);
        EXPECT_EQ(ft.kind, Touch::Killed);
        EXPECT_EQ(ft.cycle, 10u);
    }
    // A flip ON the event cycle is covered by that event (flips land at
    // the start of a cycle, before the stages run).
    EXPECT_EQ(t.firstTouch(Structure::RegisterFile, 1, 0, 10).kind,
              Touch::Killed);
    // Past the write: the full read at 20 diverges every byte.
    {
        const FirstTouch ft =
            t.firstTouch(Structure::RegisterFile, 1, 40, 11);
        EXPECT_EQ(ft.kind, Touch::Diverged);
        EXPECT_EQ(ft.cycle, 20u);
    }
    // Past the full read: only byte 1 (bits 8..15) is ever touched.
    EXPECT_EQ(t.firstTouch(Structure::RegisterFile, 1, 12, 21).kind,
              Touch::Diverged);
    EXPECT_EQ(t.firstTouch(Structure::RegisterFile, 1, 12, 21).cycle,
              30u);
    EXPECT_EQ(t.firstTouch(Structure::RegisterFile, 1, 16, 21).kind,
              Touch::None);
    // Untouched entry / other structures: never touched.
    EXPECT_EQ(t.firstTouch(Structure::RegisterFile, 0, 0, 0).kind,
              Touch::None);
    EXPECT_EQ(t.firstTouch(Structure::StoreQueue, 1, 0, 0).kind,
              Touch::None);
}

/**
 * Divergence detection fires on the EXACT cycle the flipped storage is
 * first consumed or overwritten.  On a branch-free program there is no
 * wrong path and no speculative read, so the recorder's two views of
 * the one golden run -- the ACE view's committed reads and physical
 * writes, and the physical effect trace -- must agree per entry: for
 * every register and every flip cycle, the trace's firstTouch answer
 * must equal the ACE-view-derived one, cycle for cycle.
 */
TEST(EffectTrace, DivergenceMatchesProbeOnBranchFreeProgram)
{
    auto prog = masm::assemble("  movi s0, 7\n"
                               "  movi s1, 3\n"
                               "  movi s2, 5\n"
                               "  add s3, s1, s2\n"
                               "  add s4, s3, s0\n"
                               "  out.d s4\n"
                               "  out.d s0\n"
                               "  halt 0\n",
                               "t");
    uarch::CoreConfig cfg;
    InjectionRunner runner(prog, cfg);
    uarch::Probe probe(cfg.numPhysIntRegs, cfg.sqEntries,
                       cfg.l1d.totalWords());
    auto g = runner.golden(&probe);
    ASSERT_NE(g.trace, nullptr);

    // The ACE view per register, without the cycle-0 initial state
    // (not a replayable effect).
    std::map<EntryIndex, std::vector<uarch::AceEvent>> rf;
    for (const uarch::AceEvent &ev :
         probe.events(Structure::RegisterFile)) {
        if (ev.phase != uarch::phase::Init)
            rf[ev.entry].push_back(ev);
    }

    unsigned checked = 0, diverged = 0;
    for (auto &[entry, evs] : rf) {
        // Committed reads are recorded at commit time; order by when
        // the bits were physically touched (cycle, then stage phase).
        std::sort(evs.begin(), evs.end(),
                  [](const uarch::AceEvent &a, const uarch::AceEvent &b) {
                      return a.cycle != b.cycle ? a.cycle < b.cycle
                                                : a.phase < b.phase;
                  });
        std::vector<Cycle> probes{0};
        for (const auto &ev : evs) {
            probes.push_back(ev.cycle);
            probes.push_back(ev.cycle + 1);
        }
        for (const Cycle from : probes) {
            auto it = std::find_if(
                evs.begin(), evs.end(),
                [from](const uarch::AceEvent &ev) {
                    return ev.cycle >= from;
                });
            const FirstTouch ft = g.trace->firstTouch(
                Structure::RegisterFile, entry, /*bit=*/17, from);
            if (it == evs.end()) {
                EXPECT_EQ(ft.kind, Touch::None)
                    << "entry " << entry << " from " << from;
            } else {
                EXPECT_EQ(ft.kind, it->isRead ? Touch::Diverged
                                              : Touch::Killed)
                    << "entry " << entry << " from " << from;
                EXPECT_EQ(ft.cycle, it->cycle)
                    << "entry " << entry << " from " << from;
                if (it->isRead)
                    ++diverged;
            }
            ++checked;
        }
    }
    // The sweep must actually have exercised both sides.
    EXPECT_GT(checked, 10u);
    EXPECT_GT(diverged, 0u);
}

/**
 * The injectHook seam observes every simulated post-flip cycle.  On
 * the plain engine (checkpoint interval 0) nothing is skipped, so the
 * hooked run visits the trace's divergence cycle exactly, and
 * classifies identically to the checkpointed run.
 */
TEST(EffectTrace, PlainHookedRunVisitsEveryPostFlipCycle)
{
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

    InjectionRunner fast(prog, cfg);
    auto g = fast.golden();
    ASSERT_NE(g.trace, nullptr);

    // A live mid-run flip that the trace resolves as a divergence.
    Fault f;
    f.structure = Structure::RegisterFile;
    f.entry = 36;
    f.bit = 7;
    f.cycle = g.stats.cycles / 2;
    const FirstTouch ft = g.trace->firstTouch(f.structure, f.entry,
                                              f.bit, f.cycle);
    ASSERT_EQ(ft.kind, Touch::Diverged);
    ASSERT_GE(ft.cycle, f.cycle);

    std::vector<Cycle> seen;
    RunnerOptions opts;
    opts.checkpointInterval = 0;
    opts.injectHook = [&seen](const Fault &, Cycle c) {
        seen.push_back(c);
    };
    InjectionRunner hooked(prog, cfg, opts);
    auto gh = hooked.golden();
    EXPECT_EQ(gh.trace, nullptr); // the plain engine records no trace

    const Outcome o = hooked.inject(f, gh);
    const faultsim::InjectionStats st = hooked.injectionStats();
    EXPECT_EQ(st.runs, 1u);
    EXPECT_EQ(st.replayHeadCycles, 0u); // never consulted
    EXPECT_EQ(o, fast.inject(f, g));

    // Every cycle from the flip onward was simulated — including the
    // exact divergence cycle the trace predicted.
    ASSERT_FALSE(seen.empty());
    EXPECT_EQ(seen.front(), f.cycle);
    for (std::size_t i = 1; i < seen.size(); ++i)
        EXPECT_EQ(seen[i], seen[i - 1] + 1);
    EXPECT_TRUE(std::find(seen.begin(), seen.end(), ft.cycle) !=
                seen.end());
}

} // namespace
} // namespace merlin::replay
