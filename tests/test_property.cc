/**
 * @file
 * Randomized property tests across the reliability stack:
 *  - the ACE-like interval builder against a brute-force reference model
 *    over synthetic event streams;
 *  - grouping partition/key invariants for every structure;
 *  - fault-flip involution on live cores;
 *  - sampling-statistics monotonicity.
 */

#include <gtest/gtest.h>

#include <map>

#include "base/rng.hh"
#include "base/statistics.hh"
#include "masm/asm.hh"
#include "merlin/grouping.hh"
#include "merlin/sampling.hh"
#include "profile/ace.hh"
#include "uarch/core.hh"
#include "workloads/workloads.hh"

namespace merlin
{
namespace
{

using profile::AceProfiler;
using uarch::Structure;

/** Synthetic event for the reference model. */
struct Ev
{
    Cycle cycle;
    std::uint8_t phase;
    bool isRead;
    Rip rip;
};

/**
 * Drive the profiler with a random event stream on a few entries and
 * check find() against a brute-force replay for every (entry, cycle).
 */
TEST(ProfilerProperty, MatchesBruteForceReference)
{
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        Rng rng(seed);
        const unsigned entries = 4;
        const Cycle horizon = 200;

        AceProfiler prof(entries, 1, 1);
        std::map<unsigned, std::vector<Ev>> events;

        for (unsigned e = 0; e < entries; ++e) {
            Cycle c = 0;
            while (true) {
                c += 1 + rng.nextBelow(20);
                if (c >= horizon)
                    break;
                Ev ev;
                ev.cycle = c;
                ev.phase = static_cast<std::uint8_t>(
                    1 + rng.nextBelow(9));
                ev.isRead = rng.nextBelow(2) == 0;
                ev.rip = 0x1000 + rng.nextBelow(8) * 8;
                events[e].push_back(ev);
                if (ev.isRead) {
                    prof.committedRead(Structure::RegisterFile, e,
                                       ev.cycle, ev.phase, ev.rip, 0, 0);
                } else {
                    prof.write(Structure::RegisterFile, e, ev.cycle,
                               ev.phase, 0xff);
                }
            }
        }
        prof.finalize();
        const auto &p = prof.profile(Structure::RegisterFile);

        for (unsigned e = 0; e < entries; ++e) {
            for (Cycle t = 0; t <= horizon; ++t) {
                // Reference: a flip at the start of cycle t is consumed
                // iff the next event at cycle >= t ... precisely: find
                // the first event with cycle >= t; writes at the same
                // cycle overwrite the flip only if they precede the
                // first read of that cycle in phase order — the event
                // list is already in (cycle, phase) order per entry.
                bool vulnerable = false;
                Rip rip = 0;
                for (const Ev &ev : events[e]) {
                    if (ev.cycle < t)
                        continue;
                    vulnerable = ev.isRead;
                    rip = ev.rip;
                    break;
                }
                const profile::VulnerableInterval *iv = p.find(e, t);
                if (t == 0) {
                    // Flips at cycle 0 coincide with the implicit
                    // initial write; the builder treats them as
                    // overwritten.
                    EXPECT_EQ(iv, nullptr);
                    continue;
                }
                ASSERT_EQ(iv != nullptr, vulnerable)
                    << "seed " << seed << " entry " << e << " cycle "
                    << t;
                if (iv) {
                    EXPECT_EQ(iv->rip, rip);
                }
            }
        }
    }
}

TEST(ProfilerProperty, EventsAtSameCycleRespectPhaseOrder)
{
    // write(phase 4) then read(phase 5) at the same cycle: the read is
    // after the write, so a flip at that cycle is overwritten first ->
    // empty interval, nothing vulnerable at that cycle.
    AceProfiler prof(1, 1, 1);
    prof.write(Structure::RegisterFile, 0, 10, uarch::phase::RegWrite,
               0xff);
    prof.committedRead(Structure::RegisterFile, 0, 10,
                       uarch::phase::RegRead, 0x1000, 0, 0);
    prof.committedRead(Structure::RegisterFile, 0, 20,
                       uarch::phase::RegRead, 0x2000, 0, 1);
    prof.finalize();
    const auto &p = prof.profile(Structure::RegisterFile);
    EXPECT_EQ(p.find(0, 10), nullptr);  // overwritten mid-cycle
    ASSERT_NE(p.find(0, 15), nullptr);  // write@10 .. read@20 interval
    EXPECT_EQ(p.find(0, 15)->rip, 0x2000u);

    // Reverse phase order (drain-read before issue-write): the read at
    // that cycle consumes the flip.
    AceProfiler prof2(1, 1, 1);
    prof2.write(Structure::StoreQueue, 0, 5, uarch::phase::SqWrite, 0xff);
    prof2.committedRead(Structure::StoreQueue, 0, 10,
                        uarch::phase::SqDrainRead, 0x3000, 0, 2);
    prof2.write(Structure::StoreQueue, 0, 10, uarch::phase::SqWrite, 0xff);
    prof2.finalize();
    const auto &q = prof2.profile(Structure::StoreQueue);
    ASSERT_NE(q.find(0, 10), nullptr); // drain read happens first
    EXPECT_EQ(q.find(0, 10)->rip, 0x3000u);
}

class GroupingPropertyFixture
    : public ::testing::TestWithParam<Structure>
{
};

TEST_P(GroupingPropertyFixture, PartitionAndKeysHoldPerStructure)
{
    const Structure s = GetParam();
    auto w = workloads::buildWorkload("stringsearch");
    uarch::CoreConfig cfg;
    cfg = cfg.withRegisterFile(128).withStoreQueue(16).withL1dKb(16);
    AceProfiler prof(cfg.numPhysIntRegs, cfg.sqEntries,
                     cfg.l1d.totalWords());
    uarch::Core core(w.program, cfg, &prof);
    core.run();
    prof.finalize();

    unsigned entries = s == Structure::RegisterFile ? cfg.numPhysIntRegs
                       : s == Structure::StoreQueue ? cfg.sqEntries
                                                    : cfg.l1d.totalWords();
    Rng rng(5);
    auto faults = core::sampleFaults(s, entries, core.stats().cycles,
                                     core::specFixed(5000), rng);
    for (auto split : {core::GroupingOptions::Split::None,
                       core::GroupingOptions::Split::Byte,
                       core::GroupingOptions::Split::Nibble,
                       core::GroupingOptions::Split::Bit}) {
        core::GroupingOptions opts;
        opts.split = split;
        Rng grng(7);
        auto res = core::groupFaults(faults, prof.profile(s), opts, grng);
        EXPECT_EQ(res.aceMasked + res.survivors.size(), faults.size());
        std::size_t members = 0;
        for (const auto &g : res.groups) {
            members += g.members.size();
            for (auto m : g.members) {
                const auto &tf = res.survivors[m];
                EXPECT_EQ(tf.rip, g.rip);
                EXPECT_EQ(tf.upc, g.upc);
                switch (split) {
                  case core::GroupingOptions::Split::Byte:
                    EXPECT_EQ(tf.fault.bit / 8, g.byte);
                    break;
                  case core::GroupingOptions::Split::Nibble:
                    EXPECT_EQ(tf.fault.bit / 4, g.byte);
                    break;
                  case core::GroupingOptions::Split::Bit:
                    EXPECT_EQ(tf.fault.bit, g.byte);
                    break;
                  default:
                    break;
                }
            }
        }
        EXPECT_EQ(members, res.survivors.size());
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllStructures, GroupingPropertyFixture,
    ::testing::Values(Structure::RegisterFile, Structure::StoreQueue,
                      Structure::L1DCache),
    [](const ::testing::TestParamInfo<Structure> &info) {
        return uarch::structureName(info.param);
    });

TEST(FaultProperty, DoubleFlipIsIdentityOnAllStructures)
{
    auto w = workloads::buildWorkload("fft");
    uarch::CoreConfig cfg;
    auto golden = isa::interpret(w.program);

    Rng rng(11);
    for (int i = 0; i < 6; ++i) {
        uarch::Core core(w.program, cfg);
        // Advance into the middle of the run, double-flip, finish.
        for (int c = 0; c < 500 && !core.finished(); ++c)
            core.tick();
        const unsigned reg = static_cast<unsigned>(
            rng.nextBelow(cfg.numPhysIntRegs));
        const unsigned slot =
            static_cast<unsigned>(rng.nextBelow(cfg.sqEntries));
        const unsigned word = static_cast<unsigned>(
            rng.nextBelow(cfg.l1d.totalWords()));
        const unsigned bit = static_cast<unsigned>(rng.nextBelow(64));
        core.flipBit(Structure::RegisterFile, reg, bit);
        core.flipBit(Structure::RegisterFile, reg, bit);
        core.flipBit(Structure::StoreQueue, slot, bit);
        core.flipBit(Structure::StoreQueue, slot, bit);
        core.flipBit(Structure::L1DCache, word, bit);
        core.flipBit(Structure::L1DCache, word, bit);
        auto r = core.run();
        EXPECT_TRUE(r.sameArchOutcome(golden)) << "iteration " << i;
    }
}

TEST(SamplingProperty, SampleSizeMonotonicity)
{
    const double pop = 1e12;
    // Tighter margin -> more faults.
    EXPECT_GT(stats::sampleSize(pop, 0.001, 0.99),
              stats::sampleSize(pop, 0.01, 0.99));
    // Higher confidence -> more faults.
    EXPECT_GT(stats::sampleSize(pop, 0.01, 0.999),
              stats::sampleSize(pop, 0.01, 0.9));
    // Larger population -> more faults (toward the asymptote).
    EXPECT_GE(stats::sampleSize(1e12, 0.01, 0.99),
              stats::sampleSize(1e4, 0.01, 0.99));
}

TEST(SamplingProperty, UniformityOverEntries)
{
    Rng rng(17);
    auto faults = core::sampleFaults(Structure::RegisterFile, 16, 1000,
                                     core::specFixed(16000), rng);
    std::vector<unsigned> hist(16, 0);
    for (const auto &f : faults)
        ++hist[f.entry];
    for (unsigned h : hist) {
        EXPECT_GT(h, 700u);  // expected 1000 each
        EXPECT_LT(h, 1300u);
    }
}

} // namespace
} // namespace merlin
