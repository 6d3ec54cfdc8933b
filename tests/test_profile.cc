/**
 * @file
 * ACE-like profiler tests: interval construction semantics (Figure 3),
 * structural invariants, committed-read filtering, and the ground-truth
 * property that pruned faults really are masked.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>

#include "base/logging.hh"
#include "base/rng.hh"

#include "faultsim/runner.hh"
#include "io/json.hh"
#include "masm/asm.hh"
#include "profile/ace.hh"
#include "uarch/core.hh"
#include "workloads/workloads.hh"

namespace merlin::profile
{
namespace
{

using uarch::Structure;

struct Profiled
{
    std::shared_ptr<AceProfiler> profiler;
    uarch::CoreStats stats;
    isa::ArchResult result;
};

Profiled
profileProgram(const std::string &src, uarch::CoreConfig cfg = {})
{
    auto prog = masm::assemble(src, "t");
    Profiled p;
    p.profiler = std::make_shared<AceProfiler>(
        cfg.numPhysIntRegs, cfg.sqEntries, cfg.l1d.totalWords());
    uarch::Core core(prog, cfg, p.profiler.get());
    p.result = core.run();
    p.stats = core.stats();
    p.profiler->finalize();
    return p;
}

TEST(AceProfiler, IntervalsAreSortedAndDisjoint)
{
    auto p = profileProgram(".data\nbuf: .space 256\n.text\n"
                            "  la s0, buf\n"
                            "  movi s1, 0\n"
                            "  movi s2, 24\n"
                            "loop:\n"
                            "  shli t0, s1, 3\n"
                            "  add t0, t0, s0\n"
                            "  st.d s1, [t0]\n"
                            "  ld.d t1, [t0]\n"
                            "  add s3, s3, t1\n"
                            "  addi s1, s1, 1\n"
                            "  blt s1, s2, loop\n"
                            "  out.d s3\n"
                            "  halt 0\n");
    for (Structure s : {Structure::RegisterFile, Structure::StoreQueue,
                        Structure::L1DCache}) {
        const StructureProfile &prof = p.profiler->profile(s);
        for (unsigned e = 0; e < prof.numEntries(); ++e) {
            const auto &iv = prof.intervals(e);
            for (std::size_t i = 0; i < iv.size(); ++i) {
                EXPECT_LT(iv[i].start, iv[i].end);
                if (i > 0) {
                    EXPECT_GE(iv[i].start, iv[i - 1].end);
                }
            }
        }
    }
}

TEST(AceProfiler, FindLocatesContainingInterval)
{
    auto p = profileProgram("movi s0, 5\n"
                            "movi s1, 0\n"
                            "movi s2, 2000\n"
                            "spin:\n"
                            "  addi s1, s1, 1\n"
                            "  blt s1, s2, spin\n"
                            "  out.d s0\n" // reads s0 ~2000 cycles later
                            "  halt 0\n");
    const auto &prof = p.profiler->profile(Structure::RegisterFile);
    // Some register holds a long vulnerable interval (s0's value).
    bool found_long = false;
    for (unsigned e = 0; e < prof.numEntries(); ++e) {
        for (const auto &iv : prof.intervals(e)) {
            if (iv.end - iv.start > 500) {
                found_long = true;
                // find() must return this interval for an interior cycle.
                Cycle mid = iv.start + (iv.end - iv.start) / 2;
                const VulnerableInterval *hit = prof.find(e, mid);
                ASSERT_NE(hit, nullptr);
                EXPECT_EQ(hit->start, iv.start);
                // Boundary semantics: (start, end] membership.
                EXPECT_EQ(prof.find(e, iv.start), nullptr);
                EXPECT_NE(prof.find(e, iv.end), nullptr);
            }
        }
    }
    EXPECT_TRUE(found_long);
}

TEST(AceProfiler, DeadValuesHaveNoInterval)
{
    // s0 written, never read: no RF interval may end with a read of it.
    auto p = profileProgram("movi s0, 123\n"
                            "movi s1, 7\n"
                            "out.d s1\n"
                            "halt 0\n");
    const auto &prof = p.profiler->profile(Structure::RegisterFile);
    // The total vulnerable time should be small: only s1 and the
    // bookkeeping registers are ever read.
    EXPECT_LT(prof.aceAvf(p.stats.cycles), 0.2);
}

TEST(AceProfiler, SquashedReadsDoNotEndIntervals)
{
    // A wrong-path load reads a register but is squashed; committed
    // interval count must match an equivalent program without the
    // mispredicted hammock.
    auto p = profileProgram(".data\nbuf: .quad 42\n.text\n"
                            "  la s0, buf\n"
                            "  movi s1, 0\n"
                            "  movi s2, 300\n"
                            "loop:\n"
                            "  andi t0, s1, 3\n"
                            "  movi t1, 3\n"
                            "  bne t0, t1, skip\n"
                            "  ld.d s3, [s0]\n"
                            "skip:\n"
                            "  addi s1, s1, 1\n"
                            "  blt s1, s2, loop\n"
                            "  out.d s3\n"
                            "  halt 0\n");
    // All intervals must end with a committed reader: every interval's
    // RIP must be a valid text address.
    const auto &prof = p.profiler->profile(Structure::RegisterFile);
    for (unsigned e = 0; e < prof.numEntries(); ++e) {
        for (const auto &iv : prof.intervals(e)) {
            EXPECT_GE(iv.rip, isa::layout::TEXT_BASE);
            EXPECT_LT(iv.upc, isa::MAX_UOPS_PER_MACRO);
        }
    }
}

TEST(AceProfiler, StoreQueueIntervalsEndAtForwardOrDrain)
{
    auto p = profileProgram(".data\nbuf: .space 64\n.text\n"
                            "  la s0, buf\n"
                            "  movi s1, 0xab\n"
                            "  st.d s1, [s0]\n"
                            "  ld.d s2, [s0]\n" // likely forwarded
                            "  out.d s2\n"
                            "  halt 0\n");
    const auto &prof = p.profiler->profile(Structure::StoreQueue);
    std::uint64_t total = 0;
    for (unsigned e = 0; e < prof.numEntries(); ++e)
        total += prof.intervals(e).size();
    EXPECT_GE(total, 1u); // at least the store's write->drain interval
}

TEST(AceProfiler, L1dProfileTracksCacheWords)
{
    auto p = profileProgram(".data\nbuf: .space 512\n.text\n"
                            "  la s0, buf\n"
                            "  movi s1, 0\n"
                            "  movi s2, 64\n"
                            "wr:\n"
                            "  shli t0, s1, 3\n"
                            "  add t0, t0, s0\n"
                            "  st.d s1, [t0]\n"
                            "  addi s1, s1, 1\n"
                            "  blt s1, s2, wr\n"
                            "  movi s1, 0\n"
                            "rd:\n"
                            "  shli t0, s1, 3\n"
                            "  add t0, t0, s0\n"
                            "  ldadd s3, [t0]\n"
                            "  addi s1, s1, 1\n"
                            "  blt s1, s2, rd\n"
                            "  out.d s3\n"
                            "  halt 0\n");
    const auto &prof = p.profiler->profile(Structure::L1DCache);
    EXPECT_GT(prof.totalVulnerableCycles(), 0u);
}

TEST(AceProfiler, AceAvfIsUpperBoundButBelowOne)
{
    auto w = workloads::buildWorkload("qsort");
    uarch::CoreConfig cfg;
    AceProfiler prof(cfg.numPhysIntRegs, cfg.sqEntries,
                     cfg.l1d.totalWords());
    uarch::Core core(w.program, cfg, &prof);
    core.run();
    prof.finalize();
    const double avf =
        prof.profile(Structure::RegisterFile).aceAvf(core.stats().cycles);
    EXPECT_GT(avf, 0.0);
    EXPECT_LT(avf, 1.0);
}

/** Every interval of @p prof, flattened, then its vulnerable total. */
std::vector<std::uint64_t>
flatten(const StructureProfile &prof)
{
    std::vector<std::uint64_t> v;
    for (EntryIndex e = 0; e < prof.numEntries(); ++e) {
        for (const VulnerableInterval &iv : prof.intervals(e)) {
            v.insert(v.end(), {e, iv.start, iv.end, iv.rip, iv.upc,
                               iv.endSeq});
        }
    }
    v.push_back(prof.totalVulnerableCycles());
    return v;
}

/**
 * Intervals are built per structure on first query, so a structure's
 * profile must not depend on which other structures were queried
 * before it, or whether any were.
 */
TEST(AceProfiler, LazyProfilesIgnoreQueryOrder)
{
    auto w = workloads::buildWorkload("qsort");
    const uarch::CoreConfig cfg =
        uarch::CoreConfig{}.withRegisterFile(64).withL1dKb(16);
    const auto profiled = [&] {
        auto prof = std::make_unique<AceProfiler>(
            cfg.numPhysIntRegs, cfg.sqEntries, cfg.l1d.totalWords());
        uarch::Core core(w.program, cfg, prof.get());
        core.run();
        prof->finalize();
        return prof;
    };
    const Structure all[] = {Structure::RegisterFile,
                             Structure::StoreQueue, Structure::L1DCache};

    std::vector<std::vector<std::uint64_t>> alone;
    for (Structure s : all)
        alone.push_back(flatten(profiled()->profile(s)));
    for (const auto &a : alone)
        EXPECT_GT(a.back(), 0u); // every structure has intervals

    const auto forward = profiled();
    const auto backward = profiled();
    for (int i = 0; i < 3; ++i)
        EXPECT_EQ(flatten(forward->profile(all[i])), alone[i]) << i;
    for (int i = 2; i >= 0; --i)
        EXPECT_EQ(flatten(backward->profile(all[i])), alone[i]) << i;
    // A repeat query returns the built profile itself.
    EXPECT_EQ(&forward->profile(Structure::StoreQueue),
              &forward->profile(Structure::StoreQueue));
    EXPECT_EQ(flatten(forward->profile(Structure::RegisterFile)),
              alone[0]);
}

TEST(AceProfiler, FinalizeContractIsEnforced)
{
    const uarch::CoreConfig cfg;
    AceProfiler prof(cfg.numPhysIntRegs, cfg.sqEntries,
                     cfg.l1d.totalWords());
    EXPECT_THROW(prof.profile(Structure::StoreQueue), SimAssertError);
    prof.finalize();
    EXPECT_THROW(prof.finalize(), SimAssertError);
    EXPECT_EQ(prof.profile(Structure::StoreQueue).totalVulnerableCycles(),
              0u);
}

TEST(AceProfiler, PathSignatureDiscriminatesPaths)
{
    auto p = profileProgram(".data\ntab: .quad 1,0,1,1,0,0,1,0\n.text\n"
                            "  la s0, tab\n"
                            "  movi s1, 0\n"
                            "  movi s2, 8\n"
                            "loop:\n"
                            "  shli t0, s1, 3\n"
                            "  add t0, t0, s0\n"
                            "  ld.d t1, [t0]\n"
                            "  beq t1, t8, zero\n"
                            "  addi s3, s3, 1\n"
                            "zero:\n"
                            "  addi s1, s1, 1\n"
                            "  blt s1, s2, loop\n"
                            "  out.d s3\n"
                            "  halt 0\n");
    // Different sequence points see different depth-5 branch futures.
    const auto &branches = p.profiler->branchTrace();
    ASSERT_GT(branches.size(), 8u);
    auto sig1 = p.profiler->pathSignature(branches[0].seq, 5);
    auto sig2 = p.profiler->pathSignature(branches[3].seq, 5);
    EXPECT_NE(sig1, sig2);
    // Depth 0 collapses everything.
    EXPECT_EQ(p.profiler->pathSignature(branches[0].seq, 0),
              p.profiler->pathSignature(branches[3].seq, 0));
}

TEST(AceProfiler, GroundTruth_PrunedFaultsAreMasked)
{
    // The load-bearing soundness property of the ACE-like step: inject
    // faults the profile calls non-vulnerable and verify they are all
    // architecturally masked.
    auto w = workloads::buildWorkload("fft");
    uarch::CoreConfig cfg;
    faultsim::InjectionRunner runner(w.program, cfg);
    auto profiler = std::make_shared<AceProfiler>(
        cfg.numPhysIntRegs, cfg.sqEntries, cfg.l1d.totalWords());
    auto golden = runner.golden(profiler.get());
    profiler->finalize();

    const auto &prof = profiler->profile(Structure::RegisterFile);
    merlin::Rng rng(42);
    unsigned tested = 0;
    for (unsigned i = 0; i < 4000 && tested < 40; ++i) {
        faultsim::Fault f;
        f.structure = Structure::RegisterFile;
        f.entry = static_cast<EntryIndex>(
            rng.nextBelow(cfg.numPhysIntRegs));
        f.bit = static_cast<std::uint8_t>(rng.nextBelow(64));
        f.cycle = rng.nextBelow(golden.stats.cycles);
        if (prof.find(f.entry, f.cycle))
            continue; // vulnerable: skip, we test the pruned ones
        ++tested;
        EXPECT_EQ(runner.inject(f, golden), faultsim::Outcome::Masked)
            << "entry " << f.entry << " bit " << int(f.bit) << " cycle "
            << f.cycle;
    }
    EXPECT_EQ(tested, 40u);
}

// ------------------------------------------------ pinned recording

/** FNV-1a 64 folded over 64-bit values. */
struct Fnv
{
    std::uint64_t h = 0xcbf29ce484222325ULL;

    void
    mix(std::uint64_t v)
    {
        for (unsigned i = 0; i < 8; ++i, v >>= 8) {
            h ^= v & 0xff;
            h *= 0x100000001b3ULL;
        }
    }

    std::string
    hex() const
    {
        static const char digits[] = "0123456789abcdef";
        std::string s(16, '0');
        std::uint64_t v = h;
        for (int i = 15; i >= 0; --i, v >>= 4)
            s[static_cast<std::size_t>(i)] = digits[v & 0xf];
        return s;
    }
};

/** Everything the profiled golden run of @p p on @p cfg records. */
io::Json
recordingRecord(const isa::Program &p, const uarch::CoreConfig &cfg)
{
    // Checkpointed, so the run records the effect trace; checkpoints
    // do not change what the run records.
    faultsim::InjectionRunner runner(p, cfg);
    AceProfiler profiler(cfg.numPhysIntRegs, cfg.sqEntries,
                         cfg.l1d.totalWords());
    const faultsim::GoldenRun g = runner.golden(&profiler);
    profiler.finalize();
    EXPECT_NE(g.trace, nullptr);
    if (!g.trace)
        return io::Json::object();

    io::Json j = io::Json::object();
    const std::pair<const char *, Structure> structures[] = {
        {"rf", Structure::RegisterFile},
        {"sq", Structure::StoreQueue},
        {"l1d", Structure::L1DCache},
    };
    for (const auto &[key, s] : structures) {
        const StructureProfile &prof = profiler.profile(s);
        Fnv ace, eff;
        std::uint64_t intervals = 0, events = 0;
        for (EntryIndex e = 0; e < prof.numEntries(); ++e) {
            for (const VulnerableInterval &iv : prof.intervals(e)) {
                ace.mix(e);
                ace.mix(iv.start);
                ace.mix(iv.end);
                ace.mix(iv.rip);
                ace.mix(iv.upc);
                ace.mix(iv.endSeq);
                ++intervals;
            }
        }
        for (EntryIndex e = 0; e < g.trace->entries(s); ++e) {
            const auto &evs = g.trace->events(s, e);
            if (evs.empty())
                continue;
            eff.mix(e);
            eff.mix(evs.size());
            for (std::uint64_t ev : evs)
                eff.mix(ev);
            events += evs.size();
        }
        io::Json r = io::Json::object();
        r.set("intervals", intervals);
        r.set("vulnerable_cycles", prof.totalVulnerableCycles());
        r.set("intervals_fnv", ace.hex());
        r.set("effect_events", events);
        r.set("effect_fnv", eff.hex());
        j.set(key, r);
    }
    Fnv br;
    for (const BranchRecord &b : profiler.branchTrace()) {
        br.mix(b.seq);
        br.mix(b.rip);
        br.mix(b.taken ? 1 : 0);
    }
    j.set("branches",
          static_cast<std::uint64_t>(profiler.branchTrace().size()));
    j.set("branches_fnv", br.hex());
    j.set("effect_events", g.trace->numEvents());
    return j;
}

/** Compare @p actual with tests/golden/@p name.json, key by key. */
void
expectMatchesGolden(const io::Json &actual, const std::string &name)
{
    const std::string goldenPath = std::string(MERLIN_SOURCE_DIR) +
                                   "/tests/golden/" + name + ".json";
    const std::string actualPath =
        testing::TempDir() + name + "_actual.json";
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
 * Pins what the profiled golden run records -- every ACE interval, the
 * committed branch trace and every effect-trace event -- for all
 * bundled workloads on the default core and on test_core's smallest
 * machine, so a change to how the core reports events provably moves
 * none of them.  Regenerate only for a deliberate change of recording
 * semantics, by copying the *_actual.json file the failure names into
 * tests/golden/.
 */
TEST(GoldenRecording, MatchesCommittedGolden)
{
    const std::pair<const char *, uarch::CoreConfig> variants[] = {
        {"default", uarch::CoreConfig{}},
        {"small", uarch::CoreConfig{}.withRegisterFile(64)
                      .withStoreQueue(16).withL1dKb(16)},
    };
    io::Json actual = io::Json::object();
    for (const std::string &name : workloads::allWorkloadNames()) {
        const auto w = workloads::buildWorkload(name);
        for (const auto &[vname, cfg] : variants)
            actual.set(name + "/" + vname, recordingRecord(w.program, cfg));
    }
    expectMatchesGolden(actual, "golden_recording");
}

/**
 * Every bundled workload fits the L1Ds above, so none of those runs
 * writes a dirty line back.  A 1 KB L1D (four sets) makes most MiBench
 * programs evict dirty lines constantly, which pins the write-back half
 * of the recording too: committed write-back reads tagged with the
 * evicting access, and their physical effect reads.
 */
TEST(GoldenRecording, WriteBacksMatchCommittedGolden)
{
    const auto &spec = workloads::specWorkloads();
    const uarch::CoreConfig cfg = uarch::CoreConfig{}.withL1dKb(1);
    io::Json actual = io::Json::object();
    std::uint64_t writebacks = 0;
    for (const std::string &name : workloads::allWorkloadNames()) {
        if (std::find(spec.begin(), spec.end(), name) != spec.end())
            continue;
        const auto w = workloads::buildWorkload(name);
        uarch::Core core(w.program, cfg);
        core.run();
        writebacks += core.l1d().writebacks();
        actual.set(name + "/l1d1", recordingRecord(w.program, cfg));
    }
    EXPECT_GT(writebacks, 1000u);
    expectMatchesGolden(actual, "golden_recording_writeback");
}

} // namespace
} // namespace merlin::profile
