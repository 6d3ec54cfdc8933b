/**
 * @file
 * ACE-like profiler tests: interval construction semantics (Figure 3),
 * structural invariants, committed-read filtering, and the ground-truth
 * property that pruned faults really are masked.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <fstream>
#include <sstream>
#include <thread>
#include <tuple>

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

constexpr Structure kAll[] = {Structure::RegisterFile,
                              Structure::StoreQueue, Structure::L1DCache};

/** A finalized profiler of @p workload's golden run on @p cfg. */
std::unique_ptr<AceProfiler>
profileWorkload(const std::string &workload, const uarch::CoreConfig &cfg)
{
    auto w = workloads::buildWorkload(workload);
    auto prof = std::make_unique<AceProfiler>(
        cfg.numPhysIntRegs, cfg.sqEntries, cfg.l1d.totalWords());
    uarch::Core core(w.program, cfg, prof.get());
    core.run();
    prof->finalize();
    return prof;
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
    const uarch::CoreConfig cfg =
        uarch::CoreConfig{}.withRegisterFile(64).withL1dKb(16);
    const auto profiled = [&] { return profileWorkload("qsort", cfg); };

    std::vector<std::vector<std::uint64_t>> alone;
    for (Structure s : kAll)
        alone.push_back(flatten(profiled()->profile(s)));
    for (const auto &a : alone)
        EXPECT_GT(a.back(), 0u); // every structure has intervals

    const auto forward = profiled();
    const auto backward = profiled();
    for (int i = 0; i < 3; ++i)
        EXPECT_EQ(flatten(forward->profile(kAll[i])), alone[i]) << i;
    for (int i = 2; i >= 0; --i)
        EXPECT_EQ(flatten(backward->profile(kAll[i])), alone[i]) << i;
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

/** find() as a binary search over the whole list: the reference. */
const VulnerableInterval *
searchedFind(const StructureProfile &prof, EntryIndex e, Cycle t)
{
    const auto &iv = prof.intervals(e);
    auto it = std::lower_bound(
        iv.begin(), iv.end(), t,
        [](const VulnerableInterval &a, Cycle v) { return a.end < v; });
    if (it != iv.end() && it->start < t && t <= it->end)
        return &*it;
    return nullptr;
}

/**
 * Cycles to query on each entry of @p prof: 0, the edges of every
 * interval (start, start+1, end, end+1), past the last end, and
 * @p random draws up to just past it.
 */
std::vector<std::vector<Cycle>>
probeCycles(const StructureProfile &prof, Rng &rng, unsigned random)
{
    std::vector<std::vector<Cycle>> probes(prof.numEntries());
    for (EntryIndex e = 0; e < prof.numEntries(); ++e) {
        std::vector<Cycle> &ts = probes[e];
        ts = {0, 1, ~Cycle(0)};
        for (const VulnerableInterval &iv : prof.intervals(e))
            ts.insert(ts.end(),
                      {iv.start, iv.start + 1, iv.end, iv.end + 1});
        const Cycle last =
            prof.intervals(e).empty() ? 0 : prof.intervals(e).back().end;
        ts.insert(ts.end(), {last + 1, last + 1000, 2 * last + 1});
        for (unsigned i = 0; i < random; ++i)
            ts.push_back(rng.nextBelow(last + 2));
    }
    return probes;
}

void
expectFindMatchesSearch(const StructureProfile &prof, unsigned random)
{
    Rng rng(7);
    const auto probes = probeCycles(prof, rng, random);
    for (EntryIndex e = 0; e < prof.numEntries(); ++e) {
        for (Cycle t : probes[e]) {
            ASSERT_EQ(prof.find(e, t), searchedFind(prof, e, t))
                << "entry " << e << ", cycle " << t;
        }
    }
}

/** One synthetic ACE event, in arrival order. */
struct Event
{
    EntryIndex entry;
    Cycle cycle;
    std::uint8_t phase;
    bool read;
    SeqNum seq;
};

void
record(AceProfiler &prof, Structure s, const Event &e)
{
    if (e.read)
        prof.committedRead(s, e.entry, e.cycle, e.phase, 0x1000 + e.seq,
                           static_cast<Upc>(e.seq), e.seq);
    else
        prof.write(s, e.entry, e.cycle, e.phase, 0xff);
}

/**
 * The intervals of @p events by the definition: each entry's events
 * in (cycle, phase) order, exact ties in arrival order.
 */
std::vector<std::uint64_t>
referenceIntervals(std::vector<Event> events, unsigned entries)
{
    std::stable_sort(events.begin(), events.end(),
                     [](const Event &a, const Event &b) {
                         return std::tie(a.entry, a.cycle, a.phase) <
                                std::tie(b.entry, b.cycle, b.phase);
                     });
    std::vector<std::uint64_t> v;
    std::uint64_t total = 0;
    std::vector<Cycle> last(entries, 0);
    for (const Event &e : events) {
        if (e.read && e.cycle > last[e.entry]) {
            v.insert(v.end(), {e.entry, last[e.entry], e.cycle,
                               0x1000 + e.seq, e.seq & 0xff, e.seq});
            total += e.cycle - last[e.entry];
        }
        last[e.entry] = e.cycle;
    }
    v.push_back(total);
    return v;
}

/**
 * The bucket index must answer exactly as a binary search over the
 * whole list, pointer for pointer, on hand-made edge cases, random
 * out-of-order event streams and real golden runs.
 */
TEST(AceProfiler, IndexedFindMatchesBinarySearch)
{
    constexpr Cycle kHigh = Cycle(1) << 33; // above 2^32
    constexpr unsigned kRf = 14, kSq = 4, kL1d = 64;
    std::vector<Event> rf, sq, l1d;
    SeqNum seq = 1;
    const auto read = [&](std::vector<Event> &evs, EntryIndex e, Cycle c) {
        evs.push_back({e, c, uarch::phase::RegRead, true, seq++});
    };
    const auto write = [&](std::vector<Event> &evs, EntryIndex e,
                           Cycle c) {
        evs.push_back({e, c, uarch::phase::RegWrite, false, 0});
    };
    // RF entry 0 has no events, entry 1 only a write (no interval),
    // entry 2 one interval (10, 20].
    write(rf, 1, 50);
    write(rf, 2, 10);
    read(rf, 2, 20);
    // Entry 3: back-to-back 1-cycle intervals (each end is the next
    // start), then one read far above 2^32: the whole burst shares
    // bucket 0.
    for (Cycle c = 1; c <= 64; ++c)
        read(rf, 3, c);
    read(rf, 3, kHigh);
    // Entry 4: every event above 2^32, intervals of growing length.
    write(rf, 4, kHigh);
    for (Cycle c = kHigh + 1, len = 1; len < 5000; c += len, len *= 3)
        read(rf, 4, c);
    // Entry 5: one long interval ending above 2^32.
    write(rf, 5, 3);
    read(rf, 5, kHigh + 5);

    // Random streams: reads land up to 40 cycles after they consumed
    // their bits (commit order), and same-cycle reads make exact ties.
    Rng rng(11);
    const auto randomStream = [&](std::vector<Event> &evs,
                                  EntryIndex first, EntryIndex entries) {
        std::vector<std::pair<Cycle, Event>> arrivals;
        Cycle c = 0;
        for (int i = 0; i < 4000; ++i) {
            c += rng.nextBelow(4) == 0 ? rng.nextBelow(200)
                                       : rng.nextBelow(3);
            const auto e = static_cast<EntryIndex>(
                first + rng.nextBelow(entries - first));
            if (rng.nextBelow(3) == 0) {
                arrivals.push_back(
                    {c, {e, c, uarch::phase::RegWrite, false, 0}});
            } else {
                arrivals.push_back({c + rng.nextBelow(40),
                                    {e, c, uarch::phase::RegRead, true,
                                     seq++}});
            }
        }
        std::stable_sort(arrivals.begin(), arrivals.end(),
                         [](const auto &a, const auto &b) {
                             return a.first < b.first;
                         });
        for (const auto &a : arrivals)
            evs.push_back(a.second);
    };
    randomStream(rf, 6, 12);
    randomStream(sq, 0, kSq);
    randomStream(l1d, 0, kL1d);

    // Entry 12: events arriving in fully reversed order, with
    // same-cycle events of two phases and exact ties: too many moves
    // for the insertion sort, so the build falls back to stable_sort.
    std::vector<Event> reversed;
    for (Cycle c = 1; c <= 300; ++c) {
        if (c % 7 == 0)
            write(reversed, 12, c);
        read(reversed, 12, c);
        if (c % 5 == 0)
            read(reversed, 12, c); // exact tie
    }
    std::reverse(reversed.begin(), reversed.end());
    // Entry 13: in-order events with a long late tail: every 50th
    // event arrives 40 places late, and the last one belongs near the
    // start.
    std::vector<Event> tail;
    for (Cycle i = 1; i <= 1000; ++i) {
        if (i % 3 == 0)
            write(tail, 13, 10 * i);
        else
            read(tail, 13, 10 * i);
    }
    for (std::size_t i = 50; i + 41 <= tail.size(); i += 50)
        std::rotate(tail.begin() + i, tail.begin() + i + 1,
                    tail.begin() + i + 41);
    read(tail, 13, 5);
    const auto fellBack = [](const std::vector<Event> &evs) {
        std::vector<uarch::AceEvent> v;
        for (const Event &e : evs)
            v.push_back({e.cycle, 0, e.seq, e.entry, 0, e.phase, e.read});
        return sortPhysical(v);
    };
    EXPECT_TRUE(fellBack(reversed));
    EXPECT_FALSE(fellBack(tail));
    rf.insert(rf.end(), reversed.begin(), reversed.end());
    rf.insert(rf.end(), tail.begin(), tail.end());

    AceProfiler prof(kRf, kSq, kL1d);
    for (const Event &e : rf)
        record(prof, Structure::RegisterFile, e);
    for (const Event &e : sq)
        record(prof, Structure::StoreQueue, e);
    for (const Event &e : l1d)
        record(prof, Structure::L1DCache, e);
    prof.finalize();

    const StructureProfile &rfProf = prof.profile(Structure::RegisterFile);
    EXPECT_EQ(flatten(rfProf), referenceIntervals(rf, kRf));
    EXPECT_EQ(flatten(prof.profile(Structure::StoreQueue)),
              referenceIntervals(sq, kSq));
    EXPECT_EQ(flatten(prof.profile(Structure::L1DCache)),
              referenceIntervals(l1d, kL1d));
    EXPECT_TRUE(rfProf.intervals(0).empty());
    EXPECT_TRUE(rfProf.intervals(1).empty());
    EXPECT_EQ(rfProf.intervals(2).size(), 1u);
    EXPECT_EQ(rfProf.intervals(3).size(), 65u);
    for (Structure s : kAll)
        expectFindMatchesSearch(prof.profile(s), 200);

    for (const char *workload : {"qsort", "fft"}) {
        SCOPED_TRACE(workload);
        const auto real = profileWorkload(workload, {});
        for (Structure s : kAll)
            expectFindMatchesSearch(real->profile(s), 20);
    }
}

/** Index of @p prof.find(e, t) in entry e's list, or -1 for none. */
std::vector<std::int64_t>
findAnswers(const StructureProfile &prof,
            const std::vector<std::vector<Cycle>> &probes)
{
    std::vector<std::int64_t> v;
    for (EntryIndex e = 0; e < prof.numEntries(); ++e) {
        for (Cycle t : probes[e]) {
            const VulnerableInterval *hit = prof.find(e, t);
            v.push_back(hit ? hit - prof.intervals(e).data() : -1);
        }
    }
    return v;
}

/**
 * profile() builds each structure's intervals and index once, under
 * std::call_once: threads racing to the first queries of all three
 * structures must all see what a serial profiler builds.
 */
TEST(AceProfiler, ConcurrentQueriesBuildOnce)
{
    const uarch::CoreConfig cfg;
    const auto serial = profileWorkload("qsort", cfg);
    Rng rng(3);
    std::vector<std::vector<std::vector<Cycle>>> probes;
    std::vector<std::vector<std::uint64_t>> lists;
    std::vector<std::vector<std::int64_t>> answers;
    for (Structure s : kAll) {
        const StructureProfile &prof = serial->profile(s);
        probes.push_back(probeCycles(prof, rng, 4));
        lists.push_back(flatten(prof));
        answers.push_back(findAnswers(prof, probes.back()));
    }

    const auto shared = profileWorkload("qsort", cfg);
    constexpr int kThreads = 8;
    struct Seen
    {
        std::vector<std::vector<std::uint64_t>> lists{3};
        std::vector<std::vector<std::int64_t>> answers{3};
    };
    std::vector<Seen> seen(kThreads);
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i) {
        threads.emplace_back([&, i] {
            while (!go.load())
                std::this_thread::yield();
            // Each thread starts on a different structure.
            for (int j = 0; j < 3; ++j) {
                const int k = (i + j) % 3;
                const StructureProfile &prof = shared->profile(kAll[k]);
                seen[i].answers[k] = findAnswers(prof, probes[k]);
                seen[i].lists[k] = flatten(prof);
            }
        });
    }
    go = true;
    for (std::thread &t : threads)
        t.join();
    for (int i = 0; i < kThreads; ++i) {
        for (int k = 0; k < 3; ++k) {
            EXPECT_EQ(seen[i].lists[k], lists[k]) << i << " " << k;
            EXPECT_EQ(seen[i].answers[k], answers[k]) << i << " " << k;
        }
    }
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
