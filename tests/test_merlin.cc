/**
 * @file
 * MeRLiN-core tests: sampling statistics, the two-step grouping
 * invariants, the Relyzer baseline, report math, and end-to-end
 * campaigns including the headline accuracy property (MeRLiN's estimate
 * vs ground truth over the same fault list).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <set>
#include <stdexcept>

#include "base/logging.hh"
#include "base/threadpool.hh"
#include "io/result_store.hh"
#include "merlin/campaign.hh"
#include "workloads/workloads.hh"

namespace merlin::core
{
namespace
{

using faultsim::Outcome;
using uarch::Structure;

TEST(Sampling, PaperBaselineCounts)
{
    const double pop = 1e13;
    EXPECT_NEAR(static_cast<double>(spec60k().count(pop)), 60000, 400);
    EXPECT_NEAR(static_cast<double>(spec600k().count(pop)), 600000,
                70000);
    EXPECT_EQ(specFixed(1234).count(pop), 1234u);
}

TEST(Sampling, FixedCountClampedToPopulation)
{
    EXPECT_EQ(specFixed(1000).count(100.0), 100u);
    // Far past 2^64 (e.g. 64 bits x 96 entries x 2^63 cycles).
    EXPECT_EQ(specFixed(1000).count(1e30), 1000u);
}

TEST(Sampling, FaultsAreInBounds)
{
    Rng rng(3);
    auto list = sampleFaults(Structure::StoreQueue, 16, 5000,
                             specFixed(2000), rng);
    ASSERT_EQ(list.size(), 2000u);
    for (const auto &f : list) {
        EXPECT_LT(f.entry, 16u);
        EXPECT_LT(f.bit, 64);
        EXPECT_LT(f.cycle, 5000u);
        EXPECT_EQ(f.structure, Structure::StoreQueue);
    }
}

TEST(Sampling, SeededReproducibility)
{
    Rng a(9), b(9);
    auto la = sampleFaults(Structure::RegisterFile, 64, 1000,
                           specFixed(100), a);
    auto lb = sampleFaults(Structure::RegisterFile, 64, 1000,
                           specFixed(100), b);
    EXPECT_TRUE(la == lb);
}

/** Rng::nextBelow as it was before its thresholds could be hoisted. */
std::uint64_t
referenceBelow(Rng &rng, std::uint64_t bound)
{
    const std::uint64_t threshold = -bound % bound;
    for (;;) {
        const std::uint64_t r = rng.next();
        if (r >= threshold)
            return r % bound;
    }
}

/**
 * sampleFaults draws each fault with hoisted rejection thresholds and
 * a masked bit draw; the faults and the generator state afterwards
 * must equal the plain per-fault three-draw loop's, including a cycle
 * bound just above 2^63 where half the raw draws are rejected.
 */
TEST(Sampling, DrawsMatchThePerFaultNextBelowLoop)
{
    const unsigned entry_bounds[] = {1, 16, 64, 96};
    const Cycle cycle_bounds[] = {1, 1000, (Cycle(1) << 32) + 12345,
                                  (Cycle(1) << 63) + 1};
    const SamplingSpec spec = specFixed(700);
    for (std::uint64_t seed : {1u, 77u}) {
        for (unsigned entries : entry_bounds) {
            for (Cycle cycles : cycle_bounds) {
                SCOPED_TRACE(testing::Message()
                             << "seed " << seed << " entries " << entries
                             << " cycles " << cycles);
                Rng got_rng(seed), want_rng(seed);
                const auto got = sampleFaults(Structure::RegisterFile,
                                              entries, cycles, spec,
                                              got_rng);
                const double population =
                    entries * 64.0 * static_cast<double>(cycles);
                const std::uint64_t n = spec.count(population);
                EXPECT_EQ(static_cast<double>(n), std::min(population, 700.0));
                std::vector<faultsim::Fault> want;
                for (std::uint64_t i = 0; i < n; ++i) {
                    faultsim::Fault f;
                    f.structure = Structure::RegisterFile;
                    f.entry = static_cast<EntryIndex>(
                        referenceBelow(want_rng, entries));
                    f.bit = static_cast<std::uint8_t>(
                        referenceBelow(want_rng, 64));
                    f.cycle = referenceBelow(want_rng, cycles);
                    want.push_back(f);
                }
                EXPECT_EQ(got, want);
                EXPECT_EQ(got_rng.next(), want_rng.next());
            }
        }
    }
}

TEST(Report, ClassCountsMath)
{
    ClassCounts c;
    c.add(Outcome::Masked, 70);
    c.add(Outcome::SDC, 20);
    c.add(Outcome::Crash, 10);
    EXPECT_EQ(c.total(), 100u);
    EXPECT_DOUBLE_EQ(c.fraction(Outcome::SDC), 0.2);
    EXPECT_DOUBLE_EQ(c.avf(), 0.3);

    ClassCounts d;
    d.add(Outcome::Masked, 75);
    d.add(Outcome::SDC, 15);
    d.add(Outcome::Crash, 10);
    EXPECT_NEAR(c.maxInaccuracyVs(d), 5.0, 1e-9);
    EXPECT_EQ((c + d).total(), 200u);
}

TEST(Report, FitRateFormula)
{
    // AVF 2.56%, 256 regs x 64 bits, 0.01 FIT/bit => 4.19 FIT (paper's
    // Figure 16 ballpark for the 256-register RF).
    double fit = fitRate(0.0256, 256 * 64);
    EXPECT_NEAR(fit, 4.19, 0.01);
}

TEST(Report, HomogeneityPerfectAndMixed)
{
    std::vector<std::vector<Outcome>> groups = {
        {Outcome::Masked, Outcome::Masked, Outcome::Masked},
        {Outcome::SDC, Outcome::SDC},
        {Outcome::SDC, Outcome::Masked, Outcome::SDC, Outcome::SDC},
    };
    auto h = computeHomogeneity(groups);
    EXPECT_EQ(h.groups, 3u);
    EXPECT_EQ(h.faults, 9u);
    // fine: (3 + 2 + 3) / 9
    EXPECT_NEAR(h.fine, 8.0 / 9.0, 1e-12);
    EXPECT_NEAR(h.coarse, 8.0 / 9.0, 1e-12);
    EXPECT_NEAR(h.perfectFraction, 2.0 / 3.0, 1e-12);
}

class GroupingFixture : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        w_ = workloads::buildWorkload("fft");
        cfg_.numPhysIntRegs = 128;
        runner_ = std::make_unique<faultsim::InjectionRunner>(w_.program,
                                                              cfg_);
        profiler_ = std::make_unique<profile::AceProfiler>(
            cfg_.numPhysIntRegs, cfg_.sqEntries, cfg_.l1d.totalWords());
        golden_ = runner_->golden(profiler_.get());
        profiler_->finalize();
        Rng rng(11);
        faults_ = sampleFaults(Structure::RegisterFile,
                               cfg_.numPhysIntRegs, golden_.stats.cycles,
                               specFixed(4000), rng);
    }

    workloads::BuiltWorkload w_;
    uarch::CoreConfig cfg_;
    std::unique_ptr<faultsim::InjectionRunner> runner_;
    std::unique_ptr<profile::AceProfiler> profiler_;
    faultsim::GoldenRun golden_;
    std::vector<faultsim::Fault> faults_;
};

TEST_F(GroupingFixture, GroupsPartitionSurvivors)
{
    Rng rng(1);
    GroupingOptions opts;
    auto res = groupFaults(
        faults_, profiler_->profile(Structure::RegisterFile), opts, rng);

    EXPECT_EQ(res.aceMasked + res.survivors.size(), faults_.size());

    std::vector<bool> seen(res.survivors.size(), false);
    for (const auto &g : res.groups) {
        EXPECT_FALSE(g.members.empty());
        for (auto m : g.members) {
            ASSERT_LT(m, seen.size());
            EXPECT_FALSE(seen[m]) << "fault in two groups";
            seen[m] = true;
        }
    }
    for (bool s : seen)
        EXPECT_TRUE(s) << "fault in no group";
}

TEST_F(GroupingFixture, GroupMembersShareKey)
{
    Rng rng(1);
    auto res = groupFaults(faults_,
                           profiler_->profile(Structure::RegisterFile),
                           GroupingOptions{}, rng);
    for (const auto &g : res.groups) {
        for (auto m : g.members) {
            const TaggedFault &tf = res.survivors[m];
            EXPECT_EQ(tf.rip, g.rip);
            EXPECT_EQ(tf.upc, g.upc);
            EXPECT_EQ(tf.fault.byte(), g.byte);
        }
        ASSERT_FALSE(g.representatives.empty());
        for (auto rep : g.representatives) {
            EXPECT_NE(std::find(g.members.begin(), g.members.end(), rep),
                      g.members.end())
                << "representative outside its group";
        }
    }
}

TEST_F(GroupingFixture, MaxGroupSizeRespected)
{
    Rng rng(1);
    GroupingOptions opts;
    opts.maxGroupSize = 10;
    auto res = groupFaults(
        faults_, profiler_->profile(Structure::RegisterFile), opts, rng);
    for (const auto &g : res.groups)
        EXPECT_LE(g.members.size(), 10u);
}

TEST_F(GroupingFixture, SmallerCapMeansMoreGroups)
{
    Rng r1(1), r2(1);
    GroupingOptions big;
    big.maxGroupSize = 1000;
    GroupingOptions small;
    small.maxGroupSize = 5;
    auto rb = groupFaults(
        faults_, profiler_->profile(Structure::RegisterFile), big, r1);
    auto rs = groupFaults(
        faults_, profiler_->profile(Structure::RegisterFile), small, r2);
    EXPECT_GT(rs.groups.size(), rb.groups.size());
}

TEST_F(GroupingFixture, ByteSplitRefinesGroups)
{
    Rng r1(1), r2(1), r3(1);
    GroupingOptions none;
    none.split = GroupingOptions::Split::None;
    GroupingOptions byte;
    byte.split = GroupingOptions::Split::Byte;
    GroupingOptions nib;
    nib.split = GroupingOptions::Split::Nibble;
    auto rn = groupFaults(
        faults_, profiler_->profile(Structure::RegisterFile), none, r1);
    auto rb = groupFaults(
        faults_, profiler_->profile(Structure::RegisterFile), byte, r2);
    auto rni = groupFaults(
        faults_, profiler_->profile(Structure::RegisterFile), nib, r3);
    EXPECT_LE(rn.groups.size(), rb.groups.size());
    EXPECT_LE(rb.groups.size(), rni.groups.size());
}

TEST_F(GroupingFixture, MultiRepresentativeSelection)
{
    Rng rng(1);
    GroupingOptions opts;
    opts.repsPerGroup = 3;
    auto res = groupFaults(
        faults_, profiler_->profile(Structure::RegisterFile), opts, rng);
    for (const auto &g : res.groups) {
        // min(3, group size) distinct representatives, all members.
        EXPECT_EQ(g.representatives.size(),
                  std::min<std::size_t>(3, g.members.size()));
        for (auto rep : g.representatives) {
            EXPECT_NE(std::find(g.members.begin(), g.members.end(), rep),
                      g.members.end());
        }
    }
    EXPECT_GT(res.numInjections(), res.groups.size());
}

TEST(Campaign, MajorityVoteAtLeastAsAccurate)
{
    // With 3 representatives per group the estimate must stay close to
    // truth (voting can only help against unlucky single picks).
    auto w = workloads::buildWorkload("fft");
    CampaignConfig cfg;
    cfg.target = Structure::RegisterFile;
    cfg.core = cfg.core.withRegisterFile(128);
    cfg.sampling = specFixed(1000);
    cfg.grouping.repsPerGroup = 3;
    Campaign camp(w.program, cfg);
    auto r = camp.run(CampaignMode::Truth);
    EXPECT_LT(
        r.merlinSurvivorEstimate.maxInaccuracyVs(*r.survivorTruth),
        10.0);
    EXPECT_GT(r.injections, r.numGroups);
}

TEST_F(GroupingFixture, RelyzerGroupsAreAPartitionToo)
{
    Rng rng(1);
    auto res = relyzerGroupFaults(
        faults_, profiler_->profile(Structure::RegisterFile), *profiler_,
        5, rng);
    EXPECT_EQ(res.aceMasked + res.survivors.size(), faults_.size());
    std::size_t member_total = 0;
    for (const auto &g : res.groups)
        member_total += g.members.size();
    EXPECT_EQ(member_total, res.survivors.size());
}

TEST_F(GroupingFixture, GroupingIsDeterministic)
{
    Rng r1(77), r2(77);
    auto a = groupFaults(faults_,
                         profiler_->profile(Structure::RegisterFile),
                         GroupingOptions{}, r1);
    auto b = groupFaults(faults_,
                         profiler_->profile(Structure::RegisterFile),
                         GroupingOptions{}, r2);
    ASSERT_EQ(a.groups.size(), b.groups.size());
    for (std::size_t i = 0; i < a.groups.size(); ++i) {
        EXPECT_EQ(a.groups[i].representatives,
                  b.groups[i].representatives);
        EXPECT_EQ(a.groups[i].members, b.groups[i].members);
    }
}

/**
 * The reducer's tallies must count exactly the groups and
 * representatives groupFaults builds, for every split, cap and
 * representative count, on random lists with duplicate faults and
 * keys with fewer members than repsPerGroup.  The rips lie above 2^40
 * and agree in their low 40 bits, so a key packed narrower than its
 * fields would merge groups.
 */
TEST(Grouping, ReducerTalliesMatchGroupFaults)
{
    constexpr unsigned kEntries = 8;
    constexpr Cycle kCycles = 4000;
    const Rip rips[] = {0x1000, 0x1000 + (Rip(1) << 40),
                        0x1000 + (Rip(1) << 63), Rip(1) << 41};
    profile::AceProfiler profiler(kEntries, 1, 1);
    Rng rng(5);
    SeqNum seq = 1;
    for (EntryIndex e = 0; e < kEntries; ++e) {
        for (Cycle c = 1 + rng.nextBelow(20); c < kCycles;
             c += 1 + rng.nextBelow(60)) {
            if (rng.nextBelow(4) == 0)
                profiler.write(Structure::RegisterFile, e, c,
                               uarch::phase::RegWrite, 0xff);
            else
                profiler.committedRead(
                    Structure::RegisterFile, e, c, uarch::phase::RegRead,
                    rips[rng.nextBelow(4)],
                    static_cast<Upc>(rng.nextBelow(2)), seq++);
        }
    }
    profiler.finalize();
    const profile::StructureProfile &prof =
        profiler.profile(Structure::RegisterFile);

    using Split = GroupingOptions::Split;
    for (std::uint64_t n : {1u, 50u, 3000u}) {
        std::vector<faultsim::Fault> faults = sampleFaults(
            Structure::RegisterFile, kEntries, kCycles, specFixed(n), rng);
        // Duplicates: a third of the list again, one fault ten times.
        faults.insert(faults.end(), faults.begin(),
                      faults.begin() + static_cast<std::ptrdiff_t>(n / 3));
        faults.insert(faults.end(), 10, faults.front());
        for (Split split :
             {Split::None, Split::Byte, Split::Nibble, Split::Bit}) {
            for (unsigned cap : {1u, 3u, 100u}) {
                for (unsigned reps : {1u, 2u, 5u}) {
                    SCOPED_TRACE(testing::Message()
                                 << n << " faults, split "
                                 << static_cast<int>(split) << ", cap "
                                 << cap << ", reps " << reps);
                    const GroupingOptions opts{split, cap, reps};
                    FaultReducer reducer(prof, opts, false);
                    for (const faultsim::Fault &f : faults)
                        reducer.add(f);
                    Rng grng(1);
                    const GroupingResult want =
                        groupFaults(faults, prof, opts, grng);
                    EXPECT_EQ(reducer.aceMasked(), want.aceMasked);
                    EXPECT_EQ(reducer.survivors(), want.survivors.size());
                    EXPECT_EQ(reducer.numGroups(), want.groups.size());
                    EXPECT_EQ(reducer.numInjections(),
                              want.numInjections());
                    if (n == 3000) {
                        std::set<Rip> seen;
                        for (const FaultGroup &g : want.groups)
                            seen.insert(g.rip);
                        EXPECT_EQ(seen.size(), std::size(rips));
                    }
                }
            }
        }
    }
}

// ---- end-to-end campaigns ----

TEST(Campaign, EndToEndEstimateMatchesTruth)
{
    // The paper's core claim, in miniature: MeRLiN's extrapolated class
    // distribution over the post-ACE list must track the full-injection
    // distribution within a few percentile units.
    auto w = workloads::buildWorkload("qsort");
    CampaignConfig cfg;
    cfg.target = Structure::RegisterFile;
    cfg.core.numPhysIntRegs = 128;
    cfg.sampling = specFixed(1500);
    cfg.seed = 2024;

    Campaign camp(w.program, cfg);
    auto res = camp.run(CampaignMode::Truth);

    EXPECT_EQ(res.initialFaults, 1500u);
    EXPECT_EQ(res.aceMasked + res.survivors, 1500u);
    EXPECT_GT(res.speedupAce, 1.0);
    EXPECT_GT(res.speedupTotal, res.speedupAce);

    ASSERT_TRUE(res.survivorTruth.has_value());
    ASSERT_TRUE(res.homogeneity.has_value());
    EXPECT_GT(res.homogeneity->fine, 0.75);

    const double err =
        res.merlinSurvivorEstimate.maxInaccuracyVs(*res.survivorTruth);
    EXPECT_LT(err, 12.0) << "estimate drifted from ground truth";

    // Full-list comparison (ACE-pruned faults are masked on both sides).
    const double full_err =
        res.merlinEstimate.maxInaccuracyVs(res.fullTruth());
    EXPECT_LT(full_err, 5.0);
}

TEST(Campaign, AceAvfUpperBoundsInjectionAvf)
{
    auto w = workloads::buildWorkload("sha");
    CampaignConfig cfg;
    cfg.target = Structure::RegisterFile;
    cfg.sampling = specFixed(600);
    Campaign camp(w.program, cfg);
    auto res = camp.run();
    EXPECT_GE(res.aceAvf + 0.02, res.merlinEstimate.avf());
}

TEST(Campaign, RelyzerVariantRuns)
{
    auto w = workloads::buildWorkload("stringsearch");
    CampaignConfig cfg;
    cfg.target = Structure::RegisterFile;
    cfg.sampling = specFixed(500);
    Campaign camp(w.program, cfg);
    auto res = camp.run(CampaignMode::Estimate, /*relyzer=*/true);
    EXPECT_GT(res.injections, 0u);
    EXPECT_EQ(res.merlinEstimate.total(), 500u);
}

TEST(Campaign, WindowedCampaignUsesUnknown)
{
    auto w = workloads::buildWorkload("gcc");
    CampaignConfig cfg;
    cfg.target = Structure::RegisterFile;
    cfg.core.numPhysIntRegs = 128;
    cfg.core.instructionWindowEnd = w.suggestedWindow;
    cfg.sampling = specFixed(400);
    Campaign camp(w.program, cfg);
    auto res = camp.run();
    EXPECT_EQ(res.merlinEstimate.total(), 400u);
    // Windowed classification may produce Unknowns but never Timeouts
    // from the window end itself.
    EXPECT_GE(res.merlinEstimate.of(faultsim::Outcome::Unknown), 0u);
}

TEST(Campaign, StoreQueueCampaignEndToEnd)
{
    auto w = workloads::buildWorkload("caes");
    CampaignConfig cfg;
    cfg.target = Structure::StoreQueue;
    cfg.core = cfg.core.withStoreQueue(16);
    cfg.sampling = specFixed(800);
    Campaign camp(w.program, cfg);
    auto res = camp.run();
    EXPECT_EQ(res.merlinEstimate.total(), 800u);
    EXPECT_GT(res.speedupTotal, 10.0); // SQ prunes hard (paper Fig. 9)
}

TEST(Campaign, L1dCampaignEndToEnd)
{
    auto w = workloads::buildWorkload("fft");
    CampaignConfig cfg;
    cfg.target = Structure::L1DCache;
    cfg.core = cfg.core.withL1dKb(16);
    cfg.sampling = specFixed(400);
    Campaign camp(w.program, cfg);
    auto res = camp.run();
    EXPECT_EQ(res.merlinEstimate.total(), 400u);
    EXPECT_GT(res.speedupAce, 1.0);
}

TEST(Campaign, SeededCampaignsReproduce)
{
    auto w = workloads::buildWorkload("susan_c");
    CampaignConfig cfg;
    cfg.target = Structure::RegisterFile;
    cfg.sampling = specFixed(300);
    cfg.seed = 5;
    auto r1 = Campaign(w.program, cfg).run();
    auto r2 = Campaign(w.program, cfg).run();
    EXPECT_EQ(r1.merlinEstimate.counts, r2.merlinEstimate.counts);
    EXPECT_EQ(r1.injections, r2.injections);
}

/**
 * The acceptance property of the parallel engine: class counts are
 * bit-identical for any thread count, with and without ground truth.
 */
TEST(Campaign, ParallelCampaignMatchesSerial)
{
    auto w = workloads::buildWorkload("qsort");
    CampaignConfig cfg;
    cfg.target = Structure::RegisterFile;
    cfg.sampling = specFixed(250);
    cfg.seed = 7;

    cfg.jobs = 1;
    auto serial = Campaign(w.program, cfg).run(CampaignMode::Truth);
    cfg.jobs = 8;
    auto parallel = Campaign(w.program, cfg).run(CampaignMode::Truth);

    EXPECT_EQ(serial.merlinEstimate.counts,
              parallel.merlinEstimate.counts);
    EXPECT_EQ(serial.merlinSurvivorEstimate.counts,
              parallel.merlinSurvivorEstimate.counts);
    ASSERT_TRUE(serial.survivorTruth && parallel.survivorTruth);
    EXPECT_EQ(serial.survivorTruth->counts, parallel.survivorTruth->counts);
    EXPECT_EQ(serial.injections, parallel.injections);
    EXPECT_EQ(serial.homogeneity->fine, parallel.homogeneity->fine);
}

/**
 * A grouping-only prepare runs a bare golden run (no checkpoints, no
 * effect trace) yet must reduce the fault list exactly like an
 * estimate-mode prepare, and its runner must still inject correctly.
 */
TEST(Campaign, GroupingOnlyGoldenRunIsBare)
{
    struct Case
    {
        const char *workload;
        bool windowed;
    };
    for (const Case &c : {Case{"qsort", false}, Case{"gcc", true}}) {
        const auto w = workloads::buildWorkload(c.workload);
        for (Structure target : {Structure::RegisterFile,
                                 Structure::StoreQueue,
                                 Structure::L1DCache}) {
            SCOPED_TRACE(testing::Message()
                         << c.workload << " "
                         << uarch::structureName(target));
            CampaignConfig cfg;
            cfg.target = target;
            cfg.sampling = specFixed(2000);
            cfg.seed = 3;
            if (c.windowed) {
                cfg.core = cfg.core.withRegisterFile(128)
                               .withStoreQueue(16)
                               .withL1dKb(32);
                cfg.core.instructionWindowEnd = w.suggestedWindow;
            }
            Campaign est(w.program, cfg), bare(w.program, cfg);
            const PreparedCampaign pe = est.prepare();
            const PreparedCampaign pb =
                bare.prepare(CampaignMode::GroupingOnly);

            EXPECT_FALSE(est.goldenRun().checkpoints.empty());
            EXPECT_NE(est.goldenRun().trace, nullptr);
            EXPECT_TRUE(bare.goldenRun().checkpoints.empty());
            EXPECT_EQ(bare.goldenRun().trace, nullptr);

            const CampaignResult &e = pe.result, &b = pb.result;
            EXPECT_EQ(b.goldenCycles, e.goldenCycles);
            EXPECT_EQ(b.goldenInstret, e.goldenInstret);
            EXPECT_EQ(b.aceAvf, e.aceAvf);
            EXPECT_EQ(b.initialFaults, e.initialFaults);
            EXPECT_EQ(b.aceMasked, e.aceMasked);
            EXPECT_EQ(b.survivors, e.survivors);
            EXPECT_EQ(b.numGroups, e.numGroups);
            EXPECT_EQ(b.injections, e.injections);
            EXPECT_TRUE(pb.faults.empty());

            // Slow path, same outcomes: a few representatives injected
            // through both runners.
            const std::vector<faultsim::Fault> some(
                pe.faults.begin(),
                pe.faults.begin() +
                    static_cast<std::ptrdiff_t>(
                        std::min<std::size_t>(pe.faults.size(), 4)));
            base::ThreadPool pool(1);
            base::TaskGroup group(pool);
            EXPECT_EQ(
                bare.runner().injectBatch(some, bare.goldenRun(), group),
                est.runner().injectBatch(some, est.goldenRun(), group));
        }
    }

    // Every split, group cap and representative count, and Relyzer's
    // grouping: a grouping-only campaign counts without building
    // groups, and its counts must equal those of the estimate-mode
    // campaign's groups.
    struct Options
    {
        GroupingOptions grouping;
        bool relyzer;
    };
    std::vector<Options> options;
    using Split = GroupingOptions::Split;
    for (Split split :
         {Split::None, Split::Byte, Split::Nibble, Split::Bit}) {
        for (unsigned cap : {1u, 3u, 100u}) {
            for (unsigned reps : {1u, 2u})
                options.push_back({{split, cap, reps}, false});
        }
    }
    options.push_back({GroupingOptions{}, true});
    const auto w = workloads::buildWorkload("fft");
    for (const Options &o : options) {
        SCOPED_TRACE(testing::Message()
                     << "split " << static_cast<int>(o.grouping.split)
                     << ", cap " << o.grouping.maxGroupSize << ", reps "
                     << o.grouping.repsPerGroup << ", relyzer "
                     << o.relyzer);
        CampaignConfig cfg;
        // A small register file, so keys of more than 3 survivors split.
        cfg.core = cfg.core.withRegisterFile(64);
        cfg.sampling = specFixed(3000);
        cfg.seed = 3;
        cfg.grouping = o.grouping;
        cfg.runner.checkpointInterval = 0; // nothing here injects
        Campaign est(w.program, cfg), bare(w.program, cfg);
        const PreparedCampaign pe =
            est.prepare(CampaignMode::Estimate, o.relyzer);
        const PreparedCampaign pb =
            bare.prepare(CampaignMode::GroupingOnly, o.relyzer);
        const CampaignResult &e = pe.result, &b = pb.result;
        EXPECT_EQ(b.initialFaults, e.initialFaults);
        EXPECT_EQ(b.aceMasked, pe.grouping.aceMasked);
        EXPECT_EQ(b.survivors, pe.grouping.survivors.size());
        EXPECT_EQ(b.numGroups, pe.grouping.groups.size());
        EXPECT_EQ(b.injections, pe.numRepFaults);
        EXPECT_EQ(b.speedupAce, e.speedupAce);
        EXPECT_EQ(b.speedupTotal, e.speedupTotal);
        EXPECT_GT(b.numGroups, 0u);
        EXPECT_TRUE(pb.faults.empty());
        EXPECT_EQ(pb.grouping.groups.empty(), !o.relyzer);
    }
}

/** Checkpointing must not change campaign results either. */
TEST(Campaign, CheckpointedCampaignMatchesUncheckpointed)
{
    auto w = workloads::buildWorkload("stringsearch");
    CampaignConfig cfg;
    cfg.target = Structure::RegisterFile;
    cfg.sampling = specFixed(200);
    cfg.seed = 11;

    cfg.runner.checkpointInterval = 0;
    auto plain = Campaign(w.program, cfg).run();
    cfg.runner.checkpointInterval = 100;
    auto ck = Campaign(w.program, cfg).run();

    EXPECT_EQ(plain.merlinEstimate.counts, ck.merlinEstimate.counts);
    EXPECT_EQ(plain.injections, ck.injections);
}

/**
 * Engine-setting invariance where the setting lives.  The checkpoint
 * cadence is a RunnerOptions member, never part of a result: the
 * serialized result must be byte-identical for the plain engine
 * (cadence 0), a tight and the default cadence, and any job count.
 * Only the runner's own counters may tell the settings apart.
 */
TEST(Campaign, ResultBytesInvariantToEngineKnobsAndJobs)
{
    const Cycle grid[] = {
        0, 64, faultsim::RunnerOptions::kDefaultCheckpointInterval};
    struct Target
    {
        const char *workload;
        uarch::CoreConfig core;
        Structure structure;
        std::uint64_t faults;
        CampaignMode mode;
    };
    // L1D lines live far longer than registers or SQ slots, so with a
    // tight cadence the step at the flip skips real head cycles.
    const Target targets[] = {
        {"qsort", uarch::CoreConfig{}.withRegisterFile(128),
         Structure::RegisterFile, 120, CampaignMode::Truth},
        {"fft", uarch::CoreConfig{}.withStoreQueue(16),
         Structure::StoreQueue, 120, CampaignMode::Estimate},
        {"qsort", uarch::CoreConfig{}.withL1dKb(16), Structure::L1DCache,
         80, CampaignMode::Estimate},
    };

    std::uint64_t exits = 0;
    std::uint64_t skipped = 0;
    for (const Target &t : targets) {
        const auto w = workloads::buildWorkload(t.workload);
        std::string ref;
        for (const Cycle cadence : grid) {
            for (const unsigned jobs : {1u, 4u}) {
                CampaignConfig cfg;
                cfg.target = t.structure;
                cfg.core = t.core;
                cfg.sampling = specFixed(t.faults);
                cfg.seed = 5;
                cfg.jobs = jobs;
                cfg.runner.checkpointInterval = cadence;
                Campaign camp(w.program, cfg);
                const std::string bytes =
                    io::resultToJson(camp.run(t.mode)).dump();
                if (ref.empty())
                    ref = bytes;
                EXPECT_EQ(bytes, ref) << t.workload << " [cadence "
                                      << cadence << "] jobs " << jobs;

                // The counters record what actually happened: the plain
                // engine neither consults the trace nor exits early.
                const faultsim::InjectionStats st =
                    camp.runner().injectionStats();
                if (cadence != 0) {
                    EXPECT_GT(st.replayHeadCycles, 0u) << cadence;
                    skipped += st.replayCyclesSkipped;
                    exits += st.earlyExits;
                } else {
                    EXPECT_EQ(st.replayMasked, 0u);
                    EXPECT_EQ(st.replayHeadCycles, 0u);
                    EXPECT_EQ(st.earlyExits, 0u);
                }
            }
        }
    }
    EXPECT_GT(exits, 0u) << "early exit never fired";
    EXPECT_GT(skipped, 0u) << "replay never skipped any head cycles";
}

/**
 * Regression for the old fault-key packing that capped L1D entries at
 * 16K words: a 256 KB L1D (32K words) campaign must run end to end.
 */
TEST(Campaign, LargeL1dCampaignSurvivesKeyPacking)
{
    auto w = workloads::buildWorkload("fft");
    CampaignConfig cfg;
    cfg.target = Structure::L1DCache;
    cfg.core = cfg.core.withL1dKb(256);
    ASSERT_GT(cfg.core.l1d.totalWords(), 1u << 14);
    cfg.sampling = specFixed(150);
    auto res = Campaign(w.program, cfg).run();
    EXPECT_EQ(res.merlinEstimate.total(), 150u);
}

TEST(Campaign, QuarantinedInjectionsAreRecordedAndCountedCrash)
{
    auto w = workloads::buildWorkload("qsort");
    CampaignConfig cfg;
    cfg.target = Structure::RegisterFile;
    cfg.core.numPhysIntRegs = 128;
    cfg.sampling = specFixed(600);
    cfg.seed = 11;
    // The plain engine simulates every run the hook must see.
    cfg.runner.checkpointInterval = 0;
    // A pathological-fault model: any injection into a low bit blows
    // up the simulator.  The campaign must absorb every blow-up —
    // recorded, counted Crash — and still finish the rest.
    cfg.runner.injectHook = [](const faultsim::Fault &f, Cycle) {
        if (f.bit < 8)
            throw std::runtime_error("sick bit");
    };
    auto res = Campaign(w.program, cfg).run();

    ASSERT_FALSE(res.quarantine.empty());
    for (std::size_t i = 0; i < res.quarantine.size(); ++i) {
        EXPECT_NE(res.quarantine[i].reason.find(
                      "simulator exception: sick bit"),
                  std::string::npos);
        if (i > 0) { // sorted for byte-stable serialization
            EXPECT_LT(res.quarantine[i - 1].faultKey,
                      res.quarantine[i].faultKey);
        }
    }
    EXPECT_GT(res.merlinEstimate.of(Outcome::Crash), 0u);
    EXPECT_EQ(res.merlinEstimate.total(), 600u);
}

TEST(Campaign, QuarantinePolicyFailAbortsTheCampaign)
{
    auto w = workloads::buildWorkload("qsort");
    CampaignConfig cfg;
    cfg.target = Structure::RegisterFile;
    cfg.core.numPhysIntRegs = 128;
    cfg.sampling = specFixed(300);
    cfg.runner.quarantine = faultsim::QuarantinePolicy::Fail;
    cfg.runner.checkpointInterval = 0;
    cfg.runner.injectHook = [](const faultsim::Fault &, Cycle) {
        throw std::runtime_error("boom");
    };
    EXPECT_THROW(Campaign(w.program, cfg).run(), FatalError);
}

} // namespace
} // namespace merlin::core
