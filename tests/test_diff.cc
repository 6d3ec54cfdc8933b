/**
 * @file
 * Differential-sweep tests: ResultStore::merge conflict policy, worker
 * store merge byte-fidelity against a single-store run, SuiteDiff
 * join/masking semantics, the reliability-invariant property suite
 * (diff(A,A) == 0, antisymmetry, --jobs and merge-order invariance)
 * and a golden-file regression lock on the diff report format.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "base/logging.hh"
#include "base/statistics.hh"
#include "io/result_store.hh"
#include "sched/diff.hh"
#include "sched/suite.hh"

namespace merlin::sched
{
namespace
{

using core::CampaignResult;
using faultsim::Outcome;
using io::Json;
using io::ResultStore;

// ------------------------------------------------------ test helpers

/** A spec whose only interesting knobs are the workload and L1D size. */
CampaignSpec
makeSpec(const std::string &workload, unsigned l1d_kb,
         std::uint64_t seed = 7)
{
    CampaignSpec s;
    s.workload = workload;
    s.structure = uarch::Structure::L1DCache;
    s.l1dKb = l1d_kb;
    s.window = 0;
    s.sampling = core::specFixed(100);
    s.seed = seed;
    return s;
}

/** A synthetic result with the fields the differ reads. */
CampaignResult
makeResult(std::uint64_t masked, std::uint64_t sdc, std::uint64_t due,
           std::uint64_t initial, std::uint64_t injections)
{
    CampaignResult r;
    r.goldenCycles = 1000;
    r.goldenInstret = 800;
    r.initialFaults = initial;
    r.aceMasked = masked / 2;
    r.survivors = initial - masked / 2;
    r.numGroups = 10;
    r.injections = injections;
    r.merlinEstimate.add(Outcome::Masked, masked);
    r.merlinEstimate.add(Outcome::SDC, sdc);
    r.merlinEstimate.add(Outcome::DUE, due);
    r.merlinSurvivorEstimate.add(Outcome::SDC, sdc);
    r.speedupAce = 2.0;
    r.speedupTotal = 8.0;
    return r;
}

void
putSpec(ResultStore &store, const CampaignSpec &spec,
        const CampaignResult &res)
{
    store.put(spec.key(), spec.toJson(), res);
}

std::string
fileBytes(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << path;
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

// ---------------------------------------------------------- merging

class MergeFixture : public ::testing::Test
{
  protected:
    std::string
    path(const char *name)
    {
        std::string p =
            testing::TempDir() + "merlin_merge_" + name + ".json";
        created_.push_back(p);
        return p;
    }

    void
    TearDown() override
    {
        // A suite store leaves its (emptied) journal directory beside
        // it.
        for (const std::string &p : created_) {
            std::error_code ec;
            std::filesystem::remove(p, ec);
            std::filesystem::remove_all(p + ".journal", ec);
        }
    }

    std::vector<std::string> created_;
};

TEST_F(MergeFixture, DisjointStoresUnion)
{
    ResultStore a, b;
    putSpec(a, makeSpec("qsort", 64), makeResult(80, 15, 5, 100, 20));
    putSpec(b, makeSpec("fft", 64), makeResult(70, 20, 10, 100, 25));

    const auto stats = a.merge(b);
    EXPECT_EQ(stats.added, 1u);
    EXPECT_EQ(stats.identical, 0u);
    EXPECT_EQ(stats.replaced, 0u);
    EXPECT_EQ(a.size(), 2u);
    EXPECT_TRUE(a.contains(makeSpec("fft", 64).key()));
}

TEST_F(MergeFixture, OverlappingIdenticalPayloadsAreIdempotent)
{
    ResultStore a, b;
    const CampaignSpec shared = makeSpec("qsort", 64);
    const CampaignResult res = makeResult(80, 15, 5, 100, 20);
    putSpec(a, shared, res);
    putSpec(b, shared, res);
    putSpec(b, makeSpec("sha", 64), makeResult(60, 30, 10, 100, 30));

    const auto stats = a.merge(b);
    EXPECT_EQ(stats.added, 1u);
    EXPECT_EQ(stats.identical, 1u);
    EXPECT_EQ(stats.replaced, 0u);
    EXPECT_EQ(a.size(), 2u);
}

TEST_F(MergeFixture, ConflictingPayloadsAreFatalUnlessForced)
{
    const CampaignSpec shared = makeSpec("qsort", 64);
    ResultStore a, b;
    putSpec(a, shared, makeResult(80, 15, 5, 100, 20));
    putSpec(b, shared, makeResult(80, 15, 5, 100, 9999));

    EXPECT_THROW(a.merge(b), FatalError);

    const auto stats = a.merge(b, /*force_theirs=*/true);
    EXPECT_EQ(stats.replaced, 1u);
    CampaignResult out;
    ASSERT_TRUE(a.lookup(shared.key(), out));
    EXPECT_EQ(out.injections, 9999u);
}

TEST_F(MergeFixture, MergeOrderDoesNotChangeTheBytes)
{
    const auto mk = [&](const char *wl, unsigned kb) {
        ResultStore s;
        putSpec(s, makeSpec(wl, kb), makeResult(80, 15, 5, 100, 20));
        return s;
    };
    const ResultStore s1 = mk("qsort", 64);
    const ResultStore s2 = mk("fft", 64);
    const ResultStore s3 = mk("sha", 32);

    ResultStore fwd, rev;
    fwd.merge(s1);
    fwd.merge(s2);
    fwd.merge(s3);
    rev.merge(s3);
    rev.merge(s2);
    rev.merge(s1);
    EXPECT_EQ(fwd.toJson().dump(2), rev.toJson().dump(2));
}

/**
 * The acceptance property: a suite split into --select worker shares,
 * each run into its own store, produces after `store merge` a file
 * byte-for-byte equal to the single-store run — in either fold order.
 */
TEST_F(MergeFixture, ShardSpillPlusMergeEqualsSingleStoreBytes)
{
    std::vector<CampaignSpec> specs;
    specs.push_back(makeSpec("qsort", 64));
    specs.back().sampling = core::specFixed(150);
    specs.push_back(makeSpec("fft", 64));
    specs.back().sampling = core::specFixed(150);

    SuiteOptions opts;
    opts.jobs = 2;
    opts.storePath = path("single");
    SuiteScheduler(specs, opts).run();

    std::vector<std::string> workers;
    for (std::uint64_t w = 0; w < 2; ++w) {
        SuiteOptions wopts;
        wopts.jobs = 2;
        wopts.storePath = path(w == 0 ? "worker0" : "worker1");
        SuiteScheduler(selectSpecs(specs, SpecSelector{w, 2}), wopts).run();
        workers.push_back(wopts.storePath);
    }

    const auto mergeAll = [&](const std::vector<std::string> &files,
                              const char *out) {
        ResultStore merged(path(out));
        io::mergeStoreFiles(merged, files);
        merged.save();
        return fileBytes(merged.path());
    };
    auto reversed = workers;
    std::reverse(reversed.begin(), reversed.end());

    const std::string single = fileBytes(opts.storePath);
    EXPECT_FALSE(single.empty());
    EXPECT_EQ(single, mergeAll(workers, "folded_fwd"))
        << "worker-store merge diverged";
    EXPECT_EQ(single, mergeAll(reversed, "folded_rev"))
        << "merge order leaked in";
}

// -------------------------------------------------- SuiteDiff joins

TEST(SuiteDiff, JoinsAcrossTheMaskedAxisAndReportsOneSiders)
{
    ResultStore a, b;
    // qsort pairs across the axis; fft exists only in A, sha only in B.
    putSpec(a, makeSpec("qsort", 64), makeResult(80, 15, 5, 100, 20));
    putSpec(a, makeSpec("fft", 64), makeResult(70, 20, 10, 100, 25));
    putSpec(b, makeSpec("qsort", 16), makeResult(70, 25, 5, 100, 30));
    putSpec(b, makeSpec("sha", 16), makeResult(60, 30, 10, 100, 30));

    DiffOptions opts;
    opts.axis = {"l1d_kb"};
    const SuiteDiffResult diff = SuiteDiff(a, b, opts).run();

    ASSERT_EQ(diff.deltas.size(), 1u);
    ASSERT_EQ(diff.onlyA.size(), 1u);
    ASSERT_EQ(diff.onlyB.size(), 1u);
    EXPECT_EQ(diff.onlyA[0].spec.strOr("workload", ""), "fft");
    EXPECT_EQ(diff.onlyB[0].spec.strOr("workload", ""), "sha");
    EXPECT_EQ(diff.campaignsA, 2u);
    EXPECT_EQ(diff.campaignsB, 2u);

    const CampaignDelta &d = diff.deltas[0];
    EXPECT_EQ(d.maskedSpec.strOr("workload", ""), "qsort");
    // The axis member is masked out of the join spec but recorded
    // per side.
    EXPECT_FALSE(d.maskedSpec.find("l1d_kb"));
    EXPECT_EQ(d.axisA.at("l1d_kb").asU64(), 64u);
    EXPECT_EQ(d.axisB.at("l1d_kb").asU64(), 16u);
    EXPECT_EQ(d.keyA, makeSpec("qsort", 64).key());
    EXPECT_EQ(d.keyB, makeSpec("qsort", 16).key());

    // Hand-checked deltas: AVF_A = 20/100, AVF_B = 30/100.
    EXPECT_DOUBLE_EQ(d.avfA, 0.20);
    EXPECT_DOUBLE_EQ(d.avfB, 0.30);
    EXPECT_EQ(d.dAvf, d.avfB - d.avfA); // exactly B - A, bit for bit
    EXPECT_EQ(d.dClasses[static_cast<unsigned>(Outcome::Masked)], -10);
    EXPECT_EQ(d.dClasses[static_cast<unsigned>(Outcome::SDC)], 10);
    EXPECT_EQ(d.dClasses[static_cast<unsigned>(Outcome::DUE)], 0);
    EXPECT_EQ(d.dInjections, 10);

    // The CI is the paper's sampling margin per side, combined in
    // quadrature: e = z(c) * sqrt(0.25 / initialFaults).
    const double e = stats::zForConfidence(opts.confidence) *
                     std::sqrt(0.25 / 100.0);
    ASSERT_TRUE(d.dAvfCi.has_value());
    EXPECT_DOUBLE_EQ(*d.dAvfCi, std::sqrt(2.0 * e * e));
}

// -------------------------------------------------- sampling margins

TEST(SamplingMargin, MatchesTheLeveugleFormula)
{
    const auto m = samplingMargin(100, 0.9);
    ASSERT_TRUE(m.has_value());
    EXPECT_DOUBLE_EQ(*m, stats::zForConfidence(0.9) *
                             std::sqrt(0.25 / 100.0));
    // More faults, tighter margin.
    EXPECT_LT(*samplingMargin(400, 0.9), *m);
}

TEST(SamplingMargin, ZeroFaultSideHasNoMarginNotZero)
{
    // A side with no sample has no margin at all — reporting 0 would
    // claim false certainty (the original sideMargin() bug).
    EXPECT_FALSE(samplingMargin(0, 0.998).has_value());
    EXPECT_FALSE(quadratureMargin(std::nullopt, 0.1).has_value());
    EXPECT_FALSE(quadratureMargin(0.1, std::nullopt).has_value());
    const auto q = quadratureMargin(0.3, 0.4);
    ASSERT_TRUE(q.has_value());
    EXPECT_DOUBLE_EQ(*q, 0.5);
}

/**
 * Regression: a joined pair with a zero-fault side (e.g. a
 * grouping-only campaign stored with initialFaults == 0 on one side)
 * must yield an ABSENT per-pair CI and an absent aggregate CI — never
 * inf/NaN, and never a false-certainty 0 — while the finite deltas
 * keep flowing.
 */
TEST(SamplingMargin, ZeroFaultPairPropagatesAbsenceIntoTheDiff)
{
    ResultStore a, b;
    putSpec(a, makeSpec("qsort", 64), makeResult(80, 15, 5, 100, 20));
    CampaignResult empty = makeResult(0, 0, 0, 100, 0);
    empty.initialFaults = 0; // the zero-fault side
    putSpec(b, makeSpec("qsort", 16), empty);

    DiffOptions opts;
    opts.axis = {"l1d_kb"};
    const SuiteDiffResult diff = SuiteDiff(a, b, opts).run();
    ASSERT_EQ(diff.deltas.size(), 1u);
    EXPECT_FALSE(diff.deltas[0].dAvfCi.has_value());
    EXPECT_FALSE(diff.meanDAvfCi.has_value());
    // Absent margins serialize as null and render as "-", without
    // poisoning anything else in the report.
    const Json doc = diff.toJson();
    EXPECT_TRUE(doc.at("deltas")[0].at("d_avf_ci").isNull());
    EXPECT_TRUE(doc.at("aggregate").at("mean_d_avf_ci").isNull());
    const std::string table = diff.table();
    EXPECT_NE(table.find("-"), std::string::npos);
    EXPECT_EQ(table.find("nan"), std::string::npos);
    EXPECT_EQ(table.find("inf"), std::string::npos);
}

TEST(SuiteDiff, EmptyAxisMeansExactJoin)
{
    ResultStore a, b;
    putSpec(a, makeSpec("qsort", 64), makeResult(80, 15, 5, 100, 20));
    putSpec(b, makeSpec("qsort", 64), makeResult(80, 15, 5, 100, 20));
    putSpec(b, makeSpec("qsort", 16), makeResult(70, 25, 5, 100, 30));

    const SuiteDiffResult diff = SuiteDiff(a, b, {}).run();
    ASSERT_EQ(diff.deltas.size(), 1u);
    EXPECT_DOUBLE_EQ(diff.deltas[0].dAvf, 0.0);
    ASSERT_EQ(diff.onlyB.size(), 1u);
    EXPECT_EQ(diff.onlyB[0].key, makeSpec("qsort", 16).key());
}

TEST(SuiteDiff, UnknownAxisKnobIsFatal)
{
    ResultStore a, b;
    EXPECT_THROW(SuiteDiff(a, b, DiffOptions{{"l1d_size"}, 0.998}),
                 FatalError);
    EXPECT_THROW(SuiteDiff(a, b, DiffOptions{{"l1d_kb"}, 1.5}),
                 FatalError);
}

TEST(SuiteDiff, AmbiguousJoinWithinOneStoreIsFatal)
{
    // Store A itself contains the sweep: qsort at 64 AND 32 KB both
    // collapse onto one join key once l1d_kb is masked.
    ResultStore a, b;
    putSpec(a, makeSpec("qsort", 64), makeResult(80, 15, 5, 100, 20));
    putSpec(a, makeSpec("qsort", 32), makeResult(75, 20, 5, 100, 22));
    putSpec(b, makeSpec("qsort", 16), makeResult(70, 25, 5, 100, 30));

    DiffOptions opts;
    opts.axis = {"l1d_kb"};
    EXPECT_THROW(SuiteDiff(a, b, opts).run(), FatalError);
    // Without masking the two entries are distinct: no ambiguity.
    EXPECT_NO_THROW(SuiteDiff(a, b, {}).run());
}

TEST(SuiteDiff, MultiKnobAxisMasksEveryListedMember)
{
    ResultStore a, b;
    CampaignSpec sa = makeSpec("qsort", 64);
    CampaignSpec sb = makeSpec("qsort", 16);
    sb.seed = 9; // second swept knob
    putSpec(a, sa, makeResult(80, 15, 5, 100, 20));
    putSpec(b, sb, makeResult(70, 25, 5, 100, 30));

    DiffOptions one;
    one.axis = {"l1d_kb"};
    EXPECT_TRUE(SuiteDiff(a, b, one).run().deltas.empty());

    DiffOptions both;
    both.axis = {"l1d_kb", "seed"};
    const SuiteDiffResult diff = SuiteDiff(a, b, both).run();
    ASSERT_EQ(diff.deltas.size(), 1u);
    EXPECT_EQ(diff.deltas[0].axisA.at("seed").asU64(), 7u);
    EXPECT_EQ(diff.deltas[0].axisB.at("seed").asU64(), 9u);
}

// ------------------------------------------- reliability invariants

/** Two-sided synthetic sweep with several campaigns for properties. */
void
buildSweep(ResultStore &a, ResultStore &b)
{
    putSpec(a, makeSpec("qsort", 64), makeResult(80, 15, 5, 100, 20));
    putSpec(a, makeSpec("fft", 64), makeResult(70, 20, 10, 120, 25));
    putSpec(a, makeSpec("sha", 64), makeResult(90, 8, 2, 80, 12));
    putSpec(b, makeSpec("qsort", 16), makeResult(70, 25, 5, 100, 30));
    putSpec(b, makeSpec("fft", 16), makeResult(60, 30, 10, 120, 33));
    putSpec(b, makeSpec("sha", 16), makeResult(85, 12, 3, 80, 16));
}

TEST(DiffInvariants, DiffAgainstItselfIsAllZero)
{
    ResultStore a, b;
    buildSweep(a, b);
    DiffOptions opts;
    opts.axis = {"l1d_kb"};
    const SuiteDiffResult self = SuiteDiff(a, a, opts).run();

    ASSERT_EQ(self.deltas.size(), a.entries().size());
    EXPECT_TRUE(self.onlyA.empty());
    EXPECT_TRUE(self.onlyB.empty());
    for (const CampaignDelta &d : self.deltas) {
        EXPECT_EQ(d.dAvf, 0.0);
        EXPECT_EQ(d.dInjections, 0);
        for (unsigned c = 0; c < faultsim::NUM_OUTCOMES; ++c) {
            EXPECT_EQ(d.dClasses[c], 0);
            EXPECT_EQ(d.dClassFracs[c], 0.0);
        }
        // Exactly +0.0, so the serialized report says "0", not "-0".
        EXPECT_FALSE(std::signbit(d.dAvf));
    }
    EXPECT_EQ(self.meanDAvf, 0.0);
    EXPECT_EQ(self.meanAbsDAvf, 0.0);
    for (unsigned c = 0; c < faultsim::NUM_OUTCOMES; ++c)
        EXPECT_EQ(self.dClassTotals[c], 0);
}

TEST(DiffInvariants, DiffIsAntisymmetric)
{
    ResultStore a, b;
    buildSweep(a, b);
    DiffOptions opts;
    opts.axis = {"l1d_kb"};
    const SuiteDiffResult ab = SuiteDiff(a, b, opts).run();
    const SuiteDiffResult ba = SuiteDiff(b, a, opts).run();

    ASSERT_EQ(ab.deltas.size(), 3u);
    ASSERT_EQ(ba.deltas.size(), ab.deltas.size());
    for (std::size_t i = 0; i < ab.deltas.size(); ++i) {
        const CampaignDelta &f = ab.deltas[i];
        const CampaignDelta &r = ba.deltas[i];
        EXPECT_EQ(f.joinKey, r.joinKey);
        // Sides swap...
        EXPECT_DOUBLE_EQ(f.avfA, r.avfB);
        EXPECT_DOUBLE_EQ(f.avfB, r.avfA);
        EXPECT_EQ(f.keyA, r.keyB);
        EXPECT_EQ(f.axisA.dump(), r.axisB.dump());
        // ...every delta negates...
        EXPECT_DOUBLE_EQ(f.dAvf, -r.dAvf);
        EXPECT_EQ(f.dInjections, -r.dInjections);
        for (unsigned c = 0; c < faultsim::NUM_OUTCOMES; ++c) {
            EXPECT_EQ(f.dClasses[c], -r.dClasses[c]);
            EXPECT_DOUBLE_EQ(f.dClassFracs[c], -r.dClassFracs[c]);
        }
        // ...and the uncertainty does not.
        ASSERT_TRUE(f.dAvfCi.has_value());
        ASSERT_TRUE(r.dAvfCi.has_value());
        EXPECT_DOUBLE_EQ(*f.dAvfCi, *r.dAvfCi);
    }
    EXPECT_DOUBLE_EQ(ab.meanDAvf, -ba.meanDAvf);
    EXPECT_DOUBLE_EQ(ab.meanAbsDAvf, ba.meanAbsDAvf);
    ASSERT_TRUE(ab.meanDAvfCi.has_value());
    ASSERT_TRUE(ba.meanDAvfCi.has_value());
    EXPECT_DOUBLE_EQ(*ab.meanDAvfCi, *ba.meanDAvfCi);
    for (unsigned c = 0; c < faultsim::NUM_OUTCOMES; ++c)
        EXPECT_EQ(ab.dClassTotals[c], -ba.dClassTotals[c]);
}

/**
 * End-to-end invariance on REAL campaigns: the serialized diff of two
 * sweep sides must not change with the job count that produced either
 * side, nor with the shard order a side was reassembled from.
 */
TEST(DiffInvariants, ReportInvariantToJobsAndShardOrder)
{
    const auto sideSpecs = [](unsigned l1d_kb) {
        std::vector<CampaignSpec> specs;
        for (const char *wl : {"qsort", "fft"}) {
            CampaignSpec s = makeSpec(wl, l1d_kb);
            s.sampling = core::specFixed(150);
            specs.push_back(std::move(s));
        }
        return specs;
    };
    const auto runSide = [&](unsigned l1d_kb, unsigned jobs) {
        const auto specs = sideSpecs(l1d_kb);
        SuiteOptions opts;
        opts.jobs = jobs;
        SuiteResult suite = SuiteScheduler(specs, opts).run();
        ResultStore store;
        for (std::size_t i = 0; i < specs.size(); ++i)
            store.put(specs[i].key(), specs[i].toJson(),
                      suite.results[i]);
        return store;
    };

    DiffOptions dopts;
    dopts.axis = {"l1d_kb"};
    const auto diffDump = [&](const ResultStore &a,
                              const ResultStore &b) {
        return SuiteDiff(a, b, dopts).run().toJson().dump(2);
    };

    const ResultStore a1 = runSide(64, 1);
    const ResultStore a4 = runSide(64, 4);
    const ResultStore b1 = runSide(16, 1);
    const ResultStore b4 = runSide(16, 4);

    const std::string ref = diffDump(a1, b1);
    EXPECT_FALSE(ref.empty());
    EXPECT_EQ(ref, diffDump(a4, b4)) << "--jobs leaked into the diff";
    EXPECT_EQ(ref, diffDump(a1, b4));
    EXPECT_EQ(ref, diffDump(a4, b1));

    // Shard-order invariance: rebuild side A by merging its entries
    // in reversed order; the diff must not move.
    ResultStore reassembled;
    std::vector<std::pair<std::string, ResultStore::Entry>> entries(
        a1.entries().begin(), a1.entries().end());
    std::reverse(entries.begin(), entries.end());
    for (const auto &[key, entry] : entries) {
        ResultStore one;
        one.put(key, entry.spec,
                io::resultFromJson(entry.result));
        reassembled.merge(one);
    }
    EXPECT_EQ(ref, diffDump(reassembled, b1))
        << "shard order leaked into the diff";
    // And the human table is equally order-blind.
    EXPECT_EQ(SuiteDiff(a1, b1, dopts).run().table(),
              SuiteDiff(reassembled, b4, dopts).run().table());
}

// ------------------------------------------------- golden report

/**
 * Byte-for-byte lock on the serialized diff-report format, so a
 * format change has to be deliberate (regenerate by copying the
 * *_actual.json file the failure message names into tests/golden/).
 *
 * The fixture uses confidence 0.9 on purpose: its normal quantile
 * evaluates on the rational-polynomial central branch — pure
 * IEEE-deterministic arithmetic (+ sqrt), no libm log() whose last
 * ulp could vary across hosts.
 */
TEST(DiffGolden, ReportBytesMatchCommittedGolden)
{
    ResultStore a, b;
    buildSweep(a, b);
    DiffOptions opts;
    opts.axis = {"l1d_kb"};
    opts.confidence = 0.9;
    // An unpaired campaign on each side, so the golden locks the
    // only_a/only_b shape too.
    putSpec(a, makeSpec("susan", 64), makeResult(88, 9, 3, 90, 14));
    putSpec(b, makeSpec("jpeg", 16), makeResult(66, 28, 6, 90, 28));

    const std::string actual =
        SuiteDiff(a, b, opts).run().toJson().dump(2) + "\n";

    const std::string goldenPath = std::string(MERLIN_SOURCE_DIR) +
                                   "/tests/golden/diff_report.json";
    const std::string actualPath =
        testing::TempDir() + "diff_report_actual.json";
    std::ofstream(actualPath, std::ios::trunc) << actual;

    std::ifstream in(goldenPath);
    ASSERT_TRUE(in.good())
        << "missing golden file " << goldenPath
        << "; seed it from " << actualPath;
    std::stringstream golden;
    golden << in.rdbuf();
    EXPECT_EQ(golden.str(), actual)
        << "diff report format changed; if deliberate, copy "
        << actualPath << " over " << goldenPath;
}

} // namespace
} // namespace merlin::sched
