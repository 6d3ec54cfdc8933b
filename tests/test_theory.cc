/**
 * @file
 * Tests for the Section 4.4.5 statistical model: mean preservation,
 * variance formulas, the max-group-size inflation bound, and an
 * empirical cross-check against real campaigns.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "base/statistics.hh"
#include "merlin/campaign.hh"
#include "merlin/theory.hh"
#include "workloads/workloads.hh"

namespace merlin::core
{
namespace
{

TEST(Theory, HandComputedExample)
{
    // F = 100; groups: (s=10, p=1.0), (s=5, p=0.2), pruned remainder 85.
    std::vector<GroupModel> groups = {{10, 1.0}, {5, 0.2}};
    auto m = avfMoments(groups, 100);
    // E(k) = (10*1 + 5*0.2) / 100 = 0.11
    EXPECT_DOUBLE_EQ(m.meanComprehensive, 0.11);
    EXPECT_DOUBLE_EQ(m.meanMerlin, 0.11);
    // Var(k) = (10*1*0 + 5*0.2*0.8) / 100^2 = 0.8 / 10000
    EXPECT_DOUBLE_EQ(m.varComprehensive, 0.8 / 10000);
    // Var(k_MeRLiN) = (100*0 + 25*0.16) / 10000 = 4 / 10000
    EXPECT_DOUBLE_EQ(m.varMerlin, 4.0 / 10000);
    EXPECT_EQ(m.maxGroupSize, 10u);
}

TEST(Theory, PerfectHomogeneityHasZeroVariance)
{
    // p_i in {0, 1} => both variances vanish: MeRLiN is then *exact*.
    std::vector<GroupModel> groups = {{50, 1.0}, {30, 0.0}, {20, 1.0}};
    auto m = avfMoments(groups, 200);
    EXPECT_DOUBLE_EQ(m.varComprehensive, 0.0);
    EXPECT_DOUBLE_EQ(m.varMerlin, 0.0);
    EXPECT_DOUBLE_EQ(m.meanComprehensive, 70.0 / 200);
}

TEST(Theory, VarianceInflationBoundedByMaxGroupSize)
{
    Rng rng(3);
    std::vector<GroupModel> groups;
    std::uint64_t total = 500; // pruned part
    for (int i = 0; i < 40; ++i) {
        GroupModel g;
        g.size = 1 + rng.nextBelow(20);
        g.pNonMasked = rng.nextDouble();
        total += g.size;
        groups.push_back(g);
    }
    auto m = avfMoments(groups, total);
    EXPECT_GT(m.varMerlin, 0.0);
    // sum s_i^2 q_i <= max(s) * sum s_i q_i
    EXPECT_LE(m.varMerlin,
              static_cast<double>(m.maxGroupSize) * m.varComprehensive +
                  1e-15);
    // and never below the comprehensive variance (s_i >= 1).
    EXPECT_GE(m.varMerlin, m.varComprehensive - 1e-15);
}

TEST(Theory, SingletonGroupsReduceToBinomial)
{
    // All groups of size 1: MeRLiN == comprehensive campaign exactly.
    std::vector<GroupModel> groups;
    for (int i = 0; i < 100; ++i)
        groups.push_back({1, (i % 10) / 10.0});
    auto m = avfMoments(groups, 1000);
    EXPECT_DOUBLE_EQ(m.varMerlin, m.varComprehensive);
}

TEST(Theory, CampaignModelMatchesMeasuredTruth)
{
    // E(k) computed from the measured group structure must equal the
    // measured ground-truth AVF (it is literally the same sum).
    auto w = workloads::buildWorkload("fft");
    CampaignConfig cfg;
    cfg.target = uarch::Structure::RegisterFile;
    cfg.core = cfg.core.withRegisterFile(128);
    cfg.sampling = specFixed(1000);
    Campaign camp(w.program, cfg);
    auto r = camp.run(CampaignMode::Truth);
    ASSERT_FALSE(r.groupModels.empty());

    auto m = avfMoments(r.groupModels, r.initialFaults);
    EXPECT_NEAR(m.meanComprehensive, r.fullTruth().avf(), 1e-12);
    // Variance stays orders of magnitude below the mean (paper's
    // conclusion); guard the ratio loosely for the scaled campaign.
    if (m.varMerlin > 0) {
        EXPECT_GT(m.meanComprehensive / m.varMerlin, 100.0);
    }
}

TEST(Theory, EmpiricalMeanPreservation)
{
    // Across seeds, the average MeRLiN estimate tracks the average
    // ground truth (unbiasedness).
    auto w = workloads::buildWorkload("stringsearch");
    std::vector<double> est, truth;
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        CampaignConfig cfg;
        cfg.target = uarch::Structure::RegisterFile;
        cfg.core = cfg.core.withRegisterFile(128);
        cfg.sampling = specFixed(800);
        cfg.seed = seed;
        Campaign camp(w.program, cfg);
        auto r = camp.run(CampaignMode::Truth);
        est.push_back(r.merlinEstimate.avf());
        truth.push_back(r.fullTruth().avf());
    }
    EXPECT_NEAR(stats::mean(est), stats::mean(truth), 0.01);
}

} // namespace
} // namespace merlin::core
