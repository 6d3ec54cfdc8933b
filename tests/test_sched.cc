/**
 * @file
 * Suite-scheduler tests: spec hashing/serialization, manifest parsing,
 * the store-backed cache-hit/resume path, agreement with directly-run
 * campaigns, and the headline determinism property — byte-identical
 * suite output for any job count and any spec order.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "base/logging.hh"
#include "io/result_store.hh"
#include "mutants.hh"
#include "sched/suite.hh"
#include "workloads/workloads.hh"

namespace merlin::sched
{
namespace
{

using io::Json;

// ------------------------------------------------------ CampaignSpec

TEST(CampaignSpec, KeyIsAPureFunctionOfTheSpecValue)
{
    CampaignSpec a;
    a.workload = "qsort";
    CampaignSpec b;
    b.workload = "qsort";
    EXPECT_EQ(a.key(), b.key());
    EXPECT_TRUE(a == b);
    EXPECT_EQ(a.key().size(), 16u);
}

TEST(CampaignSpec, EveryFieldChangesTheKey)
{
    CampaignSpec base;
    base.workload = "qsort";
    const std::string k = base.key();

    CampaignSpec s = base;
    s.workload = "fft";
    EXPECT_NE(s.key(), k);
    s = base;
    s.structure = uarch::Structure::StoreQueue;
    EXPECT_NE(s.key(), k);
    s = base;
    s.regs = 128;
    EXPECT_NE(s.key(), k);
    s = base;
    s.window = 1000;
    EXPECT_NE(s.key(), k);
    s = base;
    s.sampling = core::specFixed(99);
    EXPECT_NE(s.key(), k);
    s = base;
    s.seed = 2;
    EXPECT_NE(s.key(), k);
    s = base;
    s.mode = CampaignSpec::Mode::Truth;
    EXPECT_NE(s.key(), k);
    s = base;
    s.relyzer = true;
    EXPECT_NE(s.key(), k);
    s = base;
    s.grouping.maxGroupSize = 7;
    EXPECT_NE(s.key(), k);
    s = base;
    s.timeoutFactor = 4;
    EXPECT_NE(s.key(), k);
}

TEST(CampaignSpec, JsonRoundTrip)
{
    CampaignSpec s;
    s.workload = "sha";
    s.structure = uarch::Structure::L1DCache;
    s.regs = 128;
    s.sqEntries = 16;
    s.l1dKb = 32;
    s.window = 5000;
    s.sampling = core::specFixed(1234);
    s.grouping.split = core::GroupingOptions::Split::Nibble;
    s.grouping.maxGroupSize = 50;
    s.grouping.repsPerGroup = 3;
    s.seed = 99;
    s.timeoutFactor = 5;
    s.mode = CampaignSpec::Mode::Truth;
    s.relyzer = true;
    s.pathDepth = 7;

    const CampaignSpec r = CampaignSpec::fromJson(
        Json::parse(s.toJson().dump()));
    EXPECT_TRUE(s == r);
    EXPECT_EQ(s.key(), r.key());
}

TEST(CampaignSpec, StatisticalSamplingRoundTrips)
{
    CampaignSpec s;
    s.workload = "fft";
    s.sampling.confidence = 0.99;
    s.sampling.errorMargin = 0.01;
    const CampaignSpec r = CampaignSpec::fromJson(
        Json::parse(s.toJson().dump()));
    EXPECT_FALSE(r.sampling.fixedCount.has_value());
    EXPECT_DOUBLE_EQ(r.sampling.confidence, 0.99);
    EXPECT_DOUBLE_EQ(r.sampling.errorMargin, 0.01);
}

TEST(Manifest, DefaultsMergeIntoEveryCampaign)
{
    const Json m = Json::parse(R"({
        "defaults": {"faults": 500, "seed": 3, "structure": "sq"},
        "campaigns": [
            {"workload": "qsort"},
            {"workload": "fft", "structure": "rf", "seed": 4}
        ]})");
    const auto specs = parseManifest(m);
    ASSERT_EQ(specs.size(), 2u);
    EXPECT_EQ(specs[0].workload, "qsort");
    EXPECT_EQ(specs[0].structure, uarch::Structure::StoreQueue);
    EXPECT_EQ(specs[0].sampling.fixedCount, 500u);
    EXPECT_EQ(specs[0].seed, 3u);
    EXPECT_EQ(specs[1].structure, uarch::Structure::RegisterFile);
    EXPECT_EQ(specs[1].seed, 4u);
    EXPECT_EQ(specs[1].sampling.fixedCount, 500u);
}

TEST(Manifest, CampaignSamplingStyleOverridesDefaultsStyle)
{
    // defaults fix a fault count; one campaign opts into statistical
    // sampling instead — its choice must not be shadowed by the
    // inherited 'faults'.
    const Json m = Json::parse(R"({
        "defaults": {"faults": 2000},
        "campaigns": [
            {"workload": "qsort"},
            {"workload": "fft", "confidence": 0.99,
             "error_margin": 0.01},
            {"workload": "sha", "faults": 50}
        ]})");
    const auto specs = parseManifest(m);
    ASSERT_EQ(specs.size(), 3u);
    EXPECT_EQ(specs[0].sampling.fixedCount, 2000u);
    EXPECT_FALSE(specs[1].sampling.fixedCount.has_value());
    EXPECT_DOUBLE_EQ(specs[1].sampling.confidence, 0.99);
    EXPECT_DOUBLE_EQ(specs[1].sampling.errorMargin, 0.01);
    EXPECT_EQ(specs[2].sampling.fixedCount, 50u);
}

TEST(Manifest, IntegralDoublesAreAcceptedForIntegerKnobs)
{
    const Json m = Json::parse(R"({
        "campaigns": [{"workload": "qsort", "regs": 128.0,
                       "faults": 2e3}]})");
    const auto specs = parseManifest(m);
    ASSERT_EQ(specs.size(), 1u);
    EXPECT_EQ(specs[0].regs, 128u);
    EXPECT_EQ(specs[0].sampling.fixedCount, 2000u);
}

/** parseManifest of one campaign entry must fail, naming @p member. */
void
expectRejected(const std::string &entry, const std::string &member)
{
    try {
        parseManifest(Json::parse("{\"campaigns\":[{\"workload\":"
                                  "\"qsort\"," + entry + "}]}"));
        ADD_FAILURE() << entry << " was accepted";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find(member), std::string::npos)
            << entry << ": " << e.what();
    }
}

TEST(Manifest, RejectsTyposAndMissingFields)
{
    EXPECT_THROW(parseManifest(Json::parse("[]")), FatalError);
    EXPECT_THROW(parseManifest(Json::parse("{\"campaigns\":[]}")),
                 FatalError);
    // Unknown member: almost certainly a misspelled knob.
    expectRejected("\"fautls\":5", "fautls");
    // Engine knobs never change an outcome, so they are not spec
    // members (they are faultsim::RunnerOptions defaults).
    for (const char *knob : {"early_exit", "replay", "mem_chunk_bytes",
                             "checkpoint_interval", "max_checkpoints"})
        expectRejected("\"" + std::string(knob) + "\":1", knob);
    // Campaign without a workload.
    EXPECT_THROW(
        parseManifest(Json::parse("{\"campaigns\":[{\"seed\":1}]}")),
        FatalError);
    // Values that would narrow or wrap silently, or that the core and
    // cache would only reject mid-suite, fail at parse time by name.
    expectRejected("\"regs\":4294967424", "regs");
    expectRejected("\"regs\":0", "regs");
    expectRejected("\"regs\":34", "regs");
    expectRejected("\"regs\":65536", "regs");
    expectRejected("\"l1d_kb\":4194305", "l1d_kb");
    expectRejected("\"l1d_kb\":0", "l1d_kb");
    // Past the fault key's 2^18 entries (a 2 MB L1D).
    expectRejected("\"l1d_kb\":4096", "l1d_kb");
    expectRejected("\"sq_entries\":0", "sq_entries");
    expectRejected("\"sq_entries\":4294967296", "sq_entries");
    for (const char *member : {"max_group_size", "reps_per_group",
                               "timeout_factor", "path_depth"})
        expectRejected("\"" + std::string(member) + "\":4294967296",
                       member);
    // Sampling fractions outside (0, 1) would trip the statistics
    // library's domain assertions mid-suite.
    expectRejected("\"error_margin\":0", "error_margin");
    expectRejected("\"error_margin\":-1", "error_margin");
    expectRejected("\"error_margin\":1", "error_margin");
    expectRejected("\"confidence\":1.5", "confidence");
    expectRejected("\"confidence\":0", "confidence");
    // 0 is clamped to 1 inside the library: accepting it would give one
    // computation two store keys.
    for (const char *member :
         {"max_group_size", "reps_per_group", "timeout_factor"})
        expectRejected("\"" + std::string(member) + "\":0", member);
    // A fixed count of 0 samples nothing: no measurement to store.
    expectRejected("\"faults\":0", "faults");
    // A present member of the wrong type is refused, not read as its
    // default (which would store the campaign under the default's key).
    expectRejected("\"sq_entries\":\"8\"", "sq_entries");
    expectRejected("\"seed\":-3", "seed");
    expectRejected("\"mode\":1", "mode");
    expectRejected("\"relyzer\":\"yes\"", "relyzer");
    expectRejected("\"structure\":1", "structure");
    expectRejected("\"split\":3", "split");
    expectRejected("\"window\":\"100\"", "window");
    expectRejected("\"faults\":\"5\"", "faults");
    expectRejected("\"confidence\":\"0.9\"", "confidence");
    expectRejected("\"seed\":1.5", "seed");
    try {
        parseManifest(Json::parse("{\"campaigns\":[{\"workload\":5}]}"));
        ADD_FAILURE() << "a numeric workload was accepted";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("workload 5"),
                  std::string::npos)
            << e.what();
    }
    // Both sampling styles in one entry: neither may silently win.
    expectRejected("\"faults\":5,\"confidence\":0.9", "faults");
    // The edges of the accepted ranges still parse.
    const auto specs = parseManifest(Json::parse(
        "{\"campaigns\":[{\"workload\":\"qsort\",\"regs\":35,"
        "\"sq_entries\":1,\"l1d_kb\":1}]}"));
    ASSERT_EQ(specs.size(), 1u);
    EXPECT_EQ(specs[0].regs, 35u);
    EXPECT_EQ(specs[0].l1dKb, 1u);
    const auto top = parseManifest(Json::parse(
        "{\"campaigns\":[{\"workload\":\"qsort\",\"l1d_kb\":2048}]}"));
    ASSERT_EQ(top.size(), 1u);
    EXPECT_EQ(top[0].l1dKb, 2048u);
}

/**
 * Every prefix and bit flip of a whole manifest, defaults merge
 * included, either parses or fails with FatalError: no other
 * exception escapes the manifest or the spec parser.
 */
TEST(ManifestFuzz, MutantsParseOrFailCleanly)
{
    const std::string doc = R"({
  "defaults": {"faults": 400, "seed": 11, "window": 0, "regs": 128},
  "campaigns": [
    {"workload": "qsort", "structure": "rf"},
    {"workload": "fft", "structure": "sq", "sq_entries": 16},
    {"workload": "sha", "structure": "l1d", "l1d_kb": 16,
     "mode": "truth", "relyzer": true, "path_depth": 2}
  ]
})";
    const auto parse = [](const std::string &bytes) {
        parseManifest(Json::parse(bytes));
    };
    ASSERT_EQ(parseManifest(Json::parse(doc)).size(), 3u);

    const test::MutantTally prefixes = test::feedPrefixes(doc, parse);
    EXPECT_EQ(prefixes.accepted, 0u);
    EXPECT_EQ(prefixes.rejected, doc.size());
    const test::MutantTally flips = test::feedBitFlips(doc, parse);
    EXPECT_GT(flips.accepted, 0u);
    EXPECT_GT(flips.rejected, 0u);
    EXPECT_EQ(flips.accepted + flips.rejected, doc.size() * 8);
}

// ---------------------------------------------------- SuiteScheduler

/** The test suite: 4 small campaigns spanning modes and structures. */
std::vector<CampaignSpec>
testSpecs()
{
    std::vector<CampaignSpec> specs;
    CampaignSpec s;
    s.workload = "qsort";
    s.structure = uarch::Structure::RegisterFile;
    s.regs = 128;
    s.window = 0;
    s.sampling = core::specFixed(150);
    s.seed = 7;
    s.mode = CampaignSpec::Mode::Truth;
    specs.push_back(s);

    s = CampaignSpec{};
    s.workload = "fft";
    s.structure = uarch::Structure::RegisterFile;
    s.window = 0;
    s.sampling = core::specFixed(200);
    s.seed = 7;
    specs.push_back(s);

    s = CampaignSpec{};
    s.workload = "fft";
    s.structure = uarch::Structure::StoreQueue;
    s.sqEntries = 16;
    s.window = 0;
    s.sampling = core::specFixed(200);
    s.seed = 7;
    specs.push_back(s);

    s = CampaignSpec{};
    s.workload = "stringsearch";
    s.structure = uarch::Structure::RegisterFile;
    s.window = 0;
    s.sampling = core::specFixed(2000);
    s.seed = 7;
    s.mode = CampaignSpec::Mode::GroupingOnly;
    specs.push_back(s);
    return specs;
}

std::string
storeBytes(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good());
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

class SuiteFixture : public ::testing::Test
{
  protected:
    std::string
    storePath(const char *name)
    {
        std::string p =
            testing::TempDir() + "merlin_suite_" + name + ".json";
        created_.push_back(p);
        return p;
    }

    void
    TearDown() override
    {
        for (const std::string &p : created_)
            std::remove(p.c_str());
    }

    std::vector<std::string> created_;
};

TEST_F(SuiteFixture, MatchesDirectlyRunCampaigns)
{
    const auto specs = testSpecs();
    SuiteOptions opts;
    opts.jobs = 2;
    SuiteResult suite = SuiteScheduler(specs, opts).run();
    ASSERT_EQ(suite.results.size(), specs.size());
    EXPECT_EQ(suite.campaignsRun, specs.size());

    for (std::size_t i = 0; i < specs.size(); ++i) {
        auto w = workloads::buildWorkload(specs[i].workload);
        core::Campaign camp(w.program, specs[i].campaignConfig(w));
        const core::CampaignResult direct = camp.run(specs[i].mode);
        EXPECT_EQ(suite.results[i].merlinEstimate.counts,
                  direct.merlinEstimate.counts)
            << "campaign " << i;
        EXPECT_EQ(suite.results[i].injections, direct.injections);
        EXPECT_EQ(suite.results[i].survivors, direct.survivors);
        if (direct.survivorTruth) {
            ASSERT_TRUE(suite.results[i].survivorTruth);
            EXPECT_EQ(suite.results[i].survivorTruth->counts,
                      direct.survivorTruth->counts);
        }
    }
}

/**
 * The acceptance property: a suite of >= 4 campaigns produces
 * byte-identical serialized results for jobs 1 vs 4 and for a
 * shuffled spec order.
 */
TEST_F(SuiteFixture, ByteIdenticalAcrossJobsAndSpecOrder)
{
    const auto specs = testSpecs();
    ASSERT_GE(specs.size(), 4u);

    // Results hold outcomes only, so whole store files compare: no
    // wall-clock or engine field can differ between runs.
    SuiteOptions opts;
    opts.jobs = 1;
    opts.storePath = storePath("j1");
    SuiteScheduler(specs, opts).run();

    opts.jobs = 4;
    opts.storePath = storePath("j4");
    SuiteScheduler(specs, opts).run();

    // Shuffled order (deterministically), still 4 jobs.
    auto shuffled = specs;
    std::rotate(shuffled.begin(), shuffled.begin() + 2, shuffled.end());
    std::swap(shuffled[0], shuffled[1]);
    opts.storePath = storePath("shuf");
    SuiteScheduler(shuffled, opts).run();

    const std::string j1 = storeBytes(created_[0]);
    EXPECT_FALSE(j1.empty());
    EXPECT_EQ(j1, storeBytes(created_[1])) << "jobs 1 vs 4 differ";
    EXPECT_EQ(j1, storeBytes(created_[2])) << "spec order leaked in";
}

TEST_F(SuiteFixture, ResumeServesCachedResultsWithoutRerunning)
{
    const auto specs = testSpecs();
    SuiteOptions opts;
    opts.jobs = 2;
    opts.storePath = storePath("resume");
    opts.reuseCached = true;

    SuiteResult first = SuiteScheduler(specs, opts).run();
    EXPECT_EQ(first.campaignsRun, specs.size());

    SuiteResult second = SuiteScheduler(specs, opts).run();
    EXPECT_EQ(second.campaignsRun, 0u);
    for (std::size_t i = 0; i < specs.size(); ++i) {
        EXPECT_TRUE(second.cached[i]);
        EXPECT_EQ(second.results[i].merlinEstimate.counts,
                  first.results[i].merlinEstimate.counts);
    }

    // Prove the cache is authoritative: doctor one stored entry and
    // watch the doctored value come back instead of a re-run.
    io::ResultStore store(opts.storePath);
    ASSERT_TRUE(store.load());
    core::CampaignResult doctored = first.results[0];
    doctored.injections = 424242;
    store.put(specs[0].key(), specs[0].toJson(), doctored);
    store.save();

    SuiteResult third = SuiteScheduler(specs, opts).run();
    EXPECT_EQ(third.campaignsRun, 0u);
    EXPECT_EQ(third.results[0].injections, 424242u);
}

TEST_F(SuiteFixture, PartialStoreResumesOnlyTheMissingCampaigns)
{
    const auto specs = testSpecs();
    SuiteOptions opts;
    opts.jobs = 2;
    opts.storePath = storePath("partial");
    opts.reuseCached = true;

    // Simulate an interrupted run: only the first two campaigns made
    // it into the store.
    SuiteResult full = SuiteScheduler(specs, opts).run();
    io::ResultStore store(opts.storePath);
    ASSERT_TRUE(store.load());
    io::ResultStore partial(opts.storePath);
    core::CampaignResult r;
    for (int i = 0; i < 2; ++i) {
        ASSERT_TRUE(store.lookup(specs[static_cast<std::size_t>(i)].key(), r));
        partial.put(specs[static_cast<std::size_t>(i)].key(),
                    specs[static_cast<std::size_t>(i)].toJson(), r);
    }
    partial.save();

    SuiteResult resumed = SuiteScheduler(specs, opts).run();
    EXPECT_EQ(resumed.campaignsRun, specs.size() - 2);
    EXPECT_TRUE(resumed.cached[0]);
    EXPECT_TRUE(resumed.cached[1]);
    EXPECT_FALSE(resumed.cached[2]);
    EXPECT_FALSE(resumed.cached[3]);
    for (std::size_t i = 0; i < specs.size(); ++i) {
        EXPECT_EQ(resumed.results[i].merlinEstimate.counts,
                  full.results[i].merlinEstimate.counts);
    }
}

TEST_F(SuiteFixture, UnknownWorkloadFailsTheSuite)
{
    CampaignSpec s;
    s.workload = "no_such_workload";
    s.sampling = core::specFixed(10);
    SuiteOptions opts;
    opts.jobs = 2;
    EXPECT_THROW(SuiteScheduler({s}, opts).run(), std::exception);
}

} // namespace
} // namespace merlin::sched
