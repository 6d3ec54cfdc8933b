/**
 * @file
 * Distributed-suite tests: SpecSelector parsing and partition laws
 * (disjoint + complete; an empty share is refused), and the headline
 * scatter/gather property — per-worker stores of the filtered spec
 * lists, merged back, are byte-identical to the single-host store for
 * any worker count, job count and gather order, including workers
 * resumed from a copied single-host store.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "base/logging.hh"
#include "io/result_store.hh"
#include "sched/selector.hh"
#include "sched/suite.hh"

namespace merlin::sched
{
namespace
{

using io::Json;

// ------------------------------------------------------ SpecSelector

TEST(SpecSelector, ParsesStrictIOverN)
{
    const auto s = SpecSelector::parse("2/5");
    EXPECT_EQ(s.index, 2u);
    EXPECT_EQ(s.count, 5u);
    EXPECT_EQ(s.describe(), "2/5");
}

TEST(SpecSelector, RejectsGarbageAndOutOfRange)
{
    const auto parse = [](const char *text) {
        return SpecSelector::parse(text);
    };
    // i >= n and n == 0 are usage errors, not empty selections.
    EXPECT_THROW(parse("3/3"), FatalError);
    EXPECT_THROW(parse("5/3"), FatalError);
    EXPECT_THROW(parse("0/0"), FatalError);
    // Not i/n at all.
    EXPECT_THROW(parse(""), FatalError);
    EXPECT_THROW(parse("1"), FatalError);
    EXPECT_THROW(parse("1/"), FatalError);
    EXPECT_THROW(parse("/3"), FatalError);
    EXPECT_THROW(parse("1/2/3"), FatalError);
    // The strict integer rules: sign, whitespace, junk, overflow.
    EXPECT_THROW(parse("-1/3"), FatalError);
    EXPECT_THROW(parse("+1/3"), FatalError);
    EXPECT_THROW(parse(" 1/3"), FatalError);
    EXPECT_THROW(parse("1/3x"), FatalError);
    EXPECT_THROW(parse("0x1/3"), FatalError);
    EXPECT_THROW(parse("1/99999999999999999999"), FatalError);
}

/** A spread of distinct specs, cheap to hash (never run). */
std::vector<CampaignSpec>
manySpecs(std::size_t n)
{
    std::vector<CampaignSpec> specs;
    for (std::size_t i = 0; i < n; ++i) {
        CampaignSpec s;
        s.workload = i % 2 ? "fft" : "qsort";
        s.seed = i + 1;
        specs.push_back(s);
    }
    return specs;
}

TEST(SpecSelector, PartitionIsDisjointAndComplete)
{
    const auto specs = manySpecs(23);
    for (std::uint64_t n : {1u, 2u, 3u, 5u}) {
        std::map<std::string, unsigned> owners;
        for (std::uint64_t w = 0; w < n; ++w) {
            for (const CampaignSpec &spec :
                 selectSpecs(specs, SpecSelector{w, n}))
                ++owners[spec.key()];
        }
        // Every spec belongs to exactly one worker.
        ASSERT_EQ(owners.size(), specs.size()) << "n " << n;
        for (const CampaignSpec &spec : specs)
            EXPECT_EQ(owners[spec.key()], 1u) << "n " << n;
    }
}

TEST(SpecSelector, EmptyShareIsFatalAndNamesTheManifestSize)
{
    // A worker past the manifest's end would write no store, and the
    // gather step would then fail on a missing file instead.
    const auto specs = manySpecs(2);
    EXPECT_EQ(selectSpecs(specs, SpecSelector{1, 2}).size(), 1u);
    try {
        selectSpecs(specs, SpecSelector{2, 3});
        FAIL() << "an empty share must be fatal";
    } catch (const FatalError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("selection 2/3"), std::string::npos) << msg;
        EXPECT_NE(msg.find("2-campaign manifest"), std::string::npos)
            << msg;
    }
}

// ------------------------------------------- scatter/gather suites

/** Four small campaigns spanning structures — fast enough to run the
 *  partition matrix below. */
std::vector<CampaignSpec>
suiteSpecs()
{
    std::vector<CampaignSpec> specs;
    CampaignSpec s;
    s.workload = "qsort";
    s.structure = uarch::Structure::RegisterFile;
    s.regs = 128;
    s.window = 0;
    s.sampling = core::specFixed(120);
    s.seed = 9;
    specs.push_back(s);

    s = CampaignSpec{};
    s.workload = "fft";
    s.structure = uarch::Structure::RegisterFile;
    s.window = 0;
    s.sampling = core::specFixed(120);
    s.seed = 9;
    specs.push_back(s);

    s = CampaignSpec{};
    s.workload = "qsort";
    s.structure = uarch::Structure::StoreQueue;
    s.sqEntries = 16;
    s.window = 0;
    s.sampling = core::specFixed(120);
    s.seed = 9;
    specs.push_back(s);

    s = CampaignSpec{};
    s.workload = "fft";
    s.structure = uarch::Structure::StoreQueue;
    s.sqEntries = 16;
    s.window = 0;
    s.sampling = core::specFixed(120);
    s.seed = 9;
    specs.push_back(s);
    return specs;
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

class DispatchFixture : public ::testing::Test
{
  protected:
    /** A scratch store path, removed (with its journal directory) on
     *  teardown. */
    std::string
    scratch(const std::string &name)
    {
        const std::string p = testing::TempDir() + "merlin_sel_" + name;
        created_.push_back(p);
        created_.push_back(p + ".journal");
        return p;
    }

    void
    TearDown() override
    {
        for (const std::string &p : created_) {
            std::error_code ec;
            std::filesystem::remove_all(p, ec);
        }
    }

    std::vector<std::string> created_;
};

/** Merge @p stores in order into @p path; @return the merged bytes. */
std::string
mergedBytes(const std::vector<std::string> &stores, const std::string &path)
{
    io::ResultStore merged(path);
    io::mergeStoreFiles(merged, stores);
    merged.save();
    return fileBytes(path);
}

/**
 * The acceptance property: split the suite --select i/n across n
 * "workers", each running its filtered spec list into its own store;
 * merging the worker stores (in forward or reverse gather order)
 * reproduces the single-host store byte-for-byte, for n in {1,2,3} x
 * jobs in {1,4}.
 */
TEST_F(DispatchFixture, MergedWorkerShardsMatchSingleHostBytes)
{
    const auto specs = suiteSpecs();

    SuiteOptions ref_opts;
    ref_opts.jobs = 2;
    ref_opts.storePath = scratch("ref.json");
    SuiteScheduler(specs, ref_opts).run();
    const std::string ref = fileBytes(ref_opts.storePath);

    for (std::uint64_t n : {1u, 2u, 3u}) {
        for (unsigned jobs : {1u, 4u}) {
            const std::string tag =
                std::to_string(n) + "_" + std::to_string(jobs);
            std::vector<std::string> worker_stores;
            std::size_t selected_total = 0;
            for (std::uint64_t w = 0; w < n; ++w) {
                const auto share = selectSpecs(specs, SpecSelector{w, n});
                selected_total += share.size();
                SuiteOptions opts;
                opts.jobs = jobs;
                opts.storePath =
                    scratch(tag + "_w" + std::to_string(w) + ".json");
                SuiteScheduler(share, opts).run();
                worker_stores.push_back(opts.storePath);
            }
            EXPECT_EQ(selected_total, specs.size())
                << tag << ": shares are not a partition";

            // Gather forward and reverse: same bytes either way.
            for (const bool reverse : {false, true}) {
                auto inputs = worker_stores;
                if (reverse)
                    std::reverse(inputs.begin(), inputs.end());
                EXPECT_EQ(mergedBytes(inputs,
                                      scratch(tag +
                                              (reverse ? "_rev" : "_fwd") +
                                              ".json")),
                          ref)
                    << tag << (reverse ? " reverse" : " forward");
            }
        }
    }
}

/**
 * --select x --resume: a worker resuming from a store seeded with the
 * FULL single-host store serves its whole share from the cache with no
 * runs, and the worker stores still merge to the single-host bytes —
 * the entries outside a worker's share are identical duplicates, which
 * merge folds away.
 */
TEST_F(DispatchFixture, ResumeSkipsForeignEntriesInsteadOfRespilling)
{
    const auto specs = suiteSpecs();

    SuiteOptions ref_opts;
    ref_opts.jobs = 2;
    ref_opts.storePath = scratch("seed_ref.json");
    SuiteScheduler(specs, ref_opts).run();
    const std::string ref = fileBytes(ref_opts.storePath);

    std::vector<std::string> worker_stores;
    for (std::uint64_t w = 0; w < 2; ++w) {
        SuiteOptions opts;
        opts.jobs = 2;
        opts.reuseCached = true;
        opts.storePath =
            scratch("seed_w" + std::to_string(w) + ".json");
        std::filesystem::copy_file(ref_opts.storePath, opts.storePath);

        const auto share = selectSpecs(specs, SpecSelector{w, 2});
        SuiteResult r = SuiteScheduler(share, opts).run();
        worker_stores.push_back(opts.storePath);

        EXPECT_EQ(r.campaignsRun, 0u) << "worker " << w;
        for (std::size_t i = 0; i < share.size(); ++i)
            EXPECT_TRUE(r.cached[i]) << "worker " << w << " spec " << i;
    }

    EXPECT_EQ(mergedBytes(worker_stores, scratch("seed_merged.json")),
              ref);
}

} // namespace
} // namespace merlin::sched
